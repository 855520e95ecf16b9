"""Cross-backend conformance: serial vs process-pool vs remote workers.

The tentpole invariant of the backend refactor is *bit-identity*: run
``i`` of a batch derives every draw from ``SeedSequence(seed).child(i)``,
keyed by run index alone, so where the run executes — in process, in a
local pool worker, or on a socket-connected agent — cannot leave a trace
in ``BatchReport.canonical_json()``.  This suite pins that
differentially over the whole registry (honest + the universal fuzz
family, kernel and per-view decide legs), property-tests the shard
planner, and drives the remote coordinator through seeded chaos (a worker killed
mid-shard, a connection dropped mid-RESULT-blob) to show resubmission
converges back to the fault-free serial bytes.
"""

import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.runtime.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    backend_names,
    plan_shards,
    resolve_backend,
)
from repro.runtime.faults import FaultPlan, InjectedFault
from repro.runtime.registry import conformance_cases, get_task
from repro.runtime.remote import (
    HEADER_SIZE,
    OP_HELLO,
    OP_RESULT,
    OP_SHARD,
    InProcessWorker,
    RemoteProtocolError,
    RemoteWorkerBackend,
    _FrameBuffer,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.runtime.runner import BatchRunner
from repro.runtime.seeds import SeedSequence

CASES = conformance_cases()

#: the mutation-report keys that must agree across backends (identical
#: fuzz *wire coordinates*, not just identical verdicts)
MUTATION_KEYS = (
    "mutated", "round", "path", "stage", "site", "applied_op", "caught_by",
    "wire_offset", "wire_width", "wire_label_bits",
)


def _run(task, adversary=None, *, backend=None, workers=0, runs=3, n=24,
         seed=11, **knobs):
    spec = get_task(task)
    factory = spec.adversaries[adversary] if adversary else None
    runner = BatchRunner(
        spec.protocol(), spec.yes_factory, prover_factory=factory,
        workers=workers, backend=backend, **knobs,
    )
    return runner.run(runs, n, seed=seed)


@pytest.fixture(scope="module")
def remote_backend():
    """One coordinator + two localhost worker agents for the whole module.

    The agents run on threads of this process (protocol-faithful at the
    socket layer; the per-view fake patches this process, so both decide
    legs reach them) and serve every batch the module runs: each shard
    names its batch, so nothing is held between batches.
    """
    backend = RemoteWorkerBackend(min_workers=2, accept_timeout=20.0)
    workers = [InProcessWorker(backend.address).start() for _ in range(2)]
    yield backend
    backend.close()
    for worker in workers:
        worker.join(timeout=5)


# ---------------------------------------------------------------------------
# the differential conformance suite
# ---------------------------------------------------------------------------


class TestBackendConformance:
    """serial vs pool vs remote, all tasks, honest + fuzz, both decide legs.

    The columnar kernels decide labels that crossed a process (pool) or
    socket (remote) boundary, i.e. labels rebuilt from the packed wire
    blob rather than born in this process.  The per-view leg decides the
    serial and remote runs with the per-view checker; its fake patches
    this process only, so the pool runs, first, with the kernels.
    """

    @pytest.mark.parametrize("decide", ["kernels", "per_view"])
    @pytest.mark.parametrize(
        "task,adversary", CASES, ids=[f"{t}-{a or 'honest'}" for t, a in CASES]
    )
    def test_three_backends_byte_identical(
        self, task, adversary, decide, remote_backend, request
    ):
        pool = _run(task, adversary, backend=ProcessPoolBackend(2), workers=2)
        if decide == "per_view":
            request.getfixturevalue("per_view_decide")
        serial = _run(task, adversary, backend=SerialBackend())
        remote = _run(task, adversary, backend=remote_backend)

        reference = serial.canonical_json()
        assert pool.canonical_json() == reference, (task, adversary, "pool")
        assert remote.canonical_json() == reference, (task, adversary, "remote")

        # identical soundness outcomes, run by run
        for a, b, c in zip(serial.records, pool.records, remote.records):
            verdicts = {
                (r.accepted, r.proof_size_bits, r.n_rejecting, r.n_rounds)
                for r in (a, b, c)
            }
            assert len(verdicts) == 1, (task, adversary, a.index)

        # fuzz adversaries must report the same wire coordinates everywhere
        if adversary is not None:
            for a, b, c in zip(serial.records, pool.records, remote.records):
                for key in MUTATION_KEYS:
                    values = {
                        (rec.extra or {}).get(key) for rec in (a, b, c)
                    }
                    assert len(values) == 1, (task, adversary, a.index, key)

        # execution provenance is meta, never canonical
        assert serial.meta["backend"]["backend"] == "serial"
        assert pool.meta["backend"]["backend"] == "process"
        assert remote.meta["backend"]["backend"] == "remote"


class TestReplanInvariance:
    """Shard layout is invisible: any chunking collapses to one report."""

    def test_chunk_sizes_collapse_to_serial(self, remote_backend):
        reference = _run("lr_sorting", runs=8).canonical_json()
        for chunk in (1, 3, 8):
            pool = _run("lr_sorting", runs=8, workers=2,
                        backend=ProcessPoolBackend(2, chunk_size=chunk))
            assert pool.canonical_json() == reference, ("pool", chunk)
        for chunk in (1, 5):
            spec = get_task("lr_sorting")
            runner = BatchRunner(spec.protocol(), spec.yes_factory,
                                 backend=remote_backend, chunk_size=chunk)
            assert runner.run(8, 24, seed=11).canonical_json() == reference, (
                "remote", chunk)


# ---------------------------------------------------------------------------
# shard planning properties
# ---------------------------------------------------------------------------


class TestShardPlanning:
    @given(
        n_runs=st.integers(min_value=0, max_value=400),
        workers=st.integers(min_value=1, max_value=16),
        chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    )
    @settings(max_examples=80, deadline=None)
    def test_plan_is_permutation_free_tiling(self, n_runs, workers, chunk):
        shards = plan_shards(range(n_runs), workers=workers, chunk_size=chunk)
        assert all(shards), "no empty shards"
        flat = [i for shard in shards for i in shard]
        assert flat == list(range(n_runs))  # order, coverage, no duplicates

    @given(
        n_runs=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk_a=st.integers(min_value=1, max_value=16),
        chunk_b=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_seed_streams_ignore_shard_layout(self, n_runs, seed, chunk_a, chunk_b):
        """Re-planning with a different shard count touches no run's seeds."""

        def per_run_seeds(chunk):
            out = {}
            for shard in plan_shards(range(n_runs), workers=1, chunk_size=chunk):
                for i in shard:
                    run_ss = SeedSequence(seed).child(i)
                    out[i] = (
                        run_ss.child("instance").seed_int(),
                        run_ss.child("protocol").seed_int(),
                        run_ss.child("adversary").seed_int(),
                    )
            return out

        assert per_run_seeds(chunk_a) == per_run_seeds(chunk_b)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(range(4), chunk_size=0)


# ---------------------------------------------------------------------------
# backend resolution + the usable-cores clamp
# ---------------------------------------------------------------------------


class TestResolveBackend:
    def test_registry_names(self):
        assert set(backend_names()) >= {"serial", "process", "remote"}

    def test_legacy_mapping(self):
        assert isinstance(resolve_backend(None, workers=0), SerialBackend)
        pool = resolve_backend(None, workers=3)
        assert isinstance(pool, ProcessPoolBackend) and pool.workers == 3

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_name_resolution(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("process", workers=2), ProcessPoolBackend)
        remote = resolve_backend("remote:127.0.0.1:0", workers=2)
        try:
            assert isinstance(remote, RemoteWorkerBackend)
            assert remote.min_workers == 2 and remote.port != 0
        finally:
            remote.close()

    def test_errors(self):
        with pytest.raises(ValueError):
            resolve_backend("warp-drive")
        with pytest.raises(ValueError):
            resolve_backend("process", workers=0)
        with pytest.raises(TypeError):
            resolve_backend(42)


class TestUsableCoresClamp:
    """The latent bug: core width must be re-checked per run, not frozen."""

    def test_spawn_width_reclamped_per_execution(self, monkeypatch):
        backend = ProcessPoolBackend(workers=8)
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 1)
        assert backend.spawn_width() == 1
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 4)
        assert backend.spawn_width() == 4  # same instance, affinity changed
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 64)
        assert backend.spawn_width() == 8  # never wider than configured

    def test_workers_above_cores_clamped_and_reported(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 1)
        report = _run("lr_sorting", workers=4, runs=4)
        info = report.meta["backend"]
        assert info["workers_spawned"] == 1
        assert info["clamped_to_cores"] is True
        assert report.workers == 4  # the configured value is preserved

    def test_backend_swap_rechecks_width(self, monkeypatch):
        spec = get_task("lr_sorting")
        runner = BatchRunner(spec.protocol(), spec.yes_factory, workers=2)
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 1)
        first = runner.run(4, 24, seed=11)
        assert first.meta["backend"]["workers_spawned"] == 1
        # swap to a fresh pool backend under a different affinity: the
        # width must come from the swap-time (run-time) core count
        runner.set_backend(ProcessPoolBackend(2))
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 2)
        second = runner.run(4, 24, seed=11)
        assert second.meta["backend"]["workers_spawned"] == 2
        assert second.canonical_json() == first.canonical_json()

    def test_swap_to_serial_by_name(self):
        spec = get_task("lr_sorting")
        runner = BatchRunner(spec.protocol(), spec.yes_factory, workers=2)
        reference = runner.run(3, 24, seed=11)
        swapped = runner.set_backend("serial")
        assert isinstance(swapped, SerialBackend)
        report = runner.run(3, 24, seed=11)
        assert report.canonical_json() == reference.canonical_json()
        assert report.meta["backend"]["backend"] == "serial"


# ---------------------------------------------------------------------------
# the wire protocol, in isolation
# ---------------------------------------------------------------------------


class TestWireProtocol:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:7077") == ("127.0.0.1", 7077)
        assert parse_address("worker-9.cluster.local:80") == (
            "worker-9.cluster.local", 80)
        for bad in ("nonsense", ":80", "host:", "host:a"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_frame_roundtrip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = b"x" * 70_000  # bigger than one recv() buffer slice
            send_frame(a, OP_SHARD, payload)
            op, got = recv_frame(b)
            assert op == OP_SHARD and got == payload
        finally:
            a.close()
            b.close()

    def test_frame_buffer_reassembles_split_frames(self):
        frame = bytearray()
        send_frame_bytes = []

        class _Capture:
            def sendall(self, data):
                frame.extend(data)

        send_frame(_Capture(), OP_HELLO, b'{"version":1}')
        buf = _FrameBuffer()
        # feed one byte at a time: nothing until the last byte lands
        for i, byte in enumerate(bytes(frame)):
            frames = buf.feed(bytes([byte]))
            if i < len(frame) - 1:
                assert frames == []
                send_frame_bytes.append(byte)
        assert frames == [(OP_HELLO, b'{"version":1}')]

    def test_unknown_opcode_rejected(self):
        buf = _FrameBuffer()
        with pytest.raises(RemoteProtocolError):
            buf.feed(b"Z\x00\x00\x00\x00" + b"\x00" * HEADER_SIZE)


# ---------------------------------------------------------------------------
# chaos: worker loss and dropped connections
# ---------------------------------------------------------------------------


def _spawn_agent(port: int) -> subprocess.Popen:
    """A real ``repro worker`` agent process (kill faults genuinely kill)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", f"127.0.0.1:{port}", "--connect-timeout", "20"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestRemoteChaos:
    def test_worker_killed_mid_shard_resubmits_byte_identical(self):
        """A seeded kill takes a real agent down; the survivor finishes.

        The surviving report must be byte-identical to the fault-free
        serial reference, and the coordinator must count the loss.
        """
        reference = _run("lr_sorting", runs=6, seed=11).canonical_json()
        plan = FaultPlan(0, overrides={1: ("kill", 1)})
        backend = RemoteWorkerBackend(min_workers=2, accept_timeout=30.0)
        agents = [_spawn_agent(backend.port) for _ in range(2)]
        try:
            with obs_metrics.enabled_metrics() as registry:
                report = _run(
                    "lr_sorting", runs=6, seed=11,
                    backend=backend, chunk_size=2,
                    failure_policy="retry", fault_plan=plan, max_retries=3,
                    backoff_base=0.01, backoff_cap=0.05,
                )
                losses = registry.counter(
                    "repro_remote_worker_losses_total").value()
        finally:
            backend.close()
            for agent in agents:
                try:
                    agent.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    agent.kill()
        assert report.canonical_json() == reference
        assert not report.failures
        assert losses >= 1
        assert backend.last_run_info["worker_losses"] >= 1
        # exactly one agent died of the injected kill (exit code 23)
        assert sorted(a.returncode for a in agents) == [0, 23]

    def test_connection_dropped_mid_result_blob(self):
        """A socket cut halfway through a RESULT frame is a lost shard."""
        reference = _run("lr_sorting", runs=8, seed=11).canonical_json()

        class _DropOnce:
            def __init__(self):
                self.fired = False

            def __call__(self, sock, data):
                if not self.fired:
                    self.fired = True
                    sock.sendall(data[: max(1, len(data) // 2)])
                    sock.close()
                    raise ConnectionError("injected mid-blob drop")
                sock.sendall(data)

        backend = RemoteWorkerBackend(min_workers=2, accept_timeout=20.0)
        saboteur = InProcessWorker(
            backend.address, result_send_hook=_DropOnce()
        ).start()
        survivor = InProcessWorker(backend.address).start()
        try:
            with obs_metrics.enabled_metrics() as registry:
                report = _run(
                    "lr_sorting", runs=8, seed=11,
                    backend=backend, chunk_size=2,
                    failure_policy="retry", max_retries=3,
                    backoff_base=0.01, backoff_cap=0.05,
                )
                losses = registry.counter(
                    "repro_remote_worker_losses_total").value()
        finally:
            backend.close()
            saboteur.join(timeout=5)
            survivor.join(timeout=5)
        assert report.canonical_json() == reference
        assert not report.failures
        assert losses >= 1
        assert backend.last_run_info["worker_losses"] >= 1

    def test_raise_faults_on_remote_retry_to_reference(self, remote_backend):
        """Transient raises on remote workers heal exactly like local ones."""
        reference = _run("treewidth2", runs=5, seed=11).canonical_json()
        plan = FaultPlan(0, overrides={0: ("raise", 1), 3: ("raise", 2)})
        report = _run(
            "treewidth2", runs=5, seed=11,
            backend=remote_backend,
            failure_policy="retry", fault_plan=plan, max_retries=3,
            backoff_base=0.01, backoff_cap=0.05,
        )
        assert report.canonical_json() == reference
        assert not report.failures


class TestRemoteLifecycle:
    def test_min_workers_timeout_is_actionable(self):
        backend = RemoteWorkerBackend(min_workers=1, accept_timeout=0.2)
        spec = get_task("lr_sorting")
        runner = BatchRunner(
            spec.protocol(), spec.yes_factory, backend=backend
        )
        try:
            with pytest.raises(RuntimeError, match="repro worker --connect"):
                runner.run(2, 24, seed=11)
        finally:
            backend.close()

    def test_closed_backend_refuses_work(self):
        backend = RemoteWorkerBackend()
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            backend.run(object(), 1)

    def test_worker_exits_cleanly_on_bye(self):
        backend = RemoteWorkerBackend(min_workers=1, accept_timeout=10.0)
        worker = InProcessWorker(backend.address).start()
        report = _run("lr_sorting", runs=3, seed=11, backend=backend)
        assert report.meta["backend"]["backend"] == "remote"
        backend.close()
        worker.join(timeout=5)
        assert worker.exit_status == 0
        assert worker.error is None


# ---------------------------------------------------------------------------
# frame limits and worker reconnect (service-era hardening)
# ---------------------------------------------------------------------------


class TestFrameLimits:
    def test_forged_2gib_header_rejected_before_allocation(self):
        """Regression: a forged header declaring a 2 GiB payload must be
        refused on the declared length alone — typed, and without the
        receiver ever trying to buffer the body."""
        from repro.runtime.remote import WireError

        a, b = socket.socketpair()
        try:
            a.sendall(__import__("struct").pack(">cI", OP_SHARD, (1 << 31) + 17))
            with pytest.raises(WireError, match="frame too large"):
                recv_frame(b, max_frame_bytes=1 << 24)
        finally:
            a.close()
            b.close()

    def test_frame_buffer_limit_is_configurable(self):
        from repro.runtime.remote import WireError, _encode_frame

        buf = _FrameBuffer(max_frame_bytes=16)
        with pytest.raises(WireError):
            buf.feed(__import__("struct").pack(">cI", OP_SHARD, 17))
        # at the limit is fine
        ok = _FrameBuffer(max_frame_bytes=16)
        frames = ok.feed(_encode_frame(OP_SHARD, b"x" * 16))
        assert frames == [(OP_SHARD, b"x" * 16)]

    def test_send_side_enforces_the_same_limit(self):
        from repro.runtime.remote import WireError, _encode_frame

        with pytest.raises(WireError):
            _encode_frame(OP_SHARD, b"x" * 17, max_frame_bytes=16)

    def test_wire_error_is_a_protocol_error(self):
        from repro.runtime.remote import WireError

        assert issubclass(WireError, RemoteProtocolError)


class TestWorkerReconnect:
    def test_backoff_is_deterministic_capped_and_jittered(self):
        from repro.runtime.remote import reconnect_backoff

        series = [reconnect_backoff(7, a, 0.05, 2.0) for a in range(1, 12)]
        again = [reconnect_backoff(7, a, 0.05, 2.0) for a in range(1, 12)]
        assert series == again  # replayable
        other = [reconnect_backoff(8, a, 0.05, 2.0) for a in range(1, 12)]
        assert series != other  # fleet does not thunder in lockstep
        for attempt, delay in enumerate(series, start=1):
            raw = min(0.05 * 2 ** (attempt - 1), 2.0)
            assert 0.5 * raw <= delay < raw
        assert max(series) < 2.0  # cap holds forever

    def test_dropped_connection_rejoins_then_bye_ends_service(self):
        """The reconnect loop end-to-end: the coordinator slams the first
        connection, the agent backs off and rejoins, BYE ends with 0."""
        import json as _json
        import threading as _threading

        from repro.runtime.remote import OP_BYE, serve_worker

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]
        hellos = []

        def _coordinator():
            first, _ = listener.accept()
            op, payload = recv_frame(first)
            hellos.append((op, _json.loads(payload.decode("utf-8"))))
            first.close()  # drop without BYE -> agent must come back
            second, _ = listener.accept()
            op, payload = recv_frame(second)
            hellos.append((op, _json.loads(payload.decode("utf-8"))))
            send_frame(second, OP_BYE, b"{}")
            second.close()

        coord = _threading.Thread(target=_coordinator, daemon=True)
        coord.start()
        status = serve_worker(
            ("127.0.0.1", port),
            connect_timeout=10.0,
            in_worker=False,
            reconnect=True,
            backoff_base=0.01,
            backoff_cap=0.05,
            reconnect_seed=3,
        )
        coord.join(timeout=10.0)
        listener.close()
        assert status == 0
        assert [op for op, _ in hellos] == [OP_HELLO, OP_HELLO]
        assert hellos[0][1]["pid"] == hellos[1][1]["pid"]

    def test_forged_shard_is_a_drop_then_the_agent_serves(self):
        """A reconnecting agent hangs up on a SHARD naming an unknown task,
        redials, and serves a real batch that matches the serial one."""
        from repro.runtime.remote import OP_SHARD, serve_worker

        reference = _run("lr_sorting", runs=4, seed=11).canonical_json()
        fake = socket.create_server(("127.0.0.1", 0))
        port = fake.getsockname()[1]
        exit_status = []
        agent = threading.Thread(target=lambda: exit_status.append(serve_worker(
            ("127.0.0.1", port), connect_timeout=10.0, in_worker=False,
            reconnect=True, max_reconnects=3, backoff_base=0.01, backoff_cap=0.05,
            reconnect_seed=1,
        )), daemon=True)
        agent.start()
        try:
            conn, _ = fake.accept()
            with conn:
                assert recv_frame(conn)[0] == OP_HELLO
                send_frame(conn, OP_SHARD, _shard_frame(_honest_batch(task="warp_drive")))
                conn.settimeout(5.0)
                assert conn.recv(1) == b""  # the agent hung up
        finally:
            fake.close()
        backend = RemoteWorkerBackend(port=port, min_workers=1, accept_timeout=20.0)
        try:
            report = _run("lr_sorting", runs=4, seed=11, backend=backend)
        finally:
            backend.close()
            agent.join(timeout=10.0)
        assert report.canonical_json() == reference
        assert exit_status == [0]  # BYE ended service

    def test_worker_cli_reports_a_forged_shard_in_one_line(self, capsys):
        """Without --reconnect a forged SHARD ends ``repro worker`` with a
        typed one-line error and status 1, not a traceback."""
        from repro.cli import main

        fake = socket.create_server(("127.0.0.1", 0))
        port = fake.getsockname()[1]

        def _coordinator():
            conn, _ = fake.accept()
            with conn:
                recv_frame(conn)  # HELLO
                send_frame(conn, OP_SHARD, _shard_frame(_honest_batch(task="warp_drive")))
                conn.settimeout(5.0)
                conn.recv(1)

        coord = threading.Thread(target=_coordinator, daemon=True)
        coord.start()
        try:
            status = main(["worker", "--connect", f"127.0.0.1:{port}",
                           "--connect-timeout", "5"])
        finally:
            coord.join(timeout=5.0)
            fake.close()
        assert status == 1
        out = capsys.readouterr().out.splitlines()
        assert "RemoteProtocolError" in out[-1] and "unknown task" in out[-1]

    def test_gives_up_after_max_reconnects(self):
        from repro.runtime.remote import serve_worker

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        port = listener.getsockname()[1]
        drops = {"n": 0}
        stop = False

        def _coordinator():
            while not stop:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                recv_frame(conn)
                drops["n"] += 1
                conn.close()

        import threading as _threading

        coord = _threading.Thread(target=_coordinator, daemon=True)
        coord.start()
        status = serve_worker(
            ("127.0.0.1", port),
            connect_timeout=5.0,
            in_worker=False,
            reconnect=True,
            max_reconnects=2,
            backoff_base=0.01,
            backoff_cap=0.02,
            reconnect_seed=5,
        )
        stop = True
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so the coordinator exits instead of
        # lingering through every later test
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        coord.join(timeout=5.0)
        assert not coord.is_alive()
        assert status == 0
        assert drops["n"] == 3  # initial dial + two reconnects, then give up

    def test_non_reconnect_agent_still_exits_on_drop(self):
        from repro.runtime.remote import serve_worker

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        import threading as _threading

        def _coordinator():
            conn, _ = listener.accept()
            recv_frame(conn)
            conn.close()

        coord = _threading.Thread(target=_coordinator, daemon=True)
        coord.start()
        status = serve_worker(
            ("127.0.0.1", port), connect_timeout=5.0, in_worker=False)
        coord.join(timeout=5.0)
        listener.close()
        assert status == 0


# ---------------------------------------------------------------------------
# batches by name: the JSON frames and what they refuse
# ---------------------------------------------------------------------------


def _spec_of(runner, n=24, seed=11):
    from repro.runtime.runner import _BatchSpec

    return _BatchSpec(runner.protocol, runner.instance_factory,
                      runner.prover_factory, n, seed,
                      fault_plan=runner.fault_plan, trace=runner.trace)


def _shard_frame(batch, indices=(0, 1), attempts=None, run_timeout=None):
    from repro.runtime.remote import encode_message

    indices = list(indices)
    return encode_message({
        "shard": 1, "batch": batch, "indices": indices,
        "attempts": [0] * len(indices) if attempts is None else attempts,
        "run_timeout": run_timeout,
    })


def _honest_batch(**over):
    from repro.runtime.registry import batch_identity

    spec = get_task("lr_sorting")
    batch = batch_identity(_spec_of(BatchRunner(spec.protocol(), spec.yes_factory)))
    batch.update(over)
    return batch


class TestNamedBatches:
    @pytest.mark.parametrize("task,adversary", CASES,
                             ids=[f"{t}-{a or 'honest'}" for t, a in CASES])
    def test_names_rebuild_the_batch(self, task, adversary):
        """identity -> SHARD frame -> worker spec runs the same records."""
        from repro.runtime.registry import batch_identity
        from repro.runtime.remote import decode_shard
        from repro.runtime.runner import execute_one_run

        spec = get_task(task)
        factory = spec.no_factory if adversary and spec.no_factory else spec.yes_factory
        runner = BatchRunner(
            spec.protocol(c=3), factory,
            prover_factory=spec.adversaries[adversary] if adversary else None,
            fault_plan=FaultPlan(4, rate=0.5, kinds=("raise",),
                                 overrides={2: ("hang", 3)}),
            trace=True,
        )
        local = _spec_of(runner, n=20, seed=5)
        shard_id, rebuilt, indices, attempts, timeout = decode_shard(
            _shard_frame(batch_identity(local), indices=(3, 0), attempts=[1, 0],
                         run_timeout=2)
        )
        assert (shard_id, indices, attempts, timeout) == (1, [3, 0], {3: 1, 0: 0}, 2.0)
        assert type(rebuilt.protocol) is type(local.protocol)
        assert rebuilt.protocol.c == 3 and rebuilt.trace
        assert rebuilt.instance_factory is local.instance_factory
        assert rebuilt.prover_factory is local.prover_factory
        assert rebuilt.fault_plan.to_spec() == local.fault_plan.to_spec()
        assert (execute_one_run(rebuilt, 0).canonical_dict()
                == execute_one_run(local, 0).canonical_dict())

    def test_fault_plan_spec_round_trips(self):
        from repro.runtime.faults import PERSISTENT

        plan = FaultPlan(-7, rate=0.125, kinds=("raise", "kill"), fires=2,
                         hang_s=0.5, overrides={9: ("kill", PERSISTENT), 1: ("hang", 1)})
        again = FaultPlan.from_spec(plan.to_spec())
        assert again.to_spec() == plan.to_spec()
        assert all(again.fault_at(i) == plan.fault_at(i) for i in range(64))

    def test_cached_factory_travels_as_its_builder(self):
        from repro.runtime.cache import CachedFactory
        from repro.runtime.registry import batch_identity
        from repro.runtime.remote import decode_shard

        spec = get_task("planarity")
        batch = batch_identity(_spec_of(BatchRunner(
            spec.protocol(), CachedFactory("planarity:no", spec.no_factory))))
        assert batch["cached"] and batch["no_instance"]
        rebuilt = decode_shard(_shard_frame(batch))[1].instance_factory
        assert isinstance(rebuilt, CachedFactory)
        assert rebuilt.builder is spec.no_factory

    @pytest.mark.parametrize("make", [
        lambda s: (s.protocol(), lambda n, rng: s.yes_factory(n, rng), None),
        lambda s: (s.protocol(), None, lambda inst: None),
        lambda s: (type("Custom", (type(s.protocol()),), {})(), None, None),
    ], ids=["lambda-factory", "custom-adversary", "protocol-subclass"])
    def test_unnamed_batches_are_refused_before_any_frame(self, make):
        """A worker could not rebuild these: no frame leaves the coordinator."""
        from repro.runtime.registry import UnnamedBatchError

        spec = get_task("lr_sorting")
        protocol, factory, adversary = make(spec)
        backend = RemoteWorkerBackend(min_workers=1, accept_timeout=5.0)
        peer = socket.create_connection(backend.address)
        try:
            peer.sendall(_encode_frame_for_test(OP_HELLO, {"version": 2, "pid": 1}))
            runner = BatchRunner(protocol, factory or spec.yes_factory,
                                 prover_factory=adversary, backend=backend)
            with pytest.raises(UnnamedBatchError):
                runner.run(2, 24, seed=11)
            peer.setblocking(False)
            with pytest.raises(BlockingIOError):
                peer.recv(1)  # nothing was sent to the registered worker
        finally:
            peer.close()
            backend.close()

    def test_non_default_protocol_parameter_is_refused(self):
        from repro.protocols.outerplanarity import OuterplanarityProtocol
        from repro.runtime.registry import UnnamedBatchError, batch_identity

        spec = get_task("outerplanarity")
        batch_identity(_spec_of(BatchRunner(OuterplanarityProtocol(c=4), spec.yes_factory)))
        with pytest.raises(UnnamedBatchError, match="other than c"):
            batch_identity(_spec_of(BatchRunner(
                OuterplanarityProtocol(c=2, stv_repetitions=3), spec.yes_factory)))
        lr = get_task("lr_sorting")
        with pytest.raises(UnnamedBatchError):
            batch_identity(_spec_of(BatchRunner(
                lr.protocol(truncate_to_three_rounds=True), lr.yes_factory)))

    def test_strict_remote_failure_carries_the_worker_traceback(self):
        """No exception object crosses the socket: a strict failure on a
        real agent is a RuntimeError naming the run, caused by the agent's
        formatted traceback."""
        backend = RemoteWorkerBackend(min_workers=1, accept_timeout=30.0)
        agent = _spawn_agent(backend.port)
        try:
            with pytest.raises(RuntimeError, match=r"run 1 .* failed \[raise\]") as info:
                _run("treewidth2", runs=3, backend=backend,
                     fault_plan=FaultPlan(0, overrides={1: ("raise", 1)}))
        finally:
            backend.close()
            agent.wait(timeout=10)
        assert "InjectedFault" in str(info.value.__cause__)
        assert "Traceback" in str(info.value.__cause__)

    def test_strict_in_thread_failure_carries_the_traceback(self, remote_backend):
        """An in-thread agent keeps the exception itself, and its RESULT
        carries that exception's formatted traceback; a serial run raises
        the original exception, uncaused."""
        plan = FaultPlan(0, overrides={1: ("raise", 1)})
        with pytest.raises(RuntimeError, match=r"run 1 .* failed \[raise\]") as info:
            _run("treewidth2", runs=3, backend=remote_backend, fault_plan=plan)
        cause = str(info.value.__cause__)
        assert "Traceback" in cause and "InjectedFault" in cause
        assert ", in fire\n" in cause  # the frame that raised
        with pytest.raises(InjectedFault) as serial:
            _run("treewidth2", runs=3, fault_plan=plan)
        assert serial.value.__cause__ is None


def _encode_frame_for_test(op, obj):
    from repro.runtime.remote import _encode_frame, encode_message

    return _encode_frame(op, encode_message(obj))


def _result(outcomes, shard=1, stats=None):
    from repro.runtime.remote import encode_message

    return encode_message({"shard": shard, "outcomes": outcomes, "stats": stats})


def _record(index, **over):
    rec = {"index": index, "accepted": True, "proof_size_bits": 12, "n_rounds": 5,
           "n_rejecting": 0, "wall_time": 0.5, "extra": None}
    rec.update(over)
    return rec


class TestForgedFrames:
    """Every forged frame is a typed error at its receiver."""

    def test_a_well_formed_result_decodes(self):
        from repro.runtime.remote import decode_result

        failure = {"index": 1, "fault": "raise", "error": "boom", "elapsed": 1,
                   "traceback": "tb"}
        outcomes, stats = decode_result(
            _result([_record(0), failure], stats={"hits": 1, "misses": 2}), 1, [0, 1])
        assert outcomes[0].record.proof_size_bits == 12
        assert (outcomes[1].fault, outcomes[1].elapsed, outcomes[1].exc) == (
            "raise", 1.0, None)
        assert stats == {"hits": 1, "misses": 2}

    @pytest.mark.parametrize("payload,error", [
        (pickle.dumps((1, [], None)), "WireError"),
        (b"{not json", "WireError"),
        (b"[1, 2]", "WireError"),
        (_result([_record(0), _record(1)], shard=2), "RemoteProtocolError"),
        (_result([_record(0), _record(5)]), "RemoteProtocolError"),
        (_result([_record(0)]), "RemoteProtocolError"),
        (_result([_record(0), _record(1, accepted=1)]), "RemoteProtocolError"),
        (_result([_record(0), _record(1, proof_size_bits="12")]), "RemoteProtocolError"),
        (_result([_record(0), _record(1, extra=[])]), "RemoteProtocolError"),
        (_result([_record(0), dict(_record(1), surprise=1)]), "RemoteProtocolError"),
        (_result([_record(0), {"index": 1, "fault": "meteor", "error": "",
                              "elapsed": 0.0, "traceback": None}]),
         "RemoteProtocolError"),
        (_result([_record(0), _record(1)], stats={"hits": True, "misses": 0}),
         "RemoteProtocolError"),
    ], ids=["pickle", "not-json", "not-an-object", "unsent-shard",
            "index-outside-shard", "missing-run", "bool-as-int", "str-as-int",
            "extra-list", "unknown-field", "unknown-fault", "bad-stats"])
    def test_forged_result_is_refused(self, payload, error):
        from repro.runtime import remote

        with pytest.raises(getattr(remote, error)):
            remote.decode_result(payload, 1, [0, 1])

    @pytest.mark.parametrize("batch,indices,attempts,match", [
        (dict(task="warp_drive"), (0,), None, "unknown task"),
        (dict(adversary="meteor"), (0,), None, "unknown adversary"),
        (dict(task="planar_embedding", no_instance=True), (0,), None, "no-instance"),
        (dict(faults="rate=lots"), (0,), None, "inject_faults"),
        (dict(c="2"), (0,), None, "'c'"),
        (dict(trace=None), (0,), None, "'trace'"),
        ({}, (0, -1), None, ">= 0"),
        ({}, (0, True), None, ">= 0"),
        ({}, (0, 1), [0], "attempt count"),
    ], ids=["unknown-task", "unknown-adversary", "no-generator", "bad-faults",
            "str-c", "null-trace", "negative-index", "bool-index", "short-attempts"])
    def test_forged_shard_is_refused(self, batch, indices, attempts, match):
        from repro.runtime.remote import decode_shard

        with pytest.raises(RemoteProtocolError, match=match):
            decode_shard(_shard_frame(_honest_batch(**batch), indices, attempts))

    def test_version_1_hello_is_refused_and_dropped(self):
        from repro.runtime.remote import decode_hello

        with pytest.raises(RemoteProtocolError, match="version 1"):
            decode_hello(b'{"version": 1, "pid": 7}')
        with pytest.raises(RemoteProtocolError):
            decode_hello(b'{"version": 2, "pid": "7"}')
        backend = RemoteWorkerBackend(min_workers=1, accept_timeout=0.5)
        peer = socket.create_connection(backend.address)
        try:
            peer.sendall(_encode_frame_for_test(OP_HELLO, {"version": 1, "pid": 7}))
            with pytest.raises(RuntimeError, match="only 0 of 1"):
                _run("lr_sorting", runs=2, backend=backend)
            peer.settimeout(5.0)
            assert peer.recv(1) == b""  # the coordinator hung up on it
        finally:
            peer.close()
            backend.close()

    def test_worker_refuses_a_forged_shard_and_runs_nothing(self, monkeypatch):
        from repro.runtime import runner
        from repro.runtime.remote import OP_SHARD, serve_worker

        ran = []
        monkeypatch.setattr(runner, "execute_one_run", lambda *a: ran.append(a))
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def _coordinator():
            conn, _ = listener.accept()
            recv_frame(conn)  # HELLO
            send_frame(conn, OP_SHARD, _shard_frame(_honest_batch(task="warp_drive")))
            conn.settimeout(5.0)
            try:
                conn.recv(1)
            finally:
                conn.close()

        coord = threading.Thread(target=_coordinator, daemon=True)
        coord.start()
        try:
            with pytest.raises(RemoteProtocolError, match="unknown task"):
                serve_worker(("127.0.0.1", port), connect_timeout=5.0, in_worker=False)
        finally:
            coord.join(timeout=5.0)
            listener.close()
        assert ran == []

    def test_forged_result_drops_the_worker_and_the_runs_retry(self):
        """A forging agent is dropped; its runs retry to the reference."""
        reference = _run("lr_sorting", runs=6, seed=11).canonical_json()
        backend = RemoteWorkerBackend(min_workers=1, accept_timeout=20.0)
        forger = socket.create_connection(backend.address)
        forger.sendall(_encode_frame_for_test(OP_HELLO, {"version": 2, "pid": 1}))
        honest = []

        def _forge():
            _, payload = recv_frame(forger)
            shard = json.loads(payload)
            forged = [_record(i, accepted="yes") for i in shard["indices"]]
            forger.sendall(_encode_frame_for_test(
                OP_RESULT, {"shard": shard["shard"], "outcomes": forged, "stats": None}))
            honest.append(InProcessWorker(backend.address).start())

        thread = threading.Thread(target=_forge, daemon=True)
        thread.start()
        try:
            report = _run("lr_sorting", runs=6, seed=11, backend=backend,
                          chunk_size=2, failure_policy="retry", max_retries=3,
                          backoff_base=0.01, backoff_cap=0.05)
        finally:
            backend.close()
            thread.join(timeout=5)
            forger.close()
            for worker in honest:
                worker.join(timeout=5)
        assert report.canonical_json() == reference
        assert not report.failures
        assert backend.last_run_info["worker_losses"] >= 1
