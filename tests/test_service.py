"""Certification service: wire, fairness, backpressure, idempotency, drain.

The load-bearing invariant everywhere: a request served by a warm
long-lived :class:`ProofServer` returns a canonical report byte-identical
to the same ``(task, n, runs, seed, ...)`` executed through the one-shot
path — the serving layer (queueing, caching, replay, drain) must never
leak into results.
"""

import contextlib
import json
import socket
import struct
import threading
import time

import pytest

from repro.analysis.experiments import run_batch
from repro.obs import metrics as obs_metrics
from repro.obs.journal import Journal, strip_timing
from repro.obs.tracer import Tracer
from repro.runtime import registry
from repro.runtime.remote import WireError
from repro.service.chaos import run_chaos
from repro.service.client import (
    RequestFailed,
    ServiceClient,
    ServiceUnavailable,
)
from repro.service.queue import FairQueue
from repro.service.server import ProofServer
from repro.service.wire import (
    OP_ACK,
    OP_FAIL,
    OP_REQUEST,
    SERVICE_OPS,
    encode_message,
    recv_frame,
    request_key,
    send_frame,
    service_frame_buffer,
    validate_request,
)


@contextlib.contextmanager
def service(**kwargs):
    """A live ProofServer on a thread; drains (and joins) on exit."""
    server = ProofServer(**kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.wait_ready(10.0), "server never bound its listener"
    try:
        yield server, (server.host, server.bound_port)
    finally:
        server.request_drain()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "server failed to drain"


def _reference(task, *, runs, n, seed, c=2, no_instance=False):
    spec = registry.get_task(task)
    factory = spec.no_factory if no_instance else spec.yes_factory
    return run_batch(spec.protocol(c=c), factory, n_runs=runs, n=n, seed=seed)


def _block_lane(server):
    """Occupy the execution lane until the returned event is set."""
    release = threading.Event()
    entered = threading.Event()

    def _hold():
        entered.set()
        release.wait(30.0)

    server._lane.submit(_hold)
    assert entered.wait(10.0)
    return release


class TestWire:
    def test_validate_request_normalizes_defaults(self):
        req = validate_request({"id": "r1", "task": "planarity"})
        assert req["runs"] == 100 and req["n"] == 64 and req["seed"] == 0
        assert req["failure_policy"] == "strict"
        assert req["client"] == "anonymous"
        assert req["stream"] is False

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # no id
            {"id": "r", "task": ""},  # empty task
            {"id": "r", "task": "planarity", "runs": 0},
            {"id": "r", "task": "planarity", "runs": 10**9},  # over ceiling
            {"id": "r", "task": "planarity", "n": -3},
            {"id": "r", "task": "planarity", "failure_policy": "yolo"},
            {"id": "r", "task": "planarity", "run_timeout": -1},
            {"id": "r", "task": "planarity", "runs": "many"},
            {"id": "x" * 200, "task": "planarity"},  # oversized id
        ],
    )
    def test_validate_request_rejects(self, payload):
        with pytest.raises(ValueError):
            validate_request(payload)

    def test_request_key_ignores_delivery_preferences(self):
        a = validate_request({"id": "r", "task": "planarity", "stream": True,
                             "client": "alice"})
        b = validate_request({"id": "r", "task": "planarity", "stream": False,
                             "client": "bob"})
        assert request_key(a) == request_key(b)
        c = validate_request({"id": "r", "task": "planarity", "seed": 1})
        assert request_key(a) != request_key(c)

    def test_frame_buffer_rejects_oversized_service_frame(self):
        buf = service_frame_buffer(1 << 10)
        with pytest.raises(WireError):
            buf.feed(struct.pack(">cI", b"Q", (1 << 10) + 1))


class TestFairQueue:
    def test_bounded_admission(self):
        q = FairQueue(limit=2)
        assert q.offer("a", 1) == 1
        assert q.offer("a", 2) == 2
        assert q.offer("b", 3) is None  # global bound, not per-client
        assert q.depth() == 2

    def test_round_robin_across_clients(self):
        q = FairQueue(limit=10)
        for job in ("a1", "a2", "a3"):
            q.offer("alice", job)
        q.offer("bob", "b1")
        # bob's singleton is one rotation away, not behind alice's flood
        assert [q.next() for _ in range(4)] == ["a1", "b1", "a2", "a3"]
        assert q.next() is None

    def test_drain_all_empties(self):
        q = FairQueue(limit=10)
        q.offer("a", 1), q.offer("b", 2), q.offer("a", 3)
        assert q.drain_all() == [1, 2, 3]
        assert q.depth() == 0


class TestGauge:
    def test_gauge_set_inc_dec_and_render(self):
        with obs_metrics.enabled_metrics() as registry_:
            obs_metrics.set_gauge("repro_service_queue_depth", 3,
                                  help="queued requests")
            gauge = registry_.gauge("repro_service_queue_depth")
            assert gauge.value() == 3
            gauge.inc(2)
            gauge.dec()
            assert gauge.value() == 4
            rendered = registry_.render()
            assert "# TYPE repro_service_queue_depth gauge" in rendered
            assert "repro_service_queue_depth 4" in rendered

    def test_set_gauge_noop_when_disabled(self):
        obs_metrics.REGISTRY.reset()
        obs_metrics.set_gauge("repro_service_inflight", 1)
        assert "repro_service_inflight" not in obs_metrics.REGISTRY.names()

    def test_gauge_name_collision_is_typed(self):
        with obs_metrics.enabled_metrics() as registry_:
            registry_.counter("repro_service_requests_total")
            with pytest.raises(TypeError):
                registry_.gauge("repro_service_requests_total")


class TestServiceExecution:
    def test_result_byte_identical_to_oneshot(self):
        with service() as (server, addr):
            client = ServiceClient(addr, client_id="t")
            res = client.submit("lr_sorting", runs=5, n=32, seed=11, stream=True)
        ref = _reference("lr_sorting", runs=5, n=32, seed=11)
        assert res.canonical_json() == ref.canonical_json()
        assert res.ok and not res.degraded
        # streamed events are the one-shot journal's, up to timing
        journal = Journal()
        spec = registry.get_task("lr_sorting")
        run_batch(spec.protocol(c=2), spec.yes_factory, n_runs=5, n=32,
                  seed=11, journal=journal)
        assert [strip_timing(e) for e in res.events] == [
            strip_timing(e) for e in journal.events
        ]
        kinds = [e["event"] for e in res.events]
        assert kinds[0] == "batch_start" and kinds[-1] == "batch_end"
        assert kinds.count("trace_summary") == kinds.count("run_end") == 5

    def test_unread_request_builds_no_tracer(self, monkeypatch):
        """With no journal on the server, only a streamed request traces."""
        begun = []
        begin_run = Tracer.begin_run

        def counting_begin_run(self, *args, **kwargs):
            begun.append(1)
            return begin_run(self, *args, **kwargs)

        monkeypatch.setattr(Tracer, "begin_run", counting_begin_run)
        with service() as (server, addr):
            client = ServiceClient(addr, client_id="t")
            plain = client.submit("lr_sorting", runs=3, n=32, seed=4)
            assert begun == [] and plain.events == []
            assert server._jobs[plain.id].events == []
            streamed = client.submit("lr_sorting", runs=3, n=32, seed=4,
                                     request_id="streamed", stream=True)
            assert len(begun) == 3
        ref = _reference("lr_sorting", runs=3, n=32, seed=4)
        assert plain.canonical_json() == ref.canonical_json()
        assert streamed.canonical_json() == ref.canonical_json()
        assert plain.summary.split("|")[:3] == streamed.summary.split("|")[:3]

    def test_unstreamed_update_keeps_epoch_records(self):
        """An UPDATE run without events certifies the same epochs as the
        local churn campaign and as a streamed UPDATE of the same instance."""
        from repro.dynamic import (
            ChurnCampaignSpec,
            campaign_stream,
            initial_graph,
            run_campaign,
        )

        spec = ChurnCampaignSpec(task="planarity", n=24, seed=7, n_updates=6)
        updates = [u for u, _ in campaign_stream(spec, initial_graph(spec))]
        local = [r.canonical_dict() for r in run_campaign(spec).records]
        with service() as (server, addr):
            client = ServiceClient(addr, client_id="t")
            plain_target = client.submit("planarity", runs=1, n=24, seed=7)
            streamed_target = client.submit("planarity", runs=1, n=24, seed=7,
                                            request_id="second-target")
            plain = client.submit_update(plain_target.id, updates)
            streamed = client.submit_update(streamed_target.id, updates,
                                            stream=True)
            assert server._jobs[plain.id].events == []
        assert plain.ok and streamed.ok
        assert plain.report["epochs"] == streamed.report["epochs"] == local
        assert plain.events == []
        assert streamed.events == [
            {"event": "epoch", **rec} for rec in local
        ]

    def test_instance_cache_stays_warm_and_invisible(self):
        with service() as (server, addr):
            client = ServiceClient(addr, client_id="t")
            first = client.submit("planarity", runs=3, n=32, seed=5)
            again = client.submit("planarity", runs=3, n=32, seed=5,
                                  request_id="fresh-id-second-time")
            stats = again.meta["cache_stats"]
        assert first.canonical_json() == again.canonical_json()
        assert stats["hits"] > 0  # second request hit the warm cache

    def test_no_instance_and_adversary_requests(self):
        with service() as (server, addr):
            client = ServiceClient(addr, client_id="t")
            res = client.submit("lr_sorting", runs=4, n=32, seed=3,
                                no_instance=True)
        ref = _reference("lr_sorting", runs=4, n=32, seed=3, no_instance=True)
        assert res.canonical_json() == ref.canonical_json()
        assert res.ok  # soundness batches are not held to accept==1.0
        assert res.report["acceptance_rate"] == 0.0

    def test_unknown_task_and_adversary_are_typed_fails(self):
        with service() as (server, addr):
            client = ServiceClient(addr, client_id="t")
            with pytest.raises(RequestFailed) as exc:
                client.submit("no_such_task", runs=2, n=16)
            assert exc.value.fault == "bad-request"
            with pytest.raises(RequestFailed) as exc:
                client.submit("planarity", runs=2, n=16, adversary="nope")
            assert exc.value.fault == "bad-request"

    def test_degraded_request_returns_documented_index_subset(self):
        with service() as (server, addr):
            client = ServiceClient(addr, client_id="t")
            res = client.submit(
                "lr_sorting", runs=6, n=32, seed=9,
                failure_policy="degrade", max_retries=0,
                inject_faults="at=1:raise+4:raise",
            )
        ref = _reference("lr_sorting", runs=6, n=32, seed=9)
        assert res.degraded
        surviving = [r["index"] for r in res.report["records"]]
        assert surviving == [0, 2, 3, 5]
        # surviving records are byte-identical to the fault-free reference
        ref_by_index = {r["index"]: r for r in ref.canonical_dict()["records"]}
        for rec in res.report["records"]:
            assert rec == ref_by_index[rec["index"]]
        assert sorted(f["index"] for f in res.failures) == [1, 4]

    def test_all_runs_dropped_renders_sensibly(self):
        with service() as (server, addr):
            client = ServiceClient(addr, client_id="t")
            res = client.submit(
                "lr_sorting", runs=3, n=32, seed=2,
                failure_policy="degrade", max_retries=0,
                inject_faults="rate=1.0,kinds=raise,seed=3,fires=1000000",
            )
        assert res.degraded and res.report["records"] == []
        assert "no surviving runs" in res.summary
        assert "DEGRADED: 0/3 runs survived" in res.summary
        assert "nan" not in res.summary
        assert len(res.failures) == 3

    def test_retry_exhausted_is_a_typed_fail(self):
        with service() as (server, addr):
            client = ServiceClient(addr, client_id="t")
            with pytest.raises(RequestFailed) as exc:
                client.submit(
                    "lr_sorting", runs=2, n=32, seed=2,
                    failure_policy="retry", max_retries=1,
                    inject_faults="rate=1.0,kinds=raise,seed=3,fires=1000000",
                )
        assert exc.value.fault == "retry-exhausted"


class TestIdempotency:
    def test_replay_returns_stored_result(self):
        with service() as (server, addr):
            client = ServiceClient(addr, client_id="t")
            first = client.submit("lr_sorting", runs=4, n=32, seed=7)
            again = client.submit("lr_sorting", runs=4, n=32, seed=7)
            assert first.ack_status == "queued"
            assert again.ack_status == "replay"
            assert again.canonical_json() == first.canonical_json()
            assert server.stats["completed"] == 1  # executed exactly once
            assert server.stats["replayed"] == 1

    def test_streamed_resubmit_replays_unstreamed_frames(self):
        """``stream`` is a delivery preference: resending a finished
        unstreamed id with ``stream=True`` replays the stored frames, which
        hold no EVENT frame, and executes nothing."""
        with service() as (server, addr):
            client = ServiceClient(addr, client_id="t")
            first = client.submit("lr_sorting", runs=3, n=32, seed=7,
                                  request_id="once")
            again = client.submit("lr_sorting", runs=3, n=32, seed=7,
                                  request_id="once", stream=True)
            assert again.ack_status == "replay"
            assert again.events == [] == first.events
            assert again.canonical_json() == first.canonical_json()
            assert server.stats["completed"] == 1

    def test_same_id_different_params_is_id_conflict(self):
        with service() as (server, addr):
            client = ServiceClient(addr, client_id="t")
            client.submit("lr_sorting", runs=4, n=32, seed=7, request_id="dup")
            with pytest.raises(RequestFailed) as exc:
                client.submit("lr_sorting", runs=4, n=32, seed=8,
                              request_id="dup")
            assert exc.value.fault == "id-conflict"

    def test_retry_after_dropped_connection_attaches_not_reexecutes(self):
        with service() as (server, addr):
            release = _block_lane(server)
            client = ServiceClient(addr, client_id="t")
            request = client.build_request("lr_sorting", runs=4, n=32, seed=13)
            # fire-and-drop: the request is admitted, the connection dies
            sock = socket.create_connection(addr, timeout=10.0)
            send_frame(sock, OP_REQUEST, encode_message(request))
            op, _ = recv_frame(sock, known_ops=SERVICE_OPS)
            assert op == b"A"
            sock.close()
            # the retry rides the queued job instead of re-executing
            outcome = {}
            waiter = threading.Thread(
                target=lambda: outcome.update(
                    res=client.submit_request(request)))
            waiter.start()
            time.sleep(0.1)
            release.set()
            waiter.join(timeout=30.0)
            assert not waiter.is_alive()
            res = outcome["res"]
            assert res.ack_status == "attached"
            assert server.stats["completed"] == 1
        ref = _reference("lr_sorting", runs=4, n=32, seed=13)
        assert res.canonical_json() == ref.canonical_json()


class TestBackpressureAndFairness:
    def test_busy_frame_with_retry_after_hint(self):
        with service(queue_limit=1) as (server, addr):
            with obs_metrics.enabled_metrics() as registry_:
                release = _block_lane(server)
                client = ServiceClient(addr, client_id="heavy")
                threads = []
                try:
                    # one request goes in-flight (lane is blocked), the
                    # next fills the single queue slot, the third gets BUSY
                    for i in (1, 2):
                        req = client.build_request("lr_sorting", runs=3,
                                                   n=32, seed=i,
                                                   request_id=f"q{i}")
                        t = threading.Thread(
                            target=lambda r=req: client.submit_request(r))
                        t.start()
                        threads.append(t)
                        time.sleep(0.2)
                    with pytest.raises(ServiceUnavailable) as exc:
                        client.submit("lr_sorting", runs=3, n=32, seed=3)
                    assert exc.value.kind == "busy"
                    assert exc.value.retry_after > 0
                    assert exc.value.queue_depth == 1
                    rejections = registry_.counter(
                        "repro_service_admission_rejections_total").value()
                    assert rejections == 1
                    assert registry_.gauge(
                        "repro_service_queue_depth").value() >= 0
                finally:
                    release.set()
                    for t in threads:
                        t.join(timeout=30.0)

    def test_round_robin_across_clients_under_load(self, tmp_path):
        journal_path = str(tmp_path / "svc.jsonl")
        with service(queue_limit=8, journal_path=journal_path) as (server, addr):
            release = _block_lane(server)
            alice = ServiceClient(addr, client_id="alice")
            bob = ServiceClient(addr, client_id="bob")
            order = [("alice", alice, "a1"), ("alice", alice, "a2"),
                     ("alice", alice, "a3"), ("bob", bob, "b1")]
            threads = []
            for i, (_, client, rid) in enumerate(order):
                req = client.build_request("lr_sorting", runs=2, n=24,
                                           seed=i, request_id=rid)
                t = threading.Thread(target=lambda r=req, c=client:
                                     c.submit_request(r))
                t.start()
                threads.append(t)
                time.sleep(0.1)  # deterministic admission order
            release.set()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        events = [json.loads(line) for line in open(journal_path)]
        started = [e["request_id"] for e in events if e["event"] == "batch_start"]
        # a1 goes straight in-flight; the rotation is over {a2, a3, b1},
        # so bob's singleton lands ahead of alice's backlog tail.  A FIFO
        # would have produced a1, a2, a3, b1.
        assert started == ["a1", "a2", "b1", "a3"]


class TestRobustConnections:
    def test_slow_loris_is_cut_at_io_deadline(self):
        with service(io_timeout=0.3) as (server, addr):
            payload = encode_message({"id": "loris", "task": "planarity"})
            frame = struct.pack(">cI", OP_REQUEST, len(payload)) + payload
            sock = socket.create_connection(addr, timeout=10.0)
            sock.sendall(frame[: len(frame) // 2])
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # server cut the stalled connection
            sock.close()
            # and the server still serves honest clients afterwards
            client = ServiceClient(addr, client_id="t")
            res = client.submit("lr_sorting", runs=2, n=24, seed=1)
            assert res.ok

    def test_oversized_frame_is_a_typed_wire_error(self):
        with service() as (server, addr):
            sock = socket.create_connection(addr, timeout=10.0)
            sock.sendall(struct.pack(">cI", OP_REQUEST, 2 * 1024**3))
            op, payload = recv_frame(sock, known_ops=SERVICE_OPS)
            assert op == OP_FAIL
            message = json.loads(payload.decode("utf-8"))
            assert message["fault"] == "wire-error"
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # connection closed after the FAIL
            sock.close()
            assert server.stats["wire_errors"] == 1

    def test_malformed_json_request_is_bad_request(self):
        with service() as (server, addr):
            sock = socket.create_connection(addr, timeout=10.0)
            send_frame(sock, OP_REQUEST, b"\xff not json")
            op, payload = recv_frame(sock, known_ops=SERVICE_OPS)
            assert op == OP_FAIL
            assert json.loads(payload.decode("utf-8"))["fault"] == "bad-request"
            sock.close()


class TestDrain:
    def test_drain_rejects_new_work_with_typed_frame(self):
        server = ProofServer()
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.wait_ready(10.0)
        addr = (server.host, server.bound_port)
        client = ServiceClient(addr, client_id="t")
        assert client.submit("lr_sorting", runs=2, n=24, seed=1).ok
        server.request_drain()
        deadline = time.monotonic() + 5.0
        rejected = False
        # short timeout: a connection racing the listener close can land
        # in the kernel backlog and never be served
        prober = ServiceClient(addr, client_id="t", timeout=1.0)
        while time.monotonic() < deadline and not rejected:
            try:
                prober.submit("lr_sorting", runs=2, n=24, seed=2)
                time.sleep(0.02)  # drain not begun yet; the server ran it
            except ServiceUnavailable as exc:
                assert exc.kind == "draining"
                rejected = True
            except (ConnectionError, OSError):
                break  # listener already gone: drain completed
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert server.drain_duration is not None

    def test_drain_completes_queued_requests(self):
        with service(queue_limit=8) as (server, addr):
            release = _block_lane(server)
            client = ServiceClient(addr, client_id="t")
            reqs = [client.build_request("lr_sorting", runs=2, n=24, seed=i,
                                         request_id=f"drainq-{i}")
                    for i in range(3)]
            outcomes = {}
            threads = [
                threading.Thread(
                    target=lambda r=r: outcomes.update(
                        {r["id"]: client.submit_request(r)}))
                for r in reqs
            ]
            for t in threads:
                t.start()
            time.sleep(0.3)
            server.request_drain()  # queued work must still complete
            release.set()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        assert len(outcomes) == 3
        for i, r in enumerate(reqs):
            ref = _reference("lr_sorting", runs=2, n=24, seed=i)
            assert outcomes[r["id"]].canonical_json() == ref.canonical_json()

    def test_forced_drain_fails_queued_requests_typed(self):
        with service(queue_limit=8, drain_timeout=0.2) as (server, addr):
            release = _block_lane(server)
            client = ServiceClient(addr, client_id="t")
            outcome = {}

            def _submit(rid, seed):
                req = client.build_request("lr_sorting", runs=2, n=24,
                                           seed=seed, request_id=rid)
                try:
                    outcome[rid] = client.submit_request(req)
                except RequestFailed as exc:
                    outcome[rid] = exc.fault

            # first request goes in-flight (lane-blocked); second stays
            # queued behind it and is what the watchdog reaps
            threads = [threading.Thread(target=_submit, args=("inflight", 1)),
                       threading.Thread(target=_submit, args=("doomed", 2))]
            threads[0].start()
            time.sleep(0.2)
            threads[1].start()
            time.sleep(0.2)
            server.request_drain()
            time.sleep(0.6)  # watchdog fires while the lane stays blocked
            release.set()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        assert outcome["doomed"] == "drained"
        assert outcome["inflight"].ok  # in-flight work still completed


class TestJournalPartition:
    """Satellite 3: the server-wide journal of N concurrent requests
    partitions exactly into N per-request event streams, each equal to
    the standalone one-shot journal for that request's parameters and
    internally ordered by run index."""

    @staticmethod
    def _standalone_events(params):
        from repro.obs.journal import Journal

        spec = registry.get_task(params["task"])
        journal = Journal()
        run_batch(
            spec.protocol(c=2), spec.yes_factory,
            n_runs=params["runs"], n=params["n"], seed=params["seed"],
            journal=journal,
        )
        return journal.events

    def _run_property(self, specs, tmp_path_factory):
        from repro.analysis.trace_report import aggregate_journal
        from repro.obs.journal import Journal, strip_timing

        journal_path = str(tmp_path_factory() / "svc.jsonl")
        with service(queue_limit=32, journal_path=journal_path) as (server, addr):
            clients = [
                ServiceClient(addr, client_id=f"c{i}")
                for i in range(len(specs))
            ]
            threads = [
                threading.Thread(
                    target=lambda c=c, p=p: c.submit("lr_sorting", **p))
                for c, p in zip(clients, specs)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
        events = Journal.read_jsonl(journal_path)
        # exact partition: every event carries a request_id, the ids seen
        # are exactly the ids submitted, nothing left over
        assert all("request_id" in e for e in events)
        by_request = {}
        for e in events:
            by_request.setdefault(e["request_id"], []).append(e)
        assert len(by_request) == len(specs)
        assert sum(len(v) for v in by_request.values()) == len(events)
        matched = set()
        for rid, stream in by_request.items():
            params = next(
                p for c, p in zip(clients, specs)
                if rid.startswith("lr_sorting-") and
                json.dumps(p, sort_keys=True) not in matched and
                self._matches(stream, p)
            )
            matched.add(json.dumps(params, sort_keys=True))
            reference = self._standalone_events(dict(params, task="lr_sorting"))
            got = [
                {k: v for k, v in strip_timing(e).items() if k != "request_id"}
                for e in stream
            ]
            want = [strip_timing(e) for e in reference]
            assert got == want
            # run-index order within the stream
            indices = [e["run_index"] for e in stream if e["event"] == "run_start"]
            assert indices == sorted(indices)
            # trace aggregation works per-stream
            agg = aggregate_journal(stream)
            assert set(agg) == {"lr-sorting"}
            assert agg["lr-sorting"].n_runs == params["runs"]

    @staticmethod
    def _matches(stream, params):
        head = stream[0]
        return (head["event"] == "batch_start"
                and head["n"] == params["n"]
                and head["n_runs"] == params["runs"]
                and head["seed"] == params["seed"])

    @pytest.mark.parametrize("count", [2, 3])
    def test_fixed_partitions(self, count, tmp_path):
        specs = [{"runs": 2 + i % 2, "n": (16, 24)[i % 2], "seed": 10 + i}
                 for i in range(count)]
        self._run_property(specs, lambda: tmp_path)

    def test_partition_property(self, tmp_path):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        spec_st = st.fixed_dictionaries({
            "runs": st.integers(min_value=1, max_value=3),
            "n": st.sampled_from([16, 24]),
            "seed": st.integers(min_value=0, max_value=999),
        })
        counter = {"i": 0}

        def fresh_dir():
            counter["i"] += 1
            d = tmp_path / f"case{counter['i']}"
            d.mkdir()
            return d

        @settings(max_examples=5, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(specs=st.lists(spec_st, min_size=1, max_size=3,
                              unique_by=lambda s: (s["seed"], s["runs"], s["n"])))
        def run(specs):
            self._run_property(specs, fresh_dir)

        run()


class TestCLI:
    """``repro submit`` exit codes, driven in-process via cli.main."""

    @staticmethod
    def _submit(addr, *extra):
        from repro.cli import main

        return main(["submit", *extra, "--connect", f"{addr[0]}:{addr[1]}"])

    def test_submit_ok_is_zero(self, capsys):
        with service() as (server, addr):
            rc = self._submit(addr, "lr_sorting", "--runs", "2", "--n", "24")
        assert rc == 0
        out = capsys.readouterr().out
        assert "lr-sorting" in out and "accept" in out

    def test_submit_json_artifact(self, tmp_path, capsys):
        artifact = str(tmp_path / "result.json")
        with service() as (server, addr):
            rc = self._submit(addr, "lr_sorting", "--runs", "2", "--n", "24",
                              "--seed", "3", "--json", artifact)
        assert rc == 0
        payload = json.loads(open(artifact).read())
        assert payload["ok"] is True
        assert payload["request"]["task"] == "lr_sorting"
        assert len(payload["report"]["records"]) == 2
        assert payload["events"] == []
        assert payload["ack_status"] == "queued"

    def test_submit_stream_saves_events(self, tmp_path, capsys):
        streamed = str(tmp_path / "s.json")
        plain = str(tmp_path / "p.json")
        with service() as (server, addr):
            args = ("lr_sorting", "--runs", "3", "--n", "16", "--seed", "5")
            assert self._submit(addr, *args, "--stream", "--json", streamed) == 0
            assert "events:" in capsys.readouterr().out
            assert self._submit(addr, *args, "--request-id", "plain",
                                "--json", plain) == 0
        s_payload = json.loads(open(streamed).read())
        p_payload = json.loads(open(plain).read())
        kinds = [e["event"] for e in s_payload["events"]]
        assert kinds[0] == "batch_start" and kinds[-1] == "batch_end"
        runs = [e["run_index"] for e in s_payload["events"]
                if e["event"] == "trace_summary"]
        assert runs == [0, 1, 2]
        assert p_payload["events"] == []
        assert p_payload["report"] == s_payload["report"]

    def test_stream_after_plain_submit_gets_events(self, tmp_path, capsys):
        """A streamed request's default id is its own, so ``--stream``
        after a plain submit of the same parameters runs and streams."""
        artifact = str(tmp_path / "s.json")
        with service() as (server, addr):
            args = ("lr_sorting", "--runs", "2", "--n", "16", "--seed", "6")
            assert self._submit(addr, *args) == 0
            capsys.readouterr()
            assert self._submit(addr, *args, "--stream", "--json", artifact) == 0
        out = capsys.readouterr().out
        assert "replayed" not in out
        with open(artifact) as f:
            payload = json.load(f)
        assert payload["ack_status"] == "queued"
        kinds = [e["event"] for e in payload["events"]]
        assert kinds[0] == "batch_start" and kinds[-1] == "batch_end"
        # the plain default id is unchanged; the streamed one differs
        plain = ServiceClient(addr).build_request("lr_sorting", runs=2, n=16, seed=6)
        assert plain["id"] == "lr_sorting-6-bb67dab01496a67e"
        assert payload["request"]["id"] == "lr_sorting-6-stream-bb67dab01496a67e"

    def test_stream_after_plain_submit_says_it_replayed(self, tmp_path, capsys):
        """A ``--stream`` submit whose id names a finished plain job
        replays that job: no events, and the CLI says why."""
        artifact = str(tmp_path / "s.json")
        with service() as (server, addr):
            args = ("lr_sorting", "--runs", "2", "--n", "16", "--seed", "6",
                    "--request-id", "once")
            assert self._submit(addr, *args) == 0
            capsys.readouterr()
            assert self._submit(addr, *args, "--stream", "--json", artifact) == 0
        out = capsys.readouterr().out
        assert "events:      0 streamed" in out
        assert "replayed an earlier unstreamed run" in out
        assert "--request-id" in out
        with open(artifact) as f:
            payload = json.load(f)
        assert payload["ack_status"] == "replay"
        assert payload["events"] == []

    def test_submit_unknown_task_is_one(self, capsys):
        with service() as (server, addr):
            rc = self._submit(addr, "no_such_task", "--runs", "2")
        assert rc == 1
        assert "bad-request" in capsys.readouterr().out

    def test_submit_unreachable_is_two(self, capsys):
        # a bound-then-closed port: nothing listens there
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        from repro.cli import main

        rc = main(["submit", "lr_sorting", "--connect", f"127.0.0.1:{port}"])
        assert rc == 2
        assert "cannot reach service" in capsys.readouterr().out

    def test_submit_busy_is_three(self, capsys):
        with service(queue_limit=1) as (server, addr):
            release = _block_lane(server)
            threads = []
            try:
                client = ServiceClient(addr, client_id="filler")
                for i in (1, 2):
                    req = client.build_request("lr_sorting", runs=2, n=24,
                                               seed=i, request_id=f"fill{i}")
                    t = threading.Thread(
                        target=lambda r=req: client.submit_request(r))
                    t.start()
                    threads.append(t)
                    time.sleep(0.2)
                rc = self._submit(addr, "lr_sorting", "--runs", "2",
                                  "--n", "24", "--seed", "9")
                assert rc == 3
                assert "service busy" in capsys.readouterr().out
            finally:
                release.set()
                for t in threads:
                    t.join(timeout=30.0)


class TestServeSigterm:
    def test_sigterm_drains_in_flight_and_exits_zero(self, tmp_path):
        """End-to-end operator path: ``repro serve`` under SIGTERM finishes
        the in-flight request, flushes the journal, and exits 0."""
        import os as _os
        import signal
        import subprocess
        import sys

        journal_path = str(tmp_path / "serve.jsonl")
        env = dict(_os.environ)
        src = _os.path.join(
            _os.path.dirname(_os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + _os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--journal", journal_path],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "proof server listening on" in line, line
            host_port = line.split("listening on", 1)[1].split()[0]
            host, port = host_port.rsplit(":", 1)
            addr = (host, int(port))

            client = ServiceClient(addr, client_id="op")
            req = client.build_request("lr_sorting", runs=120, n=32, seed=4,
                                       request_id="mid-stream")
            with socket.create_connection(addr, timeout=60.0) as sock:
                send_frame(sock, OP_REQUEST, encode_message(req))
                # the ACK means admitted: the idle lane starts it at once
                op, _ = recv_frame(sock, known_ops=SERVICE_OPS)
                assert op == OP_ACK
                # no terminal frame yet: the request (tens of ms of work at
                # least) is still executing when SIGTERM lands
                sock.setblocking(False)
                with pytest.raises(BlockingIOError):
                    sock.recv(1, socket.MSG_PEEK)
                proc.send_signal(signal.SIGTERM)
                sock.settimeout(60.0)
                res = client._read_outcome(sock, req["id"])
            rc = proc.wait(timeout=60.0)
            out = proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            proc.stdout.close()
        assert rc == 0, out
        assert "drained clean" in out
        # the in-flight request completed, byte-identical to one-shot
        ref = _reference("lr_sorting", runs=120, n=32, seed=4)
        assert res.canonical_json() == ref.canonical_json()
        # the journal was flushed, tagged with the request id
        from repro.obs.journal import Journal

        events = Journal.read_jsonl(journal_path)
        assert events and all(
            e["request_id"] == "mid-stream" for e in events)
        assert events[-1]["event"] == "batch_end"
