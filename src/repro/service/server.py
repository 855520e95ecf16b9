"""Certification-as-a-service: the asyncio proof server.

``ProofServer`` accepts certification requests over the service wire
protocol (:mod:`repro.service.wire`), executes them on a **warm**
execution backend (serial / process pool / remote workers via
``resolve_backend``) with a process-local :class:`InstanceCache` kept
hot across requests, and streams each request's journal events plus a
canonical report back to the client.

Correctness invariant (the reason this file can exist at all): a
completed request's canonical report is **byte-identical** to the same
``(task, n, runs, seed, ...)`` executed through the one-shot CLI — the
canonical payload is a pure function of the request, never of the
serving layer, its cache state, or its concurrency.

Robustness model:

* **Admission control.**  A bounded :class:`FairQueue`; past the bound
  the server answers BUSY with a Retry-After hint derived from an EWMA
  of recent request durations — explicit backpressure instead of
  unbounded buffering.
* **Fairness.**  Round-robin across client queues; one flooding client
  cannot starve the rest.
* **Per-request resilience.**  Each request picks its own
  ``failure_policy`` / ``run_timeout`` / ``max_retries``, mapped onto
  the PR-3 resilience machinery; failures come back as typed FAIL
  frames, never as dropped connections.  (Serial execution happens off
  the main thread, where ``SIGALRM`` deadlines are unavailable —
  ``run_timeout`` is enforced in pool/remote workers, and the degrade
  and retry policies work everywhere.)  A killed pool worker is rebuilt
  by the resilience layer without touching the queue.
* **Idempotency.**  Request ids are the retry identity: a client that
  resends an id gets the stored result replayed (done), or is attached
  as a subscriber (queued/running) — never a second execution.  A
  resend whose parameters disagree with the stored id is a typed
  ``id-conflict`` FAIL.
* **Graceful drain.**  ``request_drain()`` (wired to SIGTERM by the
  CLI) stops admission — new requests get a typed DRAIN frame — then
  finishes in-flight *and* queued work, flushes the journal, and exits
  0.  Past ``drain_timeout``, still-queued requests are failed with a
  typed ``drained`` frame rather than silently leaked.

Execution is serialised on a one-thread "lane": the live churn states
(each target's working graph, epoch and label signatures) are private
to the lane thread, so one batch at a time is what keeps them
consistent without locks.  Per-run state needs no such care: a run's
tap and tracer live in its own run context.  Concurrency lives in the
serving layer; parallelism inside a request comes from its backend.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Set, Tuple

from ..obs import metrics as obs_metrics
from ..obs.journal import Journal
from ..runtime.cache import CachedFactory, InstanceCache
from ..runtime.faults import FaultPlan
from ..runtime.remote import WireError
from .queue import FairQueue
from .wire import (
    DEFAULT_MAX_FRAME_BYTES,
    OP_ACK,
    OP_BUSY,
    OP_BYE,
    OP_DRAIN,
    OP_EVENT,
    OP_FAIL,
    OP_REQUEST,
    OP_RESULT,
    encode_message,
    request_key,
    service_frame_buffer,
    validate_request,
)

Frame = Tuple[bytes, Dict[str, Any]]


def _epoch_payload(
    epoch: int, op: str, u: int, v: int, m: int, expected: bool,
    result, labels_changed: int, wire_bits_changed: int,
) -> Dict[str, Any]:
    """One epoch as JSON — field-for-field the driver's canonical record."""
    return {
        "epoch": epoch,
        "op": op,
        "u": u,
        "v": v,
        "m": m,
        "expected": expected,
        "accepted": result.accepted,
        "sound": result.accepted == expected,
        "labels_changed": labels_changed,
        "wire_bits_changed": wire_bits_changed,
        "proof_size_bits": result.proof_size_bits,
    }


class _DynamicState:
    """One long-lived dynamic instance: the churn state behind a target id."""

    __slots__ = ("spec", "graph", "epoch", "prev_sigs")

    def __init__(self, spec, graph, epoch, prev_sigs):
        self.spec = spec  # ChurnCampaignSpec identity of the instance
        self.graph = graph  # current working graph (lane-thread private)
        self.epoch = epoch  # last certified epoch index (0 = init proof)
        # per-node hash multisets of that epoch's packed label rows; they
        # key on interned schema identity, so they stay in this process
        self.prev_sigs = prev_sigs


class _Job:
    """One admitted request and everything the server knows about it."""

    __slots__ = ("id", "request", "key", "state", "frames", "events", "subscribers")

    def __init__(self, request: Dict[str, Any]):
        self.id: str = request["id"]
        self.request = request
        self.key = request_key(request)
        self.state = "queued"  # queued -> running -> done
        self.frames: List[Frame] = []  # EVENT* + (RESULT | FAIL), once done
        self.events: List[Dict[str, Any]] = []
        self.subscribers: Set[asyncio.StreamWriter] = set()


class ProofServer:
    """A fault-tolerant async certification server (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backend: Any = "serial",
        workers: int = 0,
        queue_limit: int = 16,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        io_timeout: float = 10.0,
        drain_timeout: float = 30.0,
        journal_path: Optional[str] = None,
        completed_cache: int = 256,
        instance_cache_size: int = 4096,
        dynamic_cache: int = 64,
    ):
        self.host = host
        self.port = port
        self.backend_spec = backend
        self.workers = workers
        self.queue_limit = queue_limit
        self.max_frame_bytes = max_frame_bytes
        #: read deadline applied only while a *partial* frame is pending —
        #: an idle keep-alive connection may sit quietly forever, but a
        #: slow-loris drip feeding one frame byte at a time is cut off
        self.io_timeout = io_timeout
        self.drain_timeout = drain_timeout
        self.journal_path = journal_path

        self.bound_port: Optional[int] = None
        self._ready = threading.Event()
        self._queue = FairQueue(queue_limit)
        #: request id -> job, completed jobs bounded LRU-style
        self._jobs: "OrderedDict[str, _Job]" = OrderedDict()
        self._completed_cache = completed_cache
        self._instance_cache = InstanceCache(maxsize=instance_cache_size)
        self._cached_factories: Dict[Tuple[str, str], CachedFactory] = {}
        #: target request id -> live churn state (graph, epoch, signatures),
        #: LRU-bounded; only the lane thread ever touches the states
        self._dynamic: "OrderedDict[str, _DynamicState]" = OrderedDict()
        self._dynamic_cache = dynamic_cache
        self._backend = None
        self._lane = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-lane"
        )
        self._journal: Optional[Journal] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._conn_writers: Set[asyncio.StreamWriter] = set()
        self._draining = False
        self._drain_started: Optional[float] = None
        self.drain_duration: Optional[float] = None
        self._inflight: Optional[_Job] = None
        self._ewma_request_s = 0.1  # Retry-After prior before any sample
        self.stats = {
            "completed": 0,
            "failed": 0,
            "replayed": 0,
            "attached": 0,
            "rejected_busy": 0,
            "rejected_drain": 0,
            "wire_errors": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block (another thread) until the listener is bound."""
        return self._ready.wait(timeout)

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.bound_port if self.bound_port else self.port)

    def request_drain(self) -> None:
        """Begin a graceful drain; safe to call from any thread or signal."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._begin_drain)

    def run(self, *, install_signal_handlers: bool = False) -> int:
        """Serve until drained; returns the process exit status (0 = clean)."""
        return asyncio.run(self._main(install_signal_handlers))

    async def _main(self, install_signal_handlers: bool) -> int:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        if self._backend is None:
            self._backend = self._resolve_backend()
        if self.journal_path is not None:
            self._journal = Journal(self.journal_path)
        server = await asyncio.start_server(self._handle_conn, self.host, self.port)
        self.bound_port = server.sockets[0].getsockname()[1]
        if install_signal_handlers:
            import signal

            for sig in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(sig, self._begin_drain)
        self._ready.set()
        try:
            await self._dispatch_loop()
        finally:
            # listener stays open through the drain so late clients get a
            # typed DRAIN frame instead of a connection refusal
            server.close()
            await server.wait_closed()
            for writer in list(self._conn_writers):
                self._close_writer(writer)
            if self._journal is not None:
                self._journal.close()
            backend, self._backend = self._backend, None
            if backend is not None:
                backend.close()
            self._lane.shutdown(wait=True)
            if self._drain_started is not None:
                self.drain_duration = time.monotonic() - self._drain_started
                obs_metrics.observe(
                    "repro_service_drain_seconds",
                    self.drain_duration,
                    help="graceful drain duration",
                    buckets=(0.1, 0.5, 1.0, 5.0, 15.0, 60.0),
                )
        return 0

    def _resolve_backend(self):
        from ..runtime.backends import ExecutionBackend, resolve_backend

        if isinstance(self.backend_spec, ExecutionBackend):
            return self.backend_spec
        return resolve_backend(self.backend_spec, workers=self.workers)

    # -- drain -------------------------------------------------------------

    def _begin_drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        self._drain_started = time.monotonic()
        assert self._loop is not None and self._wake is not None
        self._loop.create_task(self._drain_watchdog())
        self._wake.set()

    async def _drain_watchdog(self) -> None:
        """Past the drain deadline, fail queued jobs instead of leaking them."""
        await asyncio.sleep(self.drain_timeout)
        for job in self._queue.drain_all():
            self._finish(
                job,
                [self._fail_frame(job.id, "drained",
                                  "server drained before this request ran")],
                ok=False,
            )
        assert self._wake is not None
        self._wake.set()

    # -- dispatcher --------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._loop is not None and self._wake is not None
        while True:
            job = self._queue.next()
            self._update_gauges()
            if job is None:
                if self._draining:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            job.state = "running"
            self._inflight = job
            self._update_gauges()
            started = time.monotonic()
            try:
                frames, ok = await self._loop.run_in_executor(
                    self._lane, self._execute, job
                )
            except Exception as exc:  # the lane never raises by design; belt
                frames, ok = [self._fail_frame(job.id, "execution-error", repr(exc))], False
            duration = time.monotonic() - started
            self._ewma_request_s = 0.3 * duration + 0.7 * self._ewma_request_s
            obs_metrics.observe(
                "repro_service_request_seconds", duration,
                help="request service time",
                buckets=(0.01, 0.05, 0.25, 1.0, 5.0, 30.0),
            )
            self._inflight = None
            self._finish(job, frames, ok=ok)

    def _update_gauges(self) -> None:
        obs_metrics.set_gauge(
            "repro_service_queue_depth", self._queue.depth(),
            help="requests admitted but not yet running",
        )
        obs_metrics.set_gauge(
            "repro_service_inflight", 1 if self._inflight is not None else 0,
            help="requests currently executing",
        )

    def retry_after_hint(self) -> float:
        """Seconds a BUSY client should wait: queue ahead of it x EWMA."""
        return round(max(0.05, (self._queue.depth() + 1) * self._ewma_request_s), 3)

    # -- execution (lane thread) -------------------------------------------

    def _cached_factory(self, task: str, kind: str, factory) -> CachedFactory:
        key = (task, kind)
        wrapped = self._cached_factories.get(key)
        if wrapped is None:
            # CachedFactory.build_seeded(n, s) == factory(n, Random(s)),
            # so serving from the warm cache preserves CLI byte-identity
            wrapped = CachedFactory(f"{task}:{kind}", factory, cache=self._instance_cache)
            self._cached_factories[key] = wrapped
        return wrapped

    def _execute(self, job: _Job) -> Tuple[List[Frame], bool]:
        """Run one request on the warm backend -> (frames, cli_ok)."""
        from ..analysis.experiments import run_batch
        from ..runtime import registry

        req = job.request
        if req.get("kind") == "update":
            try:
                return self._execute_update(job)
            except Exception as exc:  # defensive: an update bug must not
                return [  # take down the lane
                    self._fail_frame(job.id, "execution-error", repr(exc))
                ], False
        try:
            spec = registry.get_task(req["task"])
        except KeyError as exc:
            return [self._fail_frame(job.id, "bad-request", exc.args[0])], False
        if req["no_instance"] or req["adversary"]:
            factory = spec.no_factory if req["no_instance"] else spec.yes_factory
            if factory is None:
                return [
                    self._fail_frame(
                        job.id, "bad-request",
                        f"no built-in no-instance generator for {req['task']}",
                    )
                ], False
            expect_accept = False
        else:
            factory = spec.yes_factory
            expect_accept = True
        kind = "no" if req["no_instance"] else "yes"
        factory = self._cached_factory(req["task"], kind, factory)
        prover_factory = None
        if req["adversary"]:
            prover_factory = spec.adversaries.get(req["adversary"])
            if prover_factory is None:
                return [
                    self._fail_frame(
                        job.id, "bad-request",
                        f"unknown adversary {req['adversary']!r} for {req['task']}; "
                        f"choose from {sorted(spec.adversaries)}",
                    )
                ], False
        fault_plan = None
        if req["inject_faults"]:
            try:
                fault_plan = FaultPlan.from_spec(req["inject_faults"])
            except ValueError as exc:
                return [
                    self._fail_frame(job.id, "bad-request",
                                     f"bad inject_faults spec: {exc}")
                ], False
        journal = Journal()  # in-memory; events stream back per request
        try:
            report = run_batch(
                spec.protocol(c=req["c"]),
                factory,
                n_runs=req["runs"],
                n=req["n"],
                seed=req["seed"],
                prover_factory=prover_factory,
                failure_policy=req["failure_policy"],
                run_timeout=req["run_timeout"],
                max_retries=req["max_retries"],
                fault_plan=fault_plan,
                journal=journal,
                backend=self._backend,
            )
        except ValueError as exc:
            return [self._fail_frame(job.id, "bad-request", str(exc))], False
        except Exception as exc:
            from ..runtime.resilience import RetryExhaustedError

            fault = (
                "retry-exhausted"
                if isinstance(exc, RetryExhaustedError)
                else "execution-error"
            )
            return [self._fail_frame(job.id, fault, str(exc))], False
        job.events = list(journal.events)
        frames: List[Frame] = []
        if req["stream"]:
            frames.extend(
                (OP_EVENT, {"id": job.id, "event": event}) for event in job.events
            )
        ok = report.acceptance_rate == 1.0 if expect_accept else True
        frames.append(
            (
                OP_RESULT,
                {
                    "id": job.id,
                    "report": report.canonical_dict(),
                    "summary": report.summary(),
                    "ok": ok,
                    "expect_accept": expect_accept,
                    "degraded": bool(report.failures),
                    "failures": [rec.as_dict() for rec in report.failures],
                    "meta": {
                        "backend": report.meta.get("backend"),
                        "failure_policy": report.failure_policy,
                        "wall_clock_total": report.wall_clock_total,
                        "cache_stats": self._instance_cache.stats(),
                    },
                },
            )
        )
        return frames, ok

    def _execute_update(self, job: _Job) -> Tuple[List[Frame], bool]:
        """Apply one UPDATE batch to a long-lived dynamic instance.

        The target is an earlier *certify* request id whose ``(task, n,
        seed, c)`` pin the instance identity.  The first UPDATE against a
        target checks the pristine instance out of the warm cache (a deep
        copy — the cache stays uncorrupted), certifies the init epoch,
        then applies the updates; later UPDATEs continue from the stored
        epoch counter, so a client replaying the shared seeded stream in
        slices reproduces the local driver's campaign byte-for-byte.
        Updates are validated against a scratch copy first: a bad update
        (duplicate insert, missing delete, out-of-range endpoint) is a
        typed FAIL and leaves the state untouched.
        """
        from ..dynamic.driver import (
            ChurnCampaignSpec,
            diff_signatures,
            epoch_rng,
            initial_graph,
            node_signatures,
        )
        from ..dynamic.updates import DYNAMIC_TASKS, update_from_tuple
        from ..runtime import registry

        req = job.request
        target = self._jobs.get(req["target"])
        if target is None or target.request.get("kind") == "update":
            return [
                self._fail_frame(
                    job.id, "unknown-target",
                    f"no certify request {req['target']!r} on this server",
                )
            ], False
        treq = target.request
        if treq["no_instance"] or treq["adversary"]:
            return [
                self._fail_frame(
                    job.id, "bad-request",
                    "dynamic targets must be honest yes-instance requests",
                )
            ], False
        task = registry.canonical_name(treq["task"])
        task_spec = registry.get_task(task) if task in registry.task_names() else None
        if task_spec is None or task not in DYNAMIC_TASKS or task_spec.instance_cls is None:
            return [
                self._fail_frame(
                    job.id, "bad-request",
                    f"task {treq['task']!r} does not support dynamic "
                    f"certification; choose from {sorted(DYNAMIC_TASKS)}",
                )
            ], False
        try:
            updates = [update_from_tuple(item) for item in req["updates"]]
        except ValueError as exc:
            return [self._fail_frame(job.id, "bad-request", str(exc))], False
        state = self._dynamic.get(req["target"])
        protocol = task_spec.protocol(c=treq["c"])
        records = []
        if state is None:
            spec = ChurnCampaignSpec(
                task=task, n=treq["n"], seed=treq["seed"], c=treq["c"]
            )
            factory = self._cached_factory(task, "yes", task_spec.yes_factory)
            graph = initial_graph(spec, factory=factory)
            result = protocol.execute(
                task_spec.instance_cls(graph.copy()),
                rng=epoch_rng(spec.seed, 0),
            )
            sigs = node_signatures(result)
            changed, bits = diff_signatures(None, sigs)
            records.append(
                _epoch_payload(0, "init", -1, -1, graph.m, True, result,
                               changed, bits)
            )
            state = _DynamicState(spec, graph, 0, sigs)
        # validate the whole batch on a scratch copy before committing
        scratch = state.graph.copy()
        for update in updates:
            try:
                update.apply(scratch)
            except (ValueError, KeyError) as exc:
                return [
                    self._fail_frame(
                        job.id, "bad-update",
                        f"update {update.as_tuple()!r} does not apply at "
                        f"epoch {state.epoch}: {exc}",
                    )
                ], False
        predicate = DYNAMIC_TASKS[task]
        spec = state.spec
        graph, epoch, prev = state.graph, state.epoch, state.prev_sigs
        for update in updates:
            update.apply(graph)
            epoch += 1
            expected = predicate(graph)
            result = protocol.execute(
                task_spec.instance_cls(graph.copy()),
                rng=epoch_rng(spec.seed, epoch),
            )
            sigs = node_signatures(result)
            changed, bits = diff_signatures(prev, sigs)
            records.append(
                _epoch_payload(epoch, update.op, update.u, update.v, graph.m,
                               expected, result, changed, bits)
            )
            prev = sigs
        state.epoch, state.prev_sigs = epoch, prev
        self._dynamic[req["target"]] = state
        self._dynamic.move_to_end(req["target"])
        while len(self._dynamic) > self._dynamic_cache:
            self._dynamic.popitem(last=False)
        job.events = [{"event": "epoch", **rec} for rec in records]
        obs_metrics.inc(
            "repro_dynamic_epochs_total", len(records),
            help="certified churn epochs", task=task, stream="service",
        )
        obs_metrics.inc(
            "repro_dynamic_unsound_epochs_total",
            sum(1 for rec in records if not rec["sound"]),
            help="epochs whose verdict disagreed with the predicate",
            task=task, stream="service",
        )
        frames: List[Frame] = []
        if req["stream"]:
            frames.extend(
                (OP_EVENT, {"id": job.id, "event": event}) for event in job.events
            )
        ok = all(rec["sound"] for rec in records)
        n_updates = sum(1 for rec in records if rec["op"] != "init")
        report = {
            "kind": "update",
            "target": req["target"],
            "task": task,
            "n": spec.n,
            "seed": spec.seed,
            "c": spec.c,
            "epochs": records,
        }
        frames.append(
            (
                OP_RESULT,
                {
                    "id": job.id,
                    "report": report,
                    "summary": (
                        f"{task} n={spec.n} seed={spec.seed}: epochs "
                        f"{records[0]['epoch']}..{epoch} "
                        f"({n_updates} updates), "
                        f"{'all sound' if ok else 'UNSOUND'}"
                    ),
                    "ok": ok,
                    "expect_accept": all(rec["expected"] for rec in records),
                    "degraded": False,
                    "failures": [],
                    "meta": {
                        "backend": "lane",
                        "failure_policy": "strict",
                        "wall_clock_total": None,
                        "cache_stats": self._instance_cache.stats(),
                        "epoch": epoch,
                    },
                },
            )
        )
        return frames, ok

    @staticmethod
    def _fail_frame(request_id: str, fault: str, error: str) -> Frame:
        return (OP_FAIL, {"id": request_id, "fault": fault, "error": error})

    # -- completion (loop thread) ------------------------------------------

    def _finish(self, job: _Job, frames: List[Frame], *, ok: bool) -> None:
        job.state = "done"
        job.frames = frames
        failed = frames[-1][0] == OP_FAIL
        self.stats["failed" if failed else "completed"] += 1
        obs_metrics.inc(
            "repro_service_requests_total",
            help="requests finished by terminal frame",
            status="fail" if failed else ("ok" if ok else "rejected"),
        )
        if self._journal is not None:
            for event in job.events:
                payload = {k: v for k, v in event.items() if k != "event"}
                self._journal.emit(event["event"], request_id=job.id, **payload)
        for writer in list(job.subscribers):
            self._send_frames(writer, frames)
        job.subscribers.clear()
        self._jobs[job.id] = job
        self._jobs.move_to_end(job.id)
        done = [jid for jid, j in self._jobs.items() if j.state == "done"]
        for jid in done[: max(0, len(done) - self._completed_cache)]:
            del self._jobs[jid]

    def _send_frames(self, writer: asyncio.StreamWriter, frames: List[Frame]) -> None:
        from ..runtime.remote import _encode_frame

        try:
            writer.write(
                b"".join(
                    _encode_frame(op, encode_message(payload),
                                  max_frame_bytes=self.max_frame_bytes)
                    for op, payload in frames
                )
            )
        except (ConnectionError, OSError, RuntimeError):
            self._close_writer(writer)

    def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        self._conn_writers.discard(writer)
        try:
            writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass

    # -- connection handling (loop thread) ---------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_writers.add(writer)
        buf = service_frame_buffer(self.max_frame_bytes)
        try:
            while True:
                timeout = self.io_timeout if buf.pending else None
                try:
                    data = await asyncio.wait_for(reader.read(1 << 16), timeout)
                except asyncio.TimeoutError:
                    # slow-loris: a partial frame stalled past the deadline
                    self.stats["wire_errors"] += 1
                    break
                except (ConnectionError, OSError):
                    break
                if not data:
                    break
                try:
                    frames = buf.feed(data)
                except WireError as exc:
                    self.stats["wire_errors"] += 1
                    self._send_frames(
                        writer, [self._fail_frame("", "wire-error", str(exc))]
                    )
                    break
                finished = False
                for op, payload in frames:
                    if op == OP_BYE:
                        finished = True
                        break
                    if op == OP_REQUEST:
                        self._handle_request(writer, payload)
                    # any other opcode from a client is ignored: the
                    # server never requests anything of its clients
                if finished:
                    break
                await self._drain_writer(writer)
        except asyncio.CancelledError:
            # server shutdown cancels connection tasks; not an error
            pass
        finally:
            for job in self._jobs.values():
                job.subscribers.discard(writer)
            self._close_writer(writer)

    async def _drain_writer(self, writer: asyncio.StreamWriter) -> None:
        try:
            await writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            self._close_writer(writer)

    def _handle_request(self, writer: asyncio.StreamWriter, payload: bytes) -> None:
        from .wire import decode_message

        try:
            request = validate_request(decode_message(payload))
        except (WireError, ValueError) as exc:
            self.stats["wire_errors"] += 1
            self._send_frames(writer, [self._fail_frame("", "bad-request", str(exc))])
            return
        job = self._jobs.get(request["id"])
        if job is not None:
            if job.key != request_key(request):
                self._send_frames(
                    writer,
                    [
                        self._fail_frame(
                            request["id"], "id-conflict",
                            "request id already used with different parameters",
                        )
                    ],
                )
                return
            if job.state == "done":
                self.stats["replayed"] += 1
                self._send_frames(
                    writer,
                    [(OP_ACK, {"id": job.id, "status": "replay", "position": 0})]
                    + job.frames,
                )
            else:
                self.stats["attached"] += 1
                job.subscribers.add(writer)
                self._send_frames(
                    writer,
                    [(OP_ACK, {"id": job.id, "status": "attached", "position": 0})],
                )
            return
        if self._draining:
            self.stats["rejected_drain"] += 1
            self._send_frames(
                writer, [(OP_DRAIN, {"id": request["id"], "error": "draining"})]
            )
            return
        job = _Job(request)
        position = self._queue.offer(request["client"], job)
        if position is None:
            self.stats["rejected_busy"] += 1
            obs_metrics.inc(
                "repro_service_admission_rejections_total",
                help="requests refused at admission (BUSY)",
            )
            self._send_frames(
                writer,
                [
                    (
                        OP_BUSY,
                        {
                            "id": request["id"],
                            "retry_after": self.retry_after_hint(),
                            "queue_depth": self._queue.depth(),
                        },
                    )
                ],
            )
            return
        self._jobs[job.id] = job
        job.subscribers.add(writer)
        self._send_frames(
            writer, [(OP_ACK, {"id": job.id, "status": "queued", "position": position})]
        )
        self._update_gauges()
        assert self._wake is not None
        self._wake.set()
