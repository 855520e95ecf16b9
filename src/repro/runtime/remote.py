"""Socket-dispatched remote workers: scale a batch past one box.

:class:`RemoteWorkerBackend` is an
:class:`~repro.runtime.backends.ExecutionBackend` that listens on a TCP
port; worker agents (``repro worker --connect host:port``, on any box
that reaches it) register, and it dispatches shards to whoever is
connected and idle, as the local pool does to its processes.

A shard names its batch by registry identity and the worker rebuilds
the batch spec with :func:`~repro.runtime.registry.resolve_batch`, the
mapping the proof server uses, so no code or object graph crosses the
socket.  :meth:`RemoteWorkerBackend.run` refuses a batch the registry
cannot name (a custom protocol, a non-default protocol parameter, an
unregistered factory or adversary) before any frame, with
:class:`~repro.runtime.registry.UnnamedBatchError`.

Wire protocol (version 2): frames are a one-byte opcode, a big-endian
uint32 payload length and a JSON payload, the proof service's codec::

    HELLO  "H"  worker -> coordinator  {version, pid}
    SHARD  "W"  coordinator -> worker  {shard, indices, attempts, run_timeout,
                                        batch: {task, c, no_instance, adversary,
                                                n, seed, faults, trace, cached}}
    RESULT "R"  worker -> coordinator  {shard, stats, outcomes: [a RunRecord's
                                        fields, or {index, fault, error,
                                        elapsed, traceback}]}
    BYE    "B"  either direction       empty

Every field is checked at its receiver: a frame that is not JSON, holds
a field of the wrong type, names what the registry lacks, or answers a
shard never sent raises :class:`WireError` / :class:`RemoteProtocolError`,
the peer is dropped, and no run executes for it.  A dropped or hung
worker's shard is lost: its runs are charged one attempt each, and the
shared ``_BatchExecution`` wave engine resubmits them under the
retry/degrade policies; seed streams are keyed by run index, so retried
runs match the serial reference byte for byte.  A failed run comes back
as its fault, error and traceback, never as an exception object.

:func:`serve_worker` is the agent loop; :class:`InProcessWorker` runs it
on a thread of this process for tests and benchmarks (kill faults
degrade to raises there).  Threaded workers need no lock: a run's tap
and tracer live in its thread's run context.
"""

from __future__ import annotations

import itertools
import json
import os
import selectors
import socket
import struct
import threading
import time
import traceback
from collections import deque
from contextlib import suppress
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from .backends import BatchResult, ExecutionBackend

PROTOCOL_VERSION = 2

_HEADER = struct.Struct(">cI")
HEADER_SIZE = _HEADER.size

OP_HELLO = b"H"
OP_SHARD = b"W"
OP_RESULT = b"R"
OP_BYE = b"B"

_KNOWN_OPS = frozenset((OP_HELLO, OP_SHARD, OP_RESULT, OP_BYE))

#: refuse frames past this size — a corrupt length prefix must fail fast,
#: not allocate gigabytes (the largest legitimate frame is a traced RESULT)
MAX_FRAME_BYTES = 1 << 30


class RemoteProtocolError(RuntimeError):
    """A peer spoke something that is not the repro worker protocol."""


class WireError(RemoteProtocolError):
    """A frame violated the wire layer itself (e.g. an oversized length
    prefix).  Subclasses :class:`RemoteProtocolError` so existing
    coordinator drop-paths keep working, but lets callers distinguish a
    hostile/corrupt byte stream from a well-formed protocol violation."""


def parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (IPv4/hostname form)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"bad address {text!r}: want host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"bad address {text!r}: port must be an integer")


def _encode_frame(
    op: bytes, payload: bytes = b"", *, max_frame_bytes: Optional[int] = None
) -> bytes:
    limit = MAX_FRAME_BYTES if max_frame_bytes is None else max_frame_bytes
    if len(payload) > limit:
        raise WireError(f"frame too large: {len(payload)} bytes (limit {limit})")
    return _HEADER.pack(op, len(payload)) + payload


def send_frame(
    sock: socket.socket,
    op: bytes,
    payload: bytes = b"",
    *,
    send_hook: Optional[Callable[[socket.socket, bytes], None]] = None,
) -> int:
    """Send one frame; returns bytes on the wire.  ``send_hook`` replaces
    ``sendall`` (test seam for dropping a connection mid-blob)."""
    data = _encode_frame(op, payload)
    if send_hook is not None:
        send_hook(sock, data)
    else:
        sock.sendall(data)
    return len(data)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, *, max_frame_bytes: Optional[int] = None,
    known_ops: Optional[frozenset] = None,
) -> Tuple[bytes, bytes]:
    """Blocking read of one complete frame -> ``(op, payload)``."""
    op, length = _parse_header(
        _recv_exact(sock, HEADER_SIZE),
        max_frame_bytes=max_frame_bytes,
        known_ops=known_ops,
    )
    return op, (_recv_exact(sock, length) if length else b"")


def _parse_header(
    header: bytes, *, max_frame_bytes: Optional[int] = None,
    known_ops: Optional[frozenset] = None,
) -> Tuple[bytes, int]:
    op, length = _HEADER.unpack(header)
    if op not in (_KNOWN_OPS if known_ops is None else known_ops):
        raise RemoteProtocolError(f"unknown opcode {op!r}")
    limit = MAX_FRAME_BYTES if max_frame_bytes is None else max_frame_bytes
    if length > limit:
        # reject on the declared length alone: a forged/corrupt prefix
        # must fail typed and fast, never reach the allocator
        raise WireError(f"frame too large: {length} bytes (limit {limit})")
    return op, length


class _FrameBuffer:
    """Incremental frame parser over a non-blocking byte stream."""

    def __init__(
        self, *, max_frame_bytes: Optional[int] = None,
        known_ops: Optional[frozenset] = None,
    ) -> None:
        self._buf = bytearray()
        self._max_frame_bytes = max_frame_bytes
        self._known_ops = known_ops

    @property
    def pending(self) -> int:
        """Bytes buffered toward a frame not yet complete (slow-loris tell)."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[Tuple[bytes, bytes]]:
        self._buf.extend(data)
        frames: List[Tuple[bytes, bytes]] = []
        while len(self._buf) >= HEADER_SIZE:
            op, length = _parse_header(
                bytes(self._buf[:HEADER_SIZE]),
                max_frame_bytes=self._max_frame_bytes,
                known_ops=self._known_ops,
            )
            end = HEADER_SIZE + length
            if len(self._buf) < end:
                break
            frames.append((op, bytes(self._buf[HEADER_SIZE:end])))
            del self._buf[:end]
        return frames


# ---------------------------------------------------------------------------
# the JSON codec and the frame schemas
# ---------------------------------------------------------------------------


def encode_message(obj: Dict[str, Any]) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_message(payload: bytes) -> Dict[str, Any]:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireError("frame payload must be a JSON object")
    return obj


_NULL, _INT, _NUM, _BOOL = type(None), (int,), (float, int), (bool,)
_NAME = (str, _NULL)
#: field -> accepted JSON types, for each part of a frame
_HELLO = {"version": _INT, "pid": _INT}
_BATCH = {"task": (str,), "c": _INT, "no_instance": _BOOL, "adversary": _NAME,
          "n": _INT, "seed": _INT, "faults": _NAME, "trace": _BOOL, "cached": _BOOL}
_SHARD = {"shard": _INT, "batch": (dict,), "indices": (list,), "attempts": (list,),
          "run_timeout": _NUM + (_NULL,)}
_RESULT = {"shard": _INT, "outcomes": (list,), "stats": (dict, _NULL)}
_STATS = {"hits": _INT, "misses": _INT}
#: a run that succeeded: the RunRecord fields
_RECORD = {"index": _INT, "accepted": _BOOL, "proof_size_bits": _INT, "n_rounds": _INT,
           "n_rejecting": _INT, "wall_time": _NUM, "extra": (dict, _NULL)}
_FAILURE = {"index": _INT, "fault": (str,), "error": (str,), "elapsed": _NUM,
            "traceback": _NAME}


def _fields(obj: Any, schema: Dict[str, tuple], what: str) -> List[Any]:
    """``obj``'s values in ``schema`` order, each of one of its types.

    ``obj`` must hold exactly the schema's keys.  A bool never passes for
    an int; an int passes for a float, and becomes one.
    """
    if not isinstance(obj, dict) or obj.keys() != schema.keys():
        raise RemoteProtocolError(f"{what}: want exactly the fields {sorted(schema)}")
    values = []
    for key, kinds in schema.items():
        value = obj[key]
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            raise RemoteProtocolError(
                f"{what}: field {key!r} may not be a {type(value).__name__}"
            )
        values.append(float(value) if float in kinds and type(value) is int else value)
    return values


def decode_hello(payload: bytes) -> Dict[str, Any]:
    """A worker's HELLO, refused unless it speaks :data:`PROTOCOL_VERSION`."""
    version, pid = _fields(decode_message(payload), _HELLO, "HELLO")
    if version != PROTOCOL_VERSION:
        raise RemoteProtocolError(f"HELLO speaks version {version}, not {PROTOCOL_VERSION}")
    return {"version": version, "pid": pid}


def decode_shard(payload: bytes):
    """A SHARD frame -> ``(shard_id, spec, indices, attempts, run_timeout)``.

    The batch spec is rebuilt from the frame's registry names; a name
    the registry lacks is a :class:`RemoteProtocolError`.
    """
    from .cache import CachedFactory
    from .registry import UnnamedBatchError, resolve_batch
    from .runner import _BatchSpec

    shard_id, batch, indices, attempts, run_timeout = _fields(
        decode_message(payload), _SHARD, "SHARD"
    )
    if not all(type(i) is int and i >= 0 for i in indices + attempts):
        raise RemoteProtocolError("SHARD: indices and attempts must be ints >= 0")
    if len(attempts) != len(indices) or not (run_timeout is None or run_timeout > 0):
        raise RemoteProtocolError("SHARD: want an attempt count per index, timeout > 0")
    task, c, no_instance, adversary, n, seed, faults, trace, cached = _fields(
        batch, _BATCH, "SHARD batch"
    )
    try:
        named = resolve_batch(
            task, no_instance=no_instance, adversary=adversary, inject_faults=faults
        )
    except UnnamedBatchError as exc:
        raise RemoteProtocolError(f"SHARD batch: {exc}") from None
    factory = named.factory
    if cached:
        factory = CachedFactory(f"{named.spec.name}:{named.kind}", factory)
    spec = _BatchSpec(named.spec.protocol(c=c), factory, named.prover_factory, n, seed,
                      fault_plan=named.fault_plan, trace=trace)
    return shard_id, spec, indices, dict(zip(indices, attempts)), run_timeout


def encode_result(shard_id: int, outcomes, stats: Optional[Dict[str, int]]) -> bytes:
    """A RESULT frame.  A failure's traceback is the worker's formatted
    one, or else that of the exception it kept (an in-thread agent)."""
    return encode_message({"shard": shard_id, "stats": stats, "outcomes": [
        vars(o.record) if o.record is not None else {
            "index": o.index, "fault": o.fault, "error": o.error,
            "elapsed": o.elapsed, "traceback": _traceback_of(o),
        } for o in outcomes
    ]})


def _traceback_of(outcome) -> Optional[str]:
    if outcome.worker_traceback is not None or outcome.exc is None:
        return outcome.worker_traceback
    exc = outcome.exc
    return "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))


def decode_result(payload: bytes, shard_id: int, indices: List[int]):
    """A RESULT answering shard ``shard_id`` -> ``(outcomes, stats)``.

    The frame must name that shard and answer exactly its runs, in order.
    """
    from .resilience import FAULT_LABELS, _RunOutcome
    from .runner import RunRecord

    got, raw, stats = _fields(decode_message(payload), _RESULT, "RESULT")
    if got != shard_id:
        raise RemoteProtocolError(f"RESULT for shard {got}; shard {shard_id} was sent")
    if stats is not None:
        stats = dict(zip(_STATS, _fields(stats, _STATS, "RESULT stats")))
    outcomes = []
    for obj in raw:
        if isinstance(obj, dict) and "fault" in obj:
            index, fault, error, elapsed, tb = _fields(obj, _FAILURE, "RESULT failure")
            if fault not in FAULT_LABELS:
                raise RemoteProtocolError(f"RESULT failure: unknown fault {fault!r}")
            outcomes.append(_RunOutcome(
                index, fault=fault, error=error, elapsed=elapsed, worker_traceback=tb
            ))
        else:
            record = RunRecord(**dict(zip(_RECORD, _fields(obj, _RECORD, "RESULT record"))))
            outcomes.append(_RunOutcome(record.index, record))
    if [o.index for o in outcomes] != indices:
        raise RemoteProtocolError(f"RESULT for shard {shard_id} must answer runs {indices}")
    return outcomes, stats


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------


class _WorkerConn:
    """Coordinator-side state of one connected worker."""

    def __init__(self, sock: socket.socket, max_frame_bytes: Optional[int]) -> None:
        self.sock = sock
        self.frames = _FrameBuffer(max_frame_bytes=max_frame_bytes)
        self.hello: Optional[Dict[str, Any]] = None
        self.shard: Optional[Tuple[int, List[int]]] = None  #: in flight
        self.deadline: Optional[float] = None  #: backstop for the shard

    @property
    def ready(self) -> bool:
        return self.hello is not None and self.shard is None


class RemoteWorkerBackend(ExecutionBackend):
    """Dispatch shards to socket-connected ``repro worker`` agents.

    The backend binds ``(host, port)`` at construction (``port=0`` picks
    an ephemeral port; read :attr:`address` before starting agents) and
    keeps the listener open across batches, so one set of agents can
    serve a whole campaign.  Workers may connect, drop, and reconnect at
    any time; ``min_workers`` must be registered before the first shard
    of a batch goes out.  Under ``strict`` the first failed run surfaces
    as a ``RuntimeError`` caused by the worker's traceback, and a lost
    worker aborts the batch, as a ``BrokenProcessPool`` does the pool's.
    """

    name = "remote"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        min_workers: int = 1,
        chunk_size: Optional[int] = None,
        accept_timeout: float = 30.0,
        max_frame_bytes: Optional[int] = None,
    ):
        super().__init__()
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.host = host
        self.min_workers = min_workers
        self.chunk_size = chunk_size
        self.accept_timeout = accept_timeout
        self.max_frame_bytes = max_frame_bytes
        self._listener = socket.create_server((host, port), backlog=16)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._conns: Dict[socket.socket, _WorkerConn] = {}
        self._shard_ids = itertools.count(1)
        self._closed = False

    # -- plumbing ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def connect_spec(self) -> str:
        """The ``host:port`` string agents pass to ``repro worker --connect``."""
        return f"{self.host}:{self.port}"

    def describe(self) -> Dict[str, Any]:
        return {"backend": self.name, "listen": self.connect_spec,
                "min_workers": self.min_workers}

    def workers_connected(self) -> int:
        return sum(1 for conn in self._conns.values() if conn.hello is not None)

    def close(self) -> None:
        """Wave the agents goodbye and release every socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in list(self._conns.values()):
            with suppress(OSError):
                send_frame(conn.sock, OP_BYE)
            self._drop(conn)
        with suppress(KeyError, ValueError):
            self._selector.unregister(self._listener)
        self._listener.close()
        self._selector.close()

    def _drop(self, conn: _WorkerConn) -> None:
        with suppress(KeyError, ValueError):
            self._selector.unregister(conn.sock)
        self._conns.pop(conn.sock, None)
        with suppress(OSError):
            conn.sock.close()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            conn = _WorkerConn(sock, self.max_frame_bytes)
            self._conns[sock] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _pump(self, timeout: float) -> List[Tuple[_WorkerConn, bytes, bytes]]:
        """One select round: accept joiners, read frames, detect drops.

        Returns complete ``(conn, op, payload)`` events; connections that
        died are reported as a synthetic ``BYE`` so callers have exactly
        one disconnect path.
        """
        events: List[Tuple[_WorkerConn, bytes, bytes]] = []
        for key, _ in self._selector.select(timeout):
            if key.fileobj is self._listener:
                self._accept()
                continue
            conn: _WorkerConn = key.data
            try:
                data = conn.sock.recv(1 << 20)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                data = b""
            if not data:
                self._drop(conn)
                events.append((conn, OP_BYE, b""))
                continue
            try:
                for op, payload in conn.frames.feed(data):
                    events.append((conn, op, payload))
            except RemoteProtocolError:
                self._drop(conn)
                events.append((conn, OP_BYE, b""))
        return events

    def _handle_hello(self, conn: _WorkerConn, payload: bytes) -> None:
        try:
            conn.hello = decode_hello(payload)
        except RemoteProtocolError:
            self._drop(conn)
            return
        obs_metrics.inc(
            "repro_remote_workers_joined_total",
            help="remote worker registrations accepted by a coordinator",
        )

    def _wait_for_workers(self, count: int) -> None:
        deadline = time.monotonic() + self.accept_timeout
        while self.workers_connected() < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"remote backend on {self.connect_spec}: only "
                    f"{self.workers_connected()} of {count} workers "
                    f"registered within {self.accept_timeout}s — start "
                    f"agents with `repro worker --connect {self.connect_spec}`"
                )
            for conn, op, payload in self._pump(min(remaining, 0.1)):
                if op == OP_HELLO:
                    self._handle_hello(conn, payload)

    # -- ExecutionBackend --------------------------------------------------

    def run(self, spec, n_runs, *, chunk_size=None, **knobs) -> BatchResult:
        from .registry import batch_identity
        from .resilience import _BatchExecution

        if self._closed:
            raise RuntimeError("remote backend is closed")
        batch = batch_identity(spec)  # a worker can only rebuild what has a name
        state = _BatchExecution(spec, n_runs, workers=self.min_workers,
                                chunk_size=chunk_size or self.chunk_size, **knobs)
        info: Dict[str, Any] = self.describe()
        info.update(shards_dispatched=0, worker_losses=0, bytes_sent=0, bytes_received=0)
        self.last_run_info = info
        self._wait_for_workers(self.min_workers)
        result = state.run(lambda shards: self._run_wave(batch, shards, state, info))
        info["workers_connected"] = self.workers_connected()
        return result

    def _dispatch(self, conn: _WorkerConn, batch, shard, state, info) -> bool:
        """Send one shard of the named batch to ``conn``; False (and drop)
        on a dead socket."""
        shard_id, indices = shard
        run_timeout = state.run_timeout
        payload = encode_message({
            "shard": shard_id, "batch": batch, "indices": indices,
            "attempts": [state.attempts[i] for i in indices], "run_timeout": run_timeout,
        })
        try:
            conn.sock.setblocking(True)
            try:
                sent = send_frame(conn.sock, OP_SHARD, payload)
            finally:
                conn.sock.setblocking(False)
        except OSError:
            self._drop(conn)
            return False
        conn.shard = shard
        conn.deadline = (
            None
            if run_timeout is None
            # generous backstop, matching the pooled path: the in-worker
            # SIGALRM should fire far earlier; this only reclaims workers
            # hung beyond the alarm (or mid-transfer)
            else time.monotonic() + run_timeout * (3 * len(indices) + 2) + 1.0
        )
        info["bytes_sent"] += sent
        info["shards_dispatched"] += 1
        obs_metrics.inc(
            "repro_remote_bytes_sent_total", sent,
            help="bytes sent by remote coordinators",
        )
        obs_metrics.inc(
            "repro_remote_shards_dispatched_total",
            help="shards dispatched to remote workers",
        )
        return True

    def _note_loss(self, conn: _WorkerConn, label: str, lost, info) -> None:
        """A worker died, was disconnected or broke protocol holding a shard."""
        self._drop(conn)
        if conn.shard is None:
            return
        lost.extend((i, label) for i in conn.shard[1])
        conn.shard = None
        info["worker_losses"] += 1
        obs_metrics.inc(
            "repro_remote_worker_losses_total",
            help="remote worker connections lost while holding a shard",
        )

    def _run_wave(self, batch, shards: List[List[int]], state, info) -> None:
        """Dispatch one wave of shards across whoever is connected.

        Workers may join mid-wave (put to work at once) and drop mid-shard
        (its runs are recorded lost, one attempt each).  If every worker
        is gone for ``accept_timeout``, the wave's remaining shards are
        recorded lost too, for the retry policy to judge.  Results are
        folded into ``state`` once the wave is over, so a strict abort
        never leaves a shard in flight on an agent the next batch reuses.
        """
        queue = deque((next(self._shard_ids), list(s)) for s in shards)
        active = {shard_id for shard_id, _ in queue}
        results: List[Tuple[List[Any], Optional[Dict[str, int]]]] = []
        lost: List[Tuple[int, str]] = []
        starved_since: Optional[float] = None

        def in_flight() -> List[_WorkerConn]:
            return [c for c in self._conns.values() if c.shard is not None]

        while queue or in_flight():
            # put every ready worker to work
            for conn in list(self._conns.values()):
                if queue and conn.ready:
                    shard = queue.popleft()
                    if not self._dispatch(conn, batch, shard, state, info):
                        queue.appendleft(shard)  # conn died before takeoff
            if queue and not self._conns:
                # nobody to dispatch to: give agents accept_timeout to
                # (re)join, then charge the wave an attempt per run
                if starved_since is None:
                    starved_since = time.monotonic()
                elif time.monotonic() - starved_since > self.accept_timeout:
                    lost.extend((i, "worker-lost") for _, shard in queue for i in shard)
                    break
            else:
                starved_since = None
            for conn, op, payload in self._pump(0.05):
                if op == OP_HELLO:
                    self._handle_hello(conn, payload)
                elif op == OP_BYE:
                    self._note_loss(conn, "worker-lost", lost, info)
                elif op == OP_RESULT:
                    info["bytes_received"] += HEADER_SIZE + len(payload)
                    obs_metrics.inc(
                        "repro_remote_bytes_received_total",
                        HEADER_SIZE + len(payload),
                        help="bytes received by remote coordinators",
                    )
                    try:
                        if conn.shard is None:
                            raise RemoteProtocolError("RESULT from a worker given no shard")
                        shard_id, indices = conn.shard
                        outcomes, delta = decode_result(payload, shard_id, indices)
                    except RemoteProtocolError:  # forged or malformed: runs lost
                        self._note_loss(conn, "worker-lost", lost, info)
                        continue
                    conn.shard = conn.deadline = None
                    if shard_id in active:  # else a shard of an interrupted batch
                        results.append((outcomes, delta))
            if state.run_timeout is not None:
                now = time.monotonic()
                for conn in in_flight():
                    if conn.deadline is not None and now > conn.deadline:
                        self._note_loss(conn, "timeout", lost, info)
        for outcomes, delta in results:
            state.absorb(outcomes, delta)
        state.absorb_lost(lost, detail="remote worker connection lost")


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def reconnect_backoff(
    seed: int, attempt: int, base: float = 0.05, cap: float = 2.0
) -> float:
    """Deterministic capped-exponential wait before reconnect ``attempt``.

    ``base * 2**(attempt-1)`` capped at ``cap``, scaled into ``[0.5, 1.0)``
    by :func:`~repro.runtime.seeds.reconnect_jitter` — the agent-side twin
    of :func:`repro.runtime.resilience.backoff_delay`, so a fleet of
    agents seeded differently never thunders back in lockstep, yet any
    one agent's rejoin schedule replays exactly.
    """
    from .seeds import reconnect_jitter

    raw = min(base * (2 ** max(attempt - 1, 0)), cap)
    return raw * (0.5 + 0.5 * reconnect_jitter(seed, attempt))


def _connect_with_retry(host: str, port: int, connect_timeout: float):
    """A blocking socket to the coordinator, dialled for up to
    ``connect_timeout`` seconds; ``None`` if it never answered."""
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.setblocking(True)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.1)


def serve_worker(
    address,
    *,
    connect_timeout: float = 10.0,
    in_worker: bool = True,
    result_send_hook: Optional[Callable[[socket.socket, bytes], None]] = None,
    max_frame_bytes: Optional[int] = None,
    reconnect: bool = False,
    max_reconnects: Optional[int] = None,
    backoff_base: float = 0.05,
    backoff_cap: float = 2.0,
    reconnect_seed: Optional[int] = None,
) -> int:
    """Agent loop: register with a coordinator, execute shards until BYE.

    ``address`` is ``(host, port)`` or ``"host:port"``.  The agent
    retries the first dial for ``connect_timeout`` seconds (agents are
    often started before the coordinator binds) and serves until BYE or a
    dropped connection.  Returns an exit status: 1 if the first dial
    failed, else 0.  A frame that is not the worker protocol raises
    :class:`RemoteProtocolError`.  With ``reconnect=True`` neither a drop
    nor such a frame is the end: the agent hangs up, waits
    :func:`reconnect_backoff` (jittered from ``reconnect_seed``, default
    the pid) and dials again, at most ``max_reconnects`` times (``None``:
    unbounded).  BYE always ends service.

    ``in_worker`` / ``result_send_hook`` are seams for the in-process
    harness and the chaos suite; real agents keep the defaults, so a
    planned ``kill`` fault really takes the agent down mid-shard.
    """
    host, port = address if isinstance(address, tuple) else parse_address(address)
    seed = os.getpid() if reconnect_seed is None else reconnect_seed
    attempt = 0
    while True:
        sock = _connect_with_retry(host, port, connect_timeout)
        if sock is None:
            # first dial failing is an operator error (status 1); a lost
            # coordinator that never comes back is a clean end of service
            return 1 if attempt == 0 else 0
        try:
            outcome = _serve_connection(sock, in_worker, result_send_hook, max_frame_bytes)
        except RemoteProtocolError:
            if not reconnect:
                raise
            outcome = "lost"  # the session is unusable: redial as after a drop
        if outcome == "bye" or not reconnect:
            return 0
        attempt += 1
        if max_reconnects is not None and attempt > max_reconnects:
            return 0
        time.sleep(reconnect_backoff(seed, attempt, backoff_base, backoff_cap))


def _serve_connection(sock, in_worker, result_send_hook, max_frame_bytes) -> str:
    """One registered session with a coordinator -> ``"bye"`` | ``"lost"``.

    A frame that is not a well-formed SHARD or BYE raises
    :class:`RemoteProtocolError` (or :class:`WireError`) before any run.
    """
    from .resilience import _run_shard

    hello = {"version": PROTOCOL_VERSION, "pid": os.getpid()}
    try:
        send_frame(sock, OP_HELLO, encode_message(hello))
        while True:
            try:
                op, payload = recv_frame(sock, max_frame_bytes=max_frame_bytes)
            except (ConnectionError, OSError):
                return "lost"  # coordinator went away mid-session
            if op == OP_BYE:
                return "bye"
            if op != OP_SHARD:
                raise RemoteProtocolError(f"unexpected opcode {op!r} in agent loop")
            shard_id, spec, indices, attempts, run_timeout = decode_shard(payload)
            outcomes, stats = _run_shard(spec, indices, attempts, run_timeout, in_worker)
            send_frame(sock, OP_RESULT, encode_result(shard_id, outcomes, stats),
                       send_hook=result_send_hook)
    finally:
        with suppress(OSError):
            sock.close()


class InProcessWorker:
    """A worker agent on a thread of this process (tests/benchmarks).

    Faithful to a real agent at the protocol layer — same frames, same
    shard execution path — but ``kill`` faults degrade to transient
    raises (``in_worker=False``) so a chaos plan cannot take down the
    host.  Several in-process workers execute shards concurrently: each
    run's tap and tracer live in its own thread's run context.  A
    ``result_send_hook`` can sabotage RESULT frames to model a socket
    dropped mid-blob.
    """

    def __init__(
        self, address, *, connect_timeout: float = 10.0,
        result_send_hook: Optional[Callable[[socket.socket, bytes], None]] = None,
    ):
        self.exit_status: Optional[int] = None
        self.error: Optional[BaseException] = None

        def _run() -> None:
            try:
                self.exit_status = serve_worker(
                    address, connect_timeout=connect_timeout, in_worker=False,
                    result_send_hook=result_send_hook,
                )
            except BaseException as exc:  # sabotage hooks unwind this way
                self.error = exc

        self._thread = threading.Thread(
            target=_run, name="repro-inprocess-worker", daemon=True
        )

    def start(self) -> "InProcessWorker":
        self._thread.start()
        return self

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()
