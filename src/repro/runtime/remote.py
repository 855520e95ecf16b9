"""Socket-dispatched remote workers: scale a batch past one box.

The coordinator side is :class:`RemoteWorkerBackend` — an
:class:`~repro.runtime.backends.ExecutionBackend` that listens on a TCP
port instead of spawning processes.  Workers are started *by the
operator* (``repro worker --connect host:port``, any machine that can
reach the coordinator) and register themselves; the backend dispatches
shards to whoever is connected and idle, exactly like the local pool
dispatches to its processes.

Design lineage, deliberately:

* **Spec-once protocol (PR 5).**  The batch spec crosses the wire once
  per worker per batch (one ``SPEC`` frame); every subsequent ``SHARD``
  frame carries only run indices and attempt counts — the same economy
  that took the local pool from 0.865x to parity.
* **Packed blob transport (PR 6).**  Frames are pickled payloads, so
  every label inside a spec (witness paths, pinned adversary state)
  ships in the packed byte form automatically.
* **Fault handling (PR 3).**  A dropped connection is a lost shard: the
  runs consume one attempt each, route through the shared
  ``_BatchExecution`` wave engine, and are resubmitted to surviving
  (or newly connecting) workers under the retry/degrade policies.  A
  worker hung past the coordinator backstop deadline is disconnected
  and treated the same way.  Successful retries are byte-identical to
  the fault-free serial reference — seed streams are keyed by run
  index, never by which worker executed it.

Wire protocol (version 1): length-prefixed frames, one-byte opcode plus
a big-endian uint32 payload length::

    HELLO  "H"  worker -> coordinator   json {"version": 1, "pid": ...}
    SPEC   "S"  coordinator -> worker   pickle (spec_id, _BatchSpec)
    SHARD  "W"  coordinator -> worker   pickle (spec_id, shard_id,
                                               indices, attempts, run_timeout)
    RESULT "R"  worker -> coordinator   pickle (shard_id, outcomes, stats)
    BYE    "B"  either direction        empty

The agent loop is :func:`serve_worker`; :class:`InProcessWorker` runs it
on a thread of the current process for tests and benchmarks (kill
faults degrade to raises there).  Threaded workers need no lock around
shard execution: a run's tap and tracer live in that thread's run
context, and the decode cache rides on the views of one decide sweep.
"""

from __future__ import annotations

import json
import os
import pickle
import selectors
import socket
import struct
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from .backends import BatchResult, ExecutionBackend

PROTOCOL_VERSION = 1

_HEADER = struct.Struct(">cI")
HEADER_SIZE = _HEADER.size

OP_HELLO = b"H"
OP_SPEC = b"S"
OP_SHARD = b"W"
OP_RESULT = b"R"
OP_BYE = b"B"

_KNOWN_OPS = frozenset((OP_HELLO, OP_SPEC, OP_SHARD, OP_RESULT, OP_BYE))

#: refuse frames past this size — a corrupt length prefix must fail fast,
#: not allocate gigabytes (largest legitimate frame is a batch spec)
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
    sock: socket.socket,
    *,
    max_frame_bytes: Optional[int] = None,
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
    header: bytes,
    *,
    max_frame_bytes: Optional[int] = None,
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
        self,
        *,
        max_frame_bytes: Optional[int] = None,
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
# coordinator side
# ---------------------------------------------------------------------------


class _WorkerConn:
    """Coordinator-side state of one connected worker."""

    def __init__(
        self, sock: socket.socket, addr, *, max_frame_bytes: Optional[int] = None
    ) -> None:
        self.sock = sock
        self.addr = addr
        self.frames = _FrameBuffer(max_frame_bytes=max_frame_bytes)
        self.hello: Optional[Dict[str, Any]] = None
        self.spec_sent: Optional[int] = None  #: spec_id this conn holds
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
    serve a whole campaign — each batch re-ships its spec once per
    worker, nothing else.  Workers may connect, drop, and reconnect at
    any time; the coordinator only *requires* ``min_workers`` to be
    registered before the first shard of a batch goes out.

    Strict-policy batches surface the first failure exactly like the
    local backends (the original exception where it survived pickling);
    worker loss under strict aborts the batch, mirroring the pool's
    ``BrokenProcessPool`` behaviour.
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
        self._spec_counter = 0
        self._shard_counter = 0
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
        return {
            "backend": self.name,
            "listen": self.connect_spec,
            "min_workers": self.min_workers,
        }

    def workers_connected(self) -> int:
        return sum(1 for conn in self._conns.values() if conn.hello is not None)

    def close(self) -> None:
        """Wave the agents goodbye and release every socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in list(self._conns.values()):
            try:
                send_frame(conn.sock, OP_BYE)
            except OSError:
                pass
            self._drop(conn)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._selector.close()

    def _drop(self, conn: _WorkerConn) -> None:
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        self._conns.pop(conn.sock, None)
        try:
            conn.sock.close()
        except OSError:
            pass

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            conn = _WorkerConn(sock, addr, max_frame_bytes=self.max_frame_bytes)
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
            hello = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._drop(conn)
            return
        if hello.get("version") != PROTOCOL_VERSION:
            self._drop(conn)
            return
        conn.hello = hello
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
        from .resilience import _BatchExecution

        if self._closed:
            raise RuntimeError("remote backend is closed")
        state = _BatchExecution(
            spec,
            n_runs,
            workers=self.min_workers,
            chunk_size=chunk_size or self.chunk_size,
            **knobs,
        )
        self._spec_counter += 1
        spec_id = self._spec_counter
        spec_blob = pickle.dumps((spec_id, spec), protocol=pickle.HIGHEST_PROTOCOL)
        info: Dict[str, Any] = self.describe()
        info.update(
            spec_bytes=len(spec_blob),
            shards_dispatched=0,
            worker_losses=0,
            bytes_sent=0,
            bytes_received=0,
        )
        self.last_run_info = info
        self._wait_for_workers(self.min_workers)
        result = state.run(
            lambda shards: self._run_wave(spec_id, spec_blob, shards, state, info)
        )
        info["workers_connected"] = self.workers_connected()
        return result

    def _next_shard_id(self) -> int:
        self._shard_counter += 1
        return self._shard_counter

    def _send_to(self, conn: _WorkerConn, op: bytes, payload: bytes, info) -> bool:
        """Send a frame to one worker; False (and drop) on a dead socket."""
        try:
            conn.sock.setblocking(True)
            try:
                sent = send_frame(conn.sock, op, payload)
            finally:
                conn.sock.setblocking(False)
        except OSError:
            self._drop(conn)
            return False
        info["bytes_sent"] += sent
        obs_metrics.inc(
            "repro_remote_bytes_sent_total", sent,
            help="bytes sent by remote coordinators",
        )
        return True

    def _dispatch(
        self,
        conn: _WorkerConn,
        spec_id: int,
        spec_blob: bytes,
        shard: Tuple[int, List[int]],
        state,
        run_timeout: Optional[float],
        info: Dict[str, Any],
    ) -> bool:
        """Ship spec (once per worker per batch) + one shard to ``conn``."""
        if conn.spec_sent != spec_id:
            if not self._send_to(conn, OP_SPEC, spec_blob, info):
                return False
            conn.spec_sent = spec_id
        shard_id, indices = shard
        payload = pickle.dumps(
            (spec_id, shard_id, list(indices),
             {i: state.attempts[i] for i in indices}, run_timeout),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        if not self._send_to(conn, OP_SHARD, payload, info):
            return False
        conn.shard = (shard_id, list(indices))
        conn.deadline = (
            None
            if run_timeout is None
            # generous backstop, matching the pooled path: the in-worker
            # SIGALRM should fire far earlier; this only reclaims workers
            # hung beyond the alarm (or mid-transfer)
            else time.monotonic() + run_timeout * (3 * len(indices) + 2) + 1.0
        )
        info["shards_dispatched"] += 1
        obs_metrics.inc(
            "repro_remote_shards_dispatched_total",
            help="shards dispatched to remote workers",
        )
        return True

    def _note_loss(
        self,
        conn: _WorkerConn,
        label: str,
        lost: List[Tuple[int, str]],
        info: Dict[str, Any],
    ) -> None:
        """A worker died (or was disconnected) holding a shard."""
        if conn.shard is None:
            return
        _, indices = conn.shard
        lost.extend((i, label) for i in indices)
        conn.shard = None
        info["worker_losses"] += 1
        obs_metrics.inc(
            "repro_remote_worker_losses_total",
            help="remote worker connections lost while holding a shard",
        )

    def _run_wave(
        self,
        spec_id: int,
        spec_blob: bytes,
        shards: List[List[int]],
        state,
        info: Dict[str, Any],
    ) -> None:
        """Dispatch one wave of shards across whoever is connected.

        Workers may join mid-wave (they are put to work immediately) and
        drop mid-shard (the shard's runs are recorded lost, one attempt
        each, and the wave goes on).  If every worker is gone and none
        returns within ``accept_timeout``, the remaining shards of the
        wave are recorded lost rather than stalling forever — the retry
        policy decides what happens to them next.  Results are folded
        into ``state`` once the wave is over, so a strict abort never
        leaves a shard in flight on an agent the next batch reuses.
        """
        run_timeout = state.run_timeout
        queue = deque((self._next_shard_id(), list(s)) for s in shards)
        active = {shard_id for shard_id, _ in queue}
        results: List[Tuple[List[Any], Optional[Dict[str, int]]]] = []
        lost: List[Tuple[int, str]] = []
        starved_since: Optional[float] = None

        def in_flight() -> List[_WorkerConn]:
            return [c for c in self._conns.values() if c.shard is not None]

        while queue or in_flight():
            # put every ready worker to work
            for conn in list(self._conns.values()):
                if not queue:
                    break
                if conn.ready:
                    shard = queue.popleft()
                    if not self._dispatch(
                        conn, spec_id, spec_blob, shard, state, run_timeout, info
                    ):
                        queue.appendleft(shard)  # conn died before takeoff
            if queue and not self._conns:
                # nobody to dispatch to: give agents accept_timeout to
                # (re)join, then charge the wave an attempt per run
                if starved_since is None:
                    starved_since = time.monotonic()
                elif time.monotonic() - starved_since > self.accept_timeout:
                    while queue:
                        _, indices = queue.popleft()
                        lost.extend((i, "worker-lost") for i in indices)
                    break
            else:
                starved_since = None
            for conn, op, payload in self._pump(0.05):
                if op == OP_HELLO:
                    self._handle_hello(conn, payload)
                elif op == OP_RESULT:
                    info["bytes_received"] += HEADER_SIZE + len(payload)
                    obs_metrics.inc(
                        "repro_remote_bytes_received_total",
                        HEADER_SIZE + len(payload),
                        help="bytes received by remote coordinators",
                    )
                    try:
                        shard_id, shard_outcomes, delta = pickle.loads(payload)
                    except Exception:
                        self._note_loss(conn, "worker-lost", lost, info)
                        self._drop(conn)
                        continue
                    if conn.shard is not None and conn.shard[0] == shard_id:
                        # the worker is free again either way; only results
                        # for *this* wave's shards are absorbed — a
                        # straggler from an aborted batch (or a shard this
                        # wave already wrote off) is discarded, its runs
                        # having been charged an attempt and resubmitted
                        conn.shard = None
                        conn.deadline = None
                        if shard_id in active:
                            results.append((shard_outcomes, delta))
                elif op == OP_BYE:
                    self._note_loss(conn, "worker-lost", lost, info)
                    self._drop(conn)
            if run_timeout is not None:
                now = time.monotonic()
                for conn in in_flight():
                    if conn.deadline is not None and now > conn.deadline:
                        self._note_loss(conn, "timeout", lost, info)
                        self._drop(conn)
        for shard_outcomes, delta in results:
            state.absorb(shard_outcomes, delta)
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
    """Dial the coordinator, retrying for ``connect_timeout`` seconds.

    Returns a blocking connected socket, or ``None`` if the deadline
    passed without the coordinator answering.
    """
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

    ``address`` is ``(host, port)`` or a ``"host:port"`` string.  The
    agent retries the initial connection for ``connect_timeout`` seconds
    (operators routinely start agents before the coordinator binds),
    then serves batches until the coordinator says BYE or the connection
    drops.  Returns a process exit status (0 = clean shutdown).

    With ``reconnect=True`` a dropped connection is not the end: the
    agent waits :func:`reconnect_backoff` (capped-exponential, jittered
    deterministically from ``reconnect_seed`` — default the pid) and
    dials again, up to ``max_reconnects`` times (unbounded if ``None``).
    An explicit BYE always ends service; a coordinator that never
    answers within ``connect_timeout`` ends the retry loop with 0 (the
    coordinator is gone, same as today's dropped-connection exit).

    ``in_worker`` / ``result_send_hook`` are seams for the in-process
    harness and the chaos suite; real agents keep the defaults, so a
    planned ``kill`` fault genuinely takes the agent down mid-shard — the
    coordinator's loss accounting is the test subject.
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
        outcome = _serve_connection(
            sock,
            in_worker=in_worker,
            result_send_hook=result_send_hook,
            max_frame_bytes=max_frame_bytes,
        )
        if outcome == "bye" or not reconnect:
            return 0
        attempt += 1
        if max_reconnects is not None and attempt > max_reconnects:
            return 0
        time.sleep(reconnect_backoff(seed, attempt, backoff_base, backoff_cap))


def _serve_connection(
    sock: socket.socket,
    *,
    in_worker: bool,
    result_send_hook: Optional[Callable[[socket.socket, bytes], None]],
    max_frame_bytes: Optional[int] = None,
) -> str:
    """One registered session with a coordinator -> ``"bye"`` | ``"lost"``."""
    hello = {"version": PROTOCOL_VERSION, "pid": os.getpid()}
    specs: Dict[int, Any] = {}
    try:
        send_frame(sock, OP_HELLO, json.dumps(hello).encode("utf-8"))
        while True:
            try:
                op, payload = recv_frame(sock, max_frame_bytes=max_frame_bytes)
            except (ConnectionError, OSError):
                return "lost"  # coordinator went away mid-session
            if op == OP_BYE:
                return "bye"
            if op == OP_SPEC:
                spec_id, spec = pickle.loads(payload)
                specs = {spec_id: spec}  # spec-once: newest batch only
            elif op == OP_SHARD:
                spec_id, shard_id, indices, attempts, run_timeout = pickle.loads(
                    payload
                )
                spec = specs.get(spec_id)
                if spec is None:
                    raise RemoteProtocolError(
                        f"shard {shard_id} references unknown spec {spec_id} "
                        "(coordinator must send SPEC first)"
                    )
                from .resilience import _run_shard

                outcomes, stats = _run_shard(
                    spec, indices, attempts, run_timeout, in_worker=in_worker
                )
                send_frame(
                    sock,
                    OP_RESULT,
                    pickle.dumps(
                        (shard_id, outcomes, stats), protocol=pickle.HIGHEST_PROTOCOL
                    ),
                    send_hook=result_send_hook,
                )
            else:
                raise RemoteProtocolError(f"unexpected opcode {op!r} in agent loop")
    finally:
        try:
            sock.close()
        except OSError:
            pass


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
        self,
        address,
        *,
        connect_timeout: float = 10.0,
        result_send_hook: Optional[Callable[[socket.socket, bytes], None]] = None,
    ):
        self.exit_status: Optional[int] = None
        self.error: Optional[BaseException] = None

        def _run() -> None:
            try:
                self.exit_status = serve_worker(
                    address,
                    connect_timeout=connect_timeout,
                    in_worker=False,
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
