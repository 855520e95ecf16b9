"""Protocol harness: the referee for distributed interactive proofs.

An execution alternates *verifier rounds* (every node draws public coins and
sends them to the prover) and *prover rounds* (the prover assigns a label to
every node).  The :class:`Interaction` referee enforces this alternation,
records the transcript, and finally evaluates the per-node local decision
functions over :class:`~repro.core.views.NodeView` objects.

Protocols in this library run several logical *stages* in parallel inside
the same interaction rounds (exactly as the paper does when counting to 5
rounds); stage labels for a given round are nested into one node label as
named sub-labels via :func:`~repro.core.labels.nest_labels`.
"""

from __future__ import annotations

import functools
import gc
import os
import random
import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional

from .columnar import run_kernel as run_columnar_kernel
from .labels import BitString, Label
from .network import Graph
from .transcript import RunResult, Transcript
from .views import NodeView, build_views


class ProtocolError(Exception):
    """Raised when the referee detects a malformed execution."""


# ---------------------------------------------------------------------------
# label taps: the universal man-in-the-middle hook
# ---------------------------------------------------------------------------
#
# Every prover message of every protocol -- including the sub-runs spawned
# by the composite protocols of Theorems 1.3-1.7 -- flows through
# :meth:`Interaction.prover_round`.  A *label tap* in the run's context
# may rewrite the labels in place just before they are recorded (and
# before the protocol derives anything, e.g. coin widths, from them where
# it shares the dict).  This is what makes a single protocol-agnostic
# fuzzing adversary possible: it corrupts the built ``Label`` objects on
# the wire instead of subclassing each prover.
#
# The tap sees the labels as the prover built them; nothing is packed on
# its behalf.  The mutation engine packs only the one label it corrupts
# (``wire_leaf_span``), to report where on the wire the mutated field lives.


class LabelTap:
    """Interface: rewrite one prover round's labels before recording.

    ``msg_index`` is the 0-based index of this prover message within its
    :class:`Interaction` (index ``k`` is interaction round ``2k + 1`` for
    the paper's 5-round protocols).  Implementations mutate ``labels`` and
    ``edge_labels`` (canonical ``u <= v`` keys) in place.
    """

    def on_prover_round(
        self,
        interaction: "Interaction",
        msg_index: int,
        labels: Dict[int, Label],
        edge_labels: Dict,
    ) -> None:  # pragma: no cover - interface
        raise NotImplementedError


# ---------------------------------------------------------------------------
# trace hooks: round-level observability
# ---------------------------------------------------------------------------
#
# The same choke-point argument that makes one label tap enough for
# protocol-agnostic fuzzing makes one trace hook enough for
# protocol-agnostic observability: every round of every protocol --
# including the sub-interactions of the composite Theorems 1.3-1.7 --
# passes through the methods below, so a hook in the run's context sees
# the complete round structure of a run without any protocol knowing it
# is being watched.  Unlike a label tap, a trace hook is strictly
# read-only: it must never mutate labels, coins, or verdicts (the
# canonical-identity invariant of the runtime is pinned against this).


class TraceHook:
    """Read-only observer interface for interaction rounds.

    All hooks default to no-ops so implementations override only what
    they need.  Hooks fire *after* the round is recorded (and after any
    label tap), so ``interaction.transcript`` already contains the round
    being reported.
    """

    def on_interaction_start(self, interaction: "Interaction") -> None:
        """A new interaction (root or composite sub-run) began."""

    def on_verifier_round(self, interaction: "Interaction", coins: Dict) -> None:
        """A verifier round was recorded; ``coins`` maps node -> BitString."""

    def on_prover_round(
        self,
        interaction: "Interaction",
        msg_index: int,
        labels: Dict[int, Label],
        edge_labels: Dict,
    ) -> None:
        """A prover round was recorded (``msg_index`` as for label taps)."""

    def on_decide(self, interaction: "Interaction", result) -> None:
        """The final local-decision sweep of ``interaction`` finished."""


# ---------------------------------------------------------------------------
# the run context: which tap and tracer a run's interactions use
# ---------------------------------------------------------------------------
#
# A run's tap and tracer belong to that run alone: in the DIP model each
# node decides from its own coins and labels, so one run's adversary must
# never rewrite another run's labels.  They travel in one frozen
# :class:`RunContext` held by a :class:`contextvars.ContextVar`, so every
# thread (and every asyncio task) sees only the context it set itself.
# Each :class:`Interaction` reads the context once, when it is created --
# composite sub-runs created inside the same ``with run_context(...)``
# block share their root's tap and tracer.  Leaving the block restores
# the previous context, whether the run finished or raised.


@dataclass(frozen=True)
class RunContext:
    """The per-run hooks an :class:`Interaction` picks up at creation."""

    tap: Optional[LabelTap] = None
    tracer: Optional[TraceHook] = None


_RUN_CONTEXT: ContextVar[RunContext] = ContextVar(
    "repro_run_context", default=RunContext()
)


@contextmanager
def run_context(
    tap: Optional[LabelTap] = None, tracer: Optional[TraceHook] = None
) -> Iterator[None]:
    """Run the block's interactions under ``tap`` and ``tracer``."""
    token = _RUN_CONTEXT.set(RunContext(tap, tracer))
    try:
        yield
    finally:
        _RUN_CONTEXT.reset(token)


# ---------------------------------------------------------------------------
# the GC pause: no cyclic collection while a run's heap is alive
# ---------------------------------------------------------------------------
#
# A run builds O(n) label objects per prover round and its transcript keeps
# them alive until decide, so CPython's cyclic collector would promote that
# heap and rescan it, in full, over and over while it grows -- work that
# finds nothing, because a run makes no cyclic garbage (no recursive
# closures, no back-pointing objects): reference counting frees the whole
# heap the moment the run's last reference goes.  So every top-level run
# entry point is a :func:`gc_paused` *call*: the callee's locals -- the
# instance, transcript and result -- are released when it returns, inside
# the pause, and automatic collection resumes over a heap without them.
#
# The pause is process-wide (``gc.disable`` is), so it is a depth counter
# under a lock: concurrent runs on several threads nest, collection resumes
# only when the last of them leaves (by return or by raise), and a caller
# that had disabled collection itself finds it still disabled afterwards.
#
# A forked child (a process-pool worker) keeps only the forking thread, so
# the pauses other threads were inside never end there.  The fork holds the
# lock, so the child's copy is consistent and never stuck locked, and the
# child keeps only the forking thread's own share of the depth: a worker
# forked while another thread runs starts with collection on, as it was
# before that run.


class _GCPause:
    """Reentrant, thread-safe pause of automatic cyclic garbage collection."""

    __slots__ = ("_lock", "_depth", "_resume", "_own")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False
        self._own = threading.local()  # this thread's share of ``_depth``

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1
        self._own.depth = getattr(self._own, "depth", 0) + 1

    def __exit__(self, *exc) -> None:
        self._own.depth -= 1
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.enable()

    def before_fork(self) -> None:
        self._lock.acquire()

    def after_fork_in_parent(self) -> None:
        self._lock.release()

    def after_fork_in_child(self) -> None:
        own = getattr(self._own, "depth", 0)
        if self._depth and not own and self._resume:
            gc.enable()
        self._depth = own
        self._lock = threading.Lock()


_GC_PAUSE = _GCPause()
if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(
        before=_GC_PAUSE.before_fork,
        after_in_parent=_GC_PAUSE.after_fork_in_parent,
        after_in_child=_GC_PAUSE.after_fork_in_child,
    )


def gc_paused(fn: Callable) -> Callable:
    """Run every call of ``fn`` with automatic cyclic collection paused.

    The pause ends after ``fn`` has returned, so whatever ``fn`` held only
    in its own frame is already freed when collection resumes; return only
    what the caller keeps.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        with _GC_PAUSE:
            return fn(*args, **kwargs)

    return paused


class Interaction:
    """Referee for one protocol execution on one graph."""

    def __init__(self, graph: Graph, rng: Optional[random.Random] = None):
        self.graph = graph
        self.rng = rng if rng is not None else random.Random()
        self.transcript = Transcript()
        self._last_kind: Optional[str] = None
        ctx = _RUN_CONTEXT.get()
        self._tap = ctx.tap
        self._tracer = ctx.tracer
        if self._tracer is not None:
            self._tracer.on_interaction_start(self)

    # -- rounds -----------------------------------------------------------

    def verifier_round(self, widths: Dict[int, int]) -> Dict[int, BitString]:
        """Every node draws public coins; nodes missing from ``widths`` draw none.

        Returns the coins, which are by definition also visible to the
        prover (public-coin protocols: the verifier cannot hide random bits).
        """
        if self._last_kind == "verifier":
            raise ProtocolError("two consecutive verifier rounds")
        coins = {
            v: BitString.random(self.rng, w)
            for v, w in widths.items()
            if w >= 0
        }
        self.transcript.add_verifier_round(coins)
        self._last_kind = "verifier"
        if self._tracer is not None:
            self._tracer.on_verifier_round(self, coins)
        return coins

    def prover_round(
        self,
        labels: Dict[int, Label],
        edge_labels: Optional[Dict] = None,
    ) -> Dict[int, Label]:
        """The prover assigns labels to nodes (and optionally to edges)."""
        if self._last_kind == "prover":
            raise ProtocolError("two consecutive prover rounds")
        for v, label in labels.items():
            if not 0 <= v < self.graph.n:
                raise ProtocolError(f"label assigned to non-node {v}")
            if not isinstance(label, Label):
                raise ProtocolError(f"prover sent a non-Label to node {v}")
        canonical = {}
        for (u, v), label in (edge_labels or {}).items():
            if not self.graph.has_edge(u, v):
                raise ProtocolError(f"edge label on non-edge ({u}, {v})")
            if not isinstance(label, Label):
                raise ProtocolError(f"prover sent a non-Label to edge ({u}, {v})")
            canonical[(u, v) if u <= v else (v, u)] = label
        if self._tap is not None:
            self._tap.on_prover_round(
                self, len(self.transcript.prover_rounds()), labels, canonical
            )
        self.transcript.add_prover_round(dict(labels), canonical)
        self._last_kind = "prover"
        if self._tracer is not None:
            self._tracer.on_prover_round(
                self, len(self.transcript.prover_rounds()) - 1, labels, canonical
            )
        return labels

    # -- decision ---------------------------------------------------------

    def decide(
        self,
        check: Callable[[NodeView], bool],
        inputs: Optional[Dict[int, Dict[str, Any]]] = None,
        shared_inputs: Optional[Dict[int, Dict[str, Any]]] = None,
        protocol_name: str = "dip",
        meta: Optional[dict] = None,
        kernel_out=None,
        sweep: Optional[Callable[..., list]] = None,
    ) -> RunResult:
        """Evaluate the local decision at every node and aggregate.

        The verifier accepts iff *all* nodes output yes.  ``kernel_out``
        is this interaction's ``(ok, fallback)`` slice of a vectorized
        kernel run (see :class:`DecideBatch` and
        :mod:`repro.core.columnar`) computing the same per-node verdicts
        over packed-label columns; nodes the kernel marks as fallback --
        and every node when no kernel ran -- go through ``check``
        unchanged, so verdicts (and canonical reports) are identical
        either way.  ``sweep(graph, transcript, inputs)``, when given,
        returns the rejecting nodes of the whole run in one pass over its
        labels, with the verdicts ``check`` gives node by node; no view is
        built then.
        """
        if not self.transcript.ends_with_prover():
            raise ProtocolError("interaction must end with a prover round")
        kernel_ok = kernel_fb = None
        if kernel_out is not None:
            kernel_ok, kernel_fb = kernel_out
        if sweep is not None:
            rejecting = sweep(self.graph, self.transcript, inputs)
        elif kernel_ok is not None and not kernel_fb.any():
            # fully covered: skip view construction entirely
            rejecting = [v for v in self.graph.nodes() if not kernel_ok[v]]
        else:
            views = build_views(self.graph, self.transcript, inputs, shared_inputs)
            if kernel_ok is not None:
                rejecting = [
                    v
                    for v in self.graph.nodes()
                    if not (check(views[v]) if kernel_fb[v] else kernel_ok[v])
                ]
            else:
                rejecting = [v for v in self.graph.nodes() if not check(views[v])]
        if kernel_ok is not None:
            # lazy import: obs builds on core, so core must not import obs
            # at module load; the counters live outside canonical identity
            from ..obs import metrics as obs_metrics

            n_fb = int(kernel_fb.sum())
            obs_metrics.inc(
                "repro_vector_decide_nodes_total", self.graph.n - n_fb,
                help="nodes decided by vectorized columnar kernels",
            )
            obs_metrics.inc(
                "repro_vector_fallback_nodes_total", n_fb,
                help="kernel-run nodes re-checked via the per-view path",
            )
        result = RunResult(
            accepted=not rejecting,
            rejecting_nodes=rejecting,
            transcript=self.transcript,
            protocol_name=protocol_name,
            meta=meta,
        )
        if self._tracer is not None:
            self._tracer.on_decide(self, result)
        return result


class PendingDecide:
    """A decide sweep queued on a :class:`DecideBatch`; ``result`` is set
    by :meth:`DecideBatch.run`."""

    __slots__ = (
        "interaction", "check", "key", "make_kernel", "kernel_params", "kwargs",
        "result",
    )

    def __init__(self, interaction, check, key, make_kernel, kernel_params, kwargs):
        self.interaction = interaction
        self.check = check
        self.key = key
        self.make_kernel = make_kernel
        self.kernel_params = kernel_params
        self.kwargs = kwargs
        self.result: Optional[RunResult] = None


class DecideBatch:
    """The deferred decide sweeps of many interactions.

    Every sub-run keeps its own :class:`Interaction`, rounds and
    transcript; only the final local-decision sweep waits here.
    :meth:`run` groups the queued sweeps by kernel ``key`` (equal keys
    mean one kernel: the path-outerplanarity sub-runs of a host batch
    share one key whatever their sizes), runs each key's kernel once
    over the disjoint union of its members
    (:func:`repro.core.columnar.run_kernel`), then finishes every sweep,
    in queue order, through its own :meth:`Interaction.decide` with its
    slice of the kernel output.  The verifier is a conjunction of
    per-node local predicates, so every node's verdict is the one a lone
    decide gives it.
    """

    def __init__(self):
        self._pending: list = []

    def add(
        self,
        interaction: Interaction,
        check: Callable[[NodeView], bool],
        key,
        make_kernel: Callable[[list], Callable],
        kernel_params,
        **decide_kwargs,
    ) -> PendingDecide:
        """Queue ``interaction``'s decide sweep.

        Sweeps with equal ``key`` are decided by one kernel call over
        their union.  ``make_kernel(params)`` builds that kernel from
        ``params``, the ``kernel_params`` of the sweeps it decides (one
        per sweep, in queue order); the first sweep's factory is called
        once per key.
        """
        pending = PendingDecide(
            interaction, check, key, make_kernel, kernel_params, decide_kwargs
        )
        self._pending.append(pending)
        return pending

    def run(self) -> None:
        pending, self._pending = self._pending, []
        classes: Dict[Any, list] = {}
        for p in pending:
            classes.setdefault(p.key, []).append(p)
        outs: Dict[int, Any] = {}
        for members in classes.values():
            slices = run_columnar_kernel(
                members[0].make_kernel,
                [
                    (p.interaction.graph, p.interaction.transcript, p.kernel_params)
                    for p in members
                ],
            )
            for p, out in zip(members, slices):
                outs[id(p)] = out
        for p in pending:
            p.result = p.interaction.decide(
                p.check, kernel_out=outs[id(p)], **p.kwargs
            )


class DIPProtocol(ABC):
    """Base class for distributed interactive proofs.

    Subclasses implement :meth:`execute`, which runs the full interaction
    against a prover strategy (the honest prover if none is given) and
    returns a :class:`RunResult`.
    """

    #: human-readable protocol name
    name: str = "dip"
    #: the number of interaction rounds the protocol is designed to use
    designed_rounds: int = 0

    @abstractmethod
    def execute(
        self,
        instance,
        prover=None,
        rng: Optional[random.Random] = None,
    ) -> RunResult:
        """Run the protocol on ``instance``; honest prover when ``prover`` is None."""

    @abstractmethod
    def honest_prover(self, instance):
        """The honest prover strategy for a yes-instance."""


@gc_paused
def _accepts(protocol: DIPProtocol, instance, prover, rng: random.Random) -> bool:
    """One trial of :func:`acceptance_rate`: its verdict, run heap freed."""
    return protocol.execute(instance, prover=prover, rng=rng).accepted


def acceptance_rate(
    protocol: DIPProtocol,
    instances: Iterable,
    prover_factory: Optional[Callable[[Any], Any]] = None,
    seed: int = 0,
    trials_per_instance: int = 1,
) -> float:
    """Fraction of (instance, trial) runs that accept.

    ``prover_factory`` builds a prover per instance (honest when omitted).
    """
    rng = random.Random(seed)
    runs = 0
    accepted = 0
    for instance in instances:
        prover = prover_factory(instance) if prover_factory else None
        for _ in range(trials_per_instance):
            accepted += _accepts(
                protocol, instance, prover, random.Random(rng.getrandbits(64))
            )
            runs += 1
    if runs == 0:
        raise ValueError("no instances supplied")
    return accepted / runs
