"""Protocol harness: the referee for distributed interactive proofs.

An execution alternates *verifier rounds* (every node draws public coins and
sends them to the prover) and *prover rounds* (the prover assigns a label to
every node).  The :class:`Interaction` referee enforces this alternation,
records the transcript, and finally evaluates the per-node local decision
functions over :class:`~repro.core.views.NodeView` objects.

Protocols in this library run several logical *stages* in parallel inside
the same interaction rounds (exactly as the paper does when counting to 5
rounds); stage labels for a given round are merged into one node label as
named sub-labels via :func:`merge_labels`.
"""

from __future__ import annotations

import os
import random
from abc import ABC, abstractmethod
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional

from .columnar import run_kernel as run_columnar_kernel
from .labels import EMPTY_LABEL, BitString, Label
from .network import Graph
from .transcript import RunResult, Transcript
from .views import NodeView, build_views


class ProtocolError(Exception):
    """Raised when the referee detects a malformed execution."""


def merge_labels(parts: Dict[str, Optional[Label]]) -> Label:
    """Merge per-stage labels into a single round label (named sub-labels)."""
    fields = {}
    size = 0
    for name, part in parts.items():
        sub = part if part is not None else EMPTY_LABEL
        width = sub.bit_size()
        fields[name] = ("label", sub, width)
        size += width
    return Label._trusted(fields, size)


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
# decode caches: share pure label decodings across one decide sweep
# ---------------------------------------------------------------------------
#
# The verifier is local, but much of what each node decodes from the
# transcript is *shared*: a neighbor's forest-encoding label is decoded by
# the neighbor itself and by every node adjacent to it (deg+1 times), the
# LR sub-label of a round is re-extracted per incident edge, and so on.
# All of these decodings are pure functions of the Label object, and the
# transcript pins every round label alive for the whole interaction, so
# ``id(label)`` is a stable key for the duration of one decide sweep.
#
# :meth:`Interaction.decide` hands a fresh :class:`DecodeCache` to every
# view it builds (``NodeView.decode_cache``), so each shared structure is
# decoded once per sweep instead of once per node.  Checkers that find no
# cache on their view build a private one per node, which is exactly the
# old decode-everything-locally behavior — the
# ``REPRO_DISABLE_DECODE_CACHE=1`` escape hatch forces that path, and the
# bit-identity suite pins canonical reports equal with the cache on and
# off.

_CACHE_MISS = object()  # sentinel: distinguishes "absent" from cached None


class DecodeCache:
    """Memo for pure per-label decodings, partitioned by decode kind.

    ``sub(kind)`` returns the plain dict for one kind of decoding (e.g.
    ``"commit"``, ``"stv"``); keys are ``id(label)`` of transcript-held
    labels.  :meth:`get` is the counting lookup the checkers use.
    """

    __slots__ = ("_subs", "hits", "misses")

    def __init__(self):
        self._subs: Dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    def sub(self, kind: str) -> dict:
        memo = self._subs.get(kind)
        if memo is None:
            memo = self._subs[kind] = {}
        return memo

    def get(self, memo: dict, key, fn, *args):
        """Memoized ``fn(*args)`` under ``key`` in ``memo`` (a sub() dict)."""
        value = memo.get(key, _CACHE_MISS)
        if value is not _CACHE_MISS:
            self.hits += 1
            return value
        self.misses += 1
        value = memo[key] = fn(*args)
        return value


def decode_cache_disabled() -> bool:
    """True when the ``REPRO_DISABLE_DECODE_CACHE`` escape hatch is set."""
    return os.environ.get("REPRO_DISABLE_DECODE_CACHE", "") not in ("", "0")


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
        columnar=None,
    ) -> RunResult:
        """Evaluate the local decision at every node and aggregate.

        The verifier accepts iff *all* nodes output yes.  ``columnar`` is
        an optional vectorized kernel (see :mod:`repro.core.columnar`)
        computing the same per-node verdicts over packed-label columns;
        nodes the kernel marks as fallback -- and every node when the
        kernel does not apply at all -- go through ``check`` unchanged,
        so verdicts (and canonical reports) are identical either way.
        """
        if not self.transcript.ends_with_prover():
            raise ProtocolError("interaction must end with a prover round")
        kernel_ok = kernel_fb = None
        if columnar is not None:
            kernel_out = run_columnar_kernel(
                columnar, self.graph, self.transcript
            )
            if kernel_out is not None:
                kernel_ok, kernel_fb = kernel_out
        cache = None
        if kernel_ok is not None and not kernel_fb.any():
            # fully covered: skip view construction entirely
            rejecting = [v for v in self.graph.nodes() if not kernel_ok[v]]
        else:
            cache = None if decode_cache_disabled() else DecodeCache()
            views = build_views(
                self.graph, self.transcript, inputs, shared_inputs, cache
            )
            if kernel_ok is not None:
                rejecting = [
                    v
                    for v in self.graph.nodes()
                    if not (check(views[v]) if kernel_fb[v] else kernel_ok[v])
                ]
            else:
                rejecting = [v for v in self.graph.nodes() if not check(views[v])]
        if kernel_ok is not None:
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
        if cache is not None and (cache.hits or cache.misses):
            # lazy import: obs builds on core, so core must not import obs
            # at module load; the counters live outside canonical identity
            from ..obs import metrics as obs_metrics

            obs_metrics.inc(
                "repro_decode_cache_hits_total", cache.hits,
                help="decode-cache hits across decide sweeps",
            )
            obs_metrics.inc(
                "repro_decode_cache_misses_total", cache.misses,
                help="decode-cache misses across decide sweeps",
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
            result = protocol.execute(
                instance, prover=prover, rng=random.Random(rng.getrandbits(64))
            )
            runs += 1
            accepted += result.accepted
    if runs == 0:
        raise ValueError("no instances supplied")
    return accepted / runs
