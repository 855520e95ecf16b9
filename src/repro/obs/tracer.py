"""Round-level tracing: where a 5-round interaction spends bits and time.

The :class:`Tracer` implements the :class:`~repro.core.protocol.TraceHook`
interface and is handed to a run through
:func:`~repro.core.protocol.run_context`, next to the run's label tap.
Every :class:`~repro.core.protocol.Interaction` created inside that
context — including the sub-interactions spawned by the composite
protocols of Theorems 1.3-1.7 — reports its rounds here, and no other
run's (or thread's) interactions do; each report closes a :class:`Span`:

* **verifier spans** carry the round's public-coin widths (max/mean over
  drawing nodes);
* **prover spans** carry the round's label sizes in bits (max/mean over
  labelled nodes and edges) — the paper's per-round proof-size measure;
* **decide spans** cover the final local-decision sweep.

Wall time is attributed by timeline slicing: a span owns the time from
the previous trace event to its own, so the work of *building* a prover
message lands on the round that message ends.  Spans nest under a
per-run root identified by the deterministic ``(task, n, seed,
run_index)`` key of the batched runtime — the same identity on any
worker layout, which is what lets journals from pool workers merge
cleanly (see :mod:`repro.obs.journal`).

Everything a trace records stays *outside* the canonical run identity:
the runner ships trace summaries in ``RunRecord.extra``, next to wall
times, so a traced batch is byte-identical to an untraced one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..core.protocol import TraceHook, run_context
from . import metrics

#: span kinds, in the order they occur inside one interaction
SPAN_KINDS = ("verifier", "prover", "decide")

#: ``Span.round`` value for decide spans (they belong to no round)
DECIDE = 0


@dataclass(frozen=True)
class Span:
    """One trace event: a round (or the decide sweep) of one interaction."""

    kind: str  #: one of :data:`SPAN_KINDS`
    round: int  #: 1-based interaction round; :data:`DECIDE` for decide spans
    interaction: int  #: ordinal of the interaction within the run (0 = root)
    wall_time: float  #: seconds since the previous trace event
    n_sites: int  #: nodes (+ edges) carrying coins/labels in this event
    bits_total: int  #: summed widths over those sites
    bits_max: int  #: max width over those sites

    @property
    def bits_mean(self) -> float:
        return self.bits_total / self.n_sites if self.n_sites else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "round": self.round,
            "interaction": self.interaction,
            "wall_time": self.wall_time,
            "n_sites": self.n_sites,
            "bits_total": self.bits_total,
            "bits_max": self.bits_max,
        }


@dataclass
class RunTrace:
    """All spans of one run, under its deterministic identity."""

    task: str
    n: int
    seed: int
    run_index: int
    spans: List[Span] = field(default_factory=list)
    wall_time: float = 0.0  #: total traced seconds (sum of span times)
    n_interactions: int = 0

    def identity(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "n": self.n,
            "seed": self.seed,
            "run_index": self.run_index,
        }

    def summary(self) -> Dict[str, Any]:
        """JSON-safe per-round aggregate (the payload journals carry).

        Spans of nested sub-interactions merge into the same round slots
        as the root interaction's — matching the paper's accounting,
        where all logical stages share the same 5 interaction rounds.
        """
        rounds: Dict[int, Dict[str, Any]] = {}
        decide: Optional[Dict[str, Any]] = None
        for span in self.spans:
            if span.kind == "decide":
                if decide is None:
                    decide = _new_row("decide", DECIDE)
                _fold(decide, span)
                continue
            row = rounds.get(span.round)
            if row is None:
                row = rounds[span.round] = _new_row(span.kind, span.round)
            _fold(row, span)
        out = self.identity()
        out["wall_time"] = self.wall_time
        out["n_interactions"] = self.n_interactions
        out["rounds"] = [_close_row(rounds[k]) for k in sorted(rounds)]
        out["decide"] = _close_row(decide) if decide else None
        return out


def _new_row(kind: str, round_index: int) -> Dict[str, Any]:
    return {
        "round": round_index,
        "kind": kind,
        "time_s": 0.0,
        "bits_max": 0,
        "bits_total": 0,
        "n_sites": 0,
        "n_spans": 0,
    }


def _fold(row: Dict[str, Any], span: Span) -> None:
    row["time_s"] += span.wall_time
    row["bits_max"] = max(row["bits_max"], span.bits_max)
    row["bits_total"] += span.bits_total
    row["n_sites"] += span.n_sites
    row["n_spans"] += 1


def _close_row(row: Dict[str, Any]) -> Dict[str, Any]:
    row["bits_mean"] = (
        row["bits_total"] / row["n_sites"] if row["n_sites"] else 0.0
    )
    return row


@dataclass
class _OpenRun:
    """Mutable state of the run currently being traced."""

    trace: RunTrace
    t_last: float
    #: id -> ordinal; the list pins the interactions alive so CPython
    #: cannot recycle an id mid-run (which would alias two interactions)
    ordinals: Dict[int, int] = field(default_factory=dict)
    refs: List[Any] = field(default_factory=list)


class Tracer(TraceHook):
    """Collects :class:`RunTrace` objects for the runs executed under it.

    The batched runtime builds a fresh tracer for each traced run and
    puts it in that run's context (next to the run's mutation tap), so
    traces can never bleed between runs.  Hooks fired while no run is
    open are ignored — :meth:`begin_run` opens the root span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.traces: List[RunTrace] = []
        self._run: Optional[_OpenRun] = None

    # -- run lifecycle -----------------------------------------------------

    def begin_run(self, task: str, n: int, seed: int, run_index: int) -> None:
        if self._run is not None:
            self.end_run()
        self._run = _OpenRun(
            trace=RunTrace(task=task, n=n, seed=seed, run_index=run_index),
            t_last=self.clock(),
        )

    def end_run(self) -> RunTrace:
        if self._run is None:
            raise RuntimeError("no run open: call begin_run first")
        trace = self._run.trace
        trace.wall_time = sum(s.wall_time for s in trace.spans)
        trace.n_interactions = len(self._run.ordinals)
        self._run = None
        self.traces.append(trace)
        return trace

    # -- the TraceHook interface ------------------------------------------

    def on_interaction_start(self, interaction) -> None:
        run = self._run
        if run is None:
            return
        run.ordinals[id(interaction)] = len(run.ordinals)
        run.refs.append(interaction)

    def _slice(self) -> float:
        now = self.clock()
        dt = now - self._run.t_last
        self._run.t_last = now
        return dt

    def _ordinal(self, interaction) -> int:
        return self._run.ordinals.get(id(interaction), 0)

    def on_verifier_round(self, interaction, coins) -> None:
        run = self._run
        if run is None:
            return
        widths = [c.width for c in coins.values()]
        span = Span(
            kind="verifier",
            round=interaction.transcript.n_rounds,
            interaction=self._ordinal(interaction),
            wall_time=self._slice(),
            n_sites=len(widths),
            bits_total=sum(widths),
            bits_max=max(widths, default=0),
        )
        run.trace.spans.append(span)
        metrics.observe(
            "repro_verifier_round_coin_bits",
            span.bits_max,
            help="max public-coin width per verifier round",
            round=str(span.round),
        )

    def on_prover_round(self, interaction, msg_index, labels, edge_labels) -> None:
        run = self._run
        if run is None:
            return
        sizes = [l.bit_size() for l in labels.values()]
        sizes += [l.bit_size() for l in edge_labels.values()]
        span = Span(
            kind="prover",
            round=interaction.transcript.n_rounds,
            interaction=self._ordinal(interaction),
            wall_time=self._slice(),
            n_sites=len(sizes),
            bits_total=sum(sizes),
            bits_max=max(sizes, default=0),
        )
        run.trace.spans.append(span)
        metrics.observe(
            "repro_prover_round_bits",
            span.bits_max,
            help="max prover label width per round (the paper's proof-size measure)",
            round=str(span.round),
        )

    def on_decide(self, interaction, result) -> None:
        run = self._run
        if run is None:
            return
        run.trace.spans.append(
            Span(
                kind="decide",
                round=DECIDE,
                interaction=self._ordinal(interaction),
                wall_time=self._slice(),
                n_sites=0,
                bits_total=0,
                bits_max=0,
            )
        )


@contextmanager
def trace_run(
    task: str, n: int, seed: int = 0, run_index: int = 0
) -> Iterator[Tracer]:
    """Trace the interactions of a block with a fresh tracer, as one run.

    The trace is finalized (and available as ``tracer.traces[-1]``) when
    the block exits; interactions created after the block see no tracer.
    """
    tracer = Tracer()
    tracer.begin_run(task=task, n=n, seed=seed, run_index=run_index)
    try:
        with run_context(tracer=tracer):
            yield tracer
    finally:
        if tracer._run is not None:
            tracer.end_run()
