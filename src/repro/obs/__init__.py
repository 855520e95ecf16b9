"""Structured observability: round-level tracing, wire metrics, journaling.

Three pillars, all strictly *outside* the canonical run identity (a
traced, metered, journaled batch produces a ``BatchReport`` byte-identical
to an unobserved one — pinned in ``tests/test_obs.py``):

* :mod:`~repro.obs.tracer` — a :class:`Tracer` hook that a run carries
  in its :func:`~repro.core.protocol.run_context`, emitting per-round
  spans (coin widths, label bits, wall-time slices) that nest under a
  deterministic ``(task, n, seed, run_index)`` root.
* :mod:`~repro.obs.metrics` — a process-wide Prometheus-style
  counter/histogram registry with a one-boolean-check no-op path when
  disabled; incremented from the runner and the resilience coordinator.
* :mod:`~repro.obs.journal` — a JSONL event journal that
  ``BatchRunner`` streams run/failure/trace events to, merged per shard
  and ordered by run index under any worker layout.
"""

from . import metrics
from .journal import EVENT_TYPES, Journal, strip_timing
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    disable,
    enable,
    enabled,
    enabled_metrics,
    inc,
    observe,
)
from .tracer import DECIDE, RunTrace, Span, Tracer, trace_run

__all__ = [
    "Counter",
    "DECIDE",
    "EVENT_TYPES",
    "Histogram",
    "Journal",
    "MetricsRegistry",
    "REGISTRY",
    "RunTrace",
    "Span",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "enabled_metrics",
    "inc",
    "metrics",
    "observe",
    "strip_timing",
    "trace_run",
]
