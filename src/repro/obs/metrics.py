"""Lightweight counter/histogram registry with a no-op disabled path.

The runtime's hot loops (``execute_one_run``, the resilience coordinator)
call the module-level :func:`inc` / :func:`observe` helpers with
Prometheus-style metric names::

    inc("repro_run_retries_total")
    observe("repro_prover_round_bits", 118, round="3")

Metrics are **off by default**: the helpers test one module-level flag
and return, so an un-instrumented batch pays a single boolean check per
call site (every untraced perfbench op runs this path; perfbench's
``obs.trace_overhead`` measures tracing on top of it).  Enable
with :func:`enable` (or the :func:`enabled_metrics` context manager in
tests) to start accumulating into the process-global :data:`REGISTRY`.

Like every observability surface of this package, metric values live
*outside* the canonical run identity: enabling or disabling the registry
can never change a ``BatchReport.canonical_dict()``.

Registries are **per process**.  The coordinator-side counters (retries,
timeouts, pool rebuilds, degrade drops, runs total) always land in the
caller's registry; per-round histograms fired inside pool workers land
in the workers' own registries and die with them — run with
``workers=0`` (as ``repro trace`` does) to capture those in-process.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

_ENABLED = False

#: powers of two: the natural buckets for label/coin bit widths
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)

_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyz_0123456789")

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _check_name(name: str) -> str:
    if not name or not set(name) <= _NAME_OK or name[0].isdigit():
        raise ValueError(
            f"bad metric name {name!r}: want snake_case ascii, e.g. "
            f"repro_run_retries_total"
        )
    return name


class Counter:
    """Monotonic counter, one value per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.values: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1, **labels: str) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {value})")
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0) + value

    def value(self, **labels: str) -> float:
        return self.values.get(_label_key(labels), 0)


class Gauge:
    """Settable point-in-time value, one per label set (queue depths,
    in-flight counts — things that go down as well as up)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self.values[_label_key(labels)] = value

    def inc(self, value: float = 1, **labels: str) -> None:
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0) + value

    def dec(self, value: float = 1, **labels: str) -> None:
        self.inc(-value, **labels)

    def value(self, **labels: str) -> float:
        return self.values.get(_label_key(labels), 0)


class Histogram:
    """Cumulative-bucket histogram, one series per label set."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ):
        self.name = _check_name(name)
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        #: label key -> (per-bucket counts + overflow, total count, total sum)
        self.series: Dict[LabelKey, Tuple[List[int], int, float]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        counts, count, total = self.series.get(
            key, ([0] * (len(self.buckets) + 1), 0, 0.0)
        )
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        self.series[key] = (counts, count + 1, total + value)

    def count(self, **labels: str) -> int:
        return self.series.get(_label_key(labels), (None, 0, 0.0))[1]

    def sum(self, **labels: str) -> float:
        return self.series.get(_label_key(labels), (None, 0, 0.0))[2]

    def mean(self, **labels: str) -> float:
        _, count, total = self.series.get(_label_key(labels), (None, 0, 0.0))
        return total / count if count else math.nan


class MetricsRegistry:
    """Create-or-get registry of named metrics."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind: type, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = kind(name, **kwargs)
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {kind.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, help=help, buckets=buckets)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        self._metrics.clear()

    # -- exposition --------------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition of every registered metric."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, (Counter, Gauge)):
                for key in sorted(metric.values):
                    lines.append(
                        f"{name}{_fmt_labels(key)} {_fmt_value(metric.values[key])}"
                    )
            else:
                for key in sorted(metric.series):
                    counts, count, total = metric.series[key]
                    cum = 0
                    for bound, c in zip(metric.buckets, counts):
                        cum += c
                        lines.append(
                            f"{name}_bucket{_fmt_labels(key, le=_fmt_value(bound))} {cum}"
                        )
                    lines.append(
                        f'{name}_bucket{_fmt_labels(key, le="+Inf")} {count}'
                    )
                    lines.append(f"{name}_sum{_fmt_labels(key)} {_fmt_value(total)}")
                    lines.append(f"{name}_count{_fmt_labels(key)} {count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _fmt_labels(key: LabelKey, **extra: str) -> str:
    pairs = list(key) + sorted(extra.items())
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


#: the process-global registry the module-level helpers accumulate into.
#: Unlike a run's tap and tracer it stays a module global on purpose: it
#: is a process-wide Prometheus-style sink that sums over every run and
#: thread, and benchmark sessions read it through ``enabled_metrics`` and
#: ``REGISTRY``.  The ``_ENABLED`` switch is process-wide for the same reason.
REGISTRY = MetricsRegistry()


def enable() -> None:
    """Start accumulating metrics into :data:`REGISTRY`."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Back to the no-op fast path (accumulated values are kept)."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    return _ENABLED


@contextmanager
def enabled_metrics(fresh: bool = True) -> Iterator[MetricsRegistry]:
    """Enable metrics for a block (and, by default, start from a clean slate)."""
    was = _ENABLED
    if fresh:
        REGISTRY.reset()
    enable()
    try:
        yield REGISTRY
    finally:
        if not was:
            disable()


def inc(name: str, value: float = 1, help: str = "", **labels: str) -> None:
    """Increment counter ``name`` (no-op unless metrics are enabled)."""
    if not _ENABLED:
        return
    REGISTRY.counter(name, help=help).inc(value, **labels)


def set_gauge(name: str, value: float, help: str = "", **labels: str) -> None:
    """Set gauge ``name`` (no-op unless metrics are enabled)."""
    if not _ENABLED:
        return
    REGISTRY.gauge(name, help=help).set(value, **labels)


def observe(
    name: str,
    value: float,
    help: str = "",
    buckets: Optional[Sequence[float]] = None,
    **labels: str,
) -> None:
    """Observe ``value`` into histogram ``name`` (no-op unless enabled)."""
    if not _ENABLED:
        return
    if buckets is None:
        REGISTRY.histogram(name, help=help).observe(value, **labels)
    else:
        REGISTRY.histogram(name, help=help, buckets=buckets).observe(value, **labels)
