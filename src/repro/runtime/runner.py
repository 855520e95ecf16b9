"""BatchRunner: fan protocol executions across processes, reproducibly.

The runner takes a protocol, an instance factory, and a run count, shards
the runs over a ``ProcessPoolExecutor``, and aggregates per-run results
into one :class:`BatchReport`.  Three invariants drive the design:

1. **Determinism** — run ``i`` of a batch with master seed ``s`` derives
   all of its randomness from ``SeedSequence(s).child(i)`` (see
   :mod:`repro.runtime.seeds`), so the set of per-run transcripts is
   identical whether the batch executes with ``workers=0`` (serially, in
   process) or on any number of workers.  ``BatchReport.canonical_json()``
   contains only this deterministic payload; wall-clock timings live next
   to it but outside the canonical identity.
2. **Picklability** — with ``workers > 0`` the protocol, instance factory
   and prover factory cross a process boundary; use module-level
   functions (e.g. from :mod:`repro.runtime.registry`) rather than
   lambdas or closures.
3. **Failure transparency** — under the default ``strict`` policy an
   exception in any run aborts the batch and re-raises the *original*
   exception in the caller (no hangs, no swallowed stack traces); a
   worker process dying outright surfaces as a ``RuntimeError`` naming
   the batch.  The ``retry`` and ``degrade`` policies route execution
   through :mod:`repro.runtime.resilience` instead: per-run wall-clock
   timeouts, capped-exponential retries with deterministic jitter, pool
   rebuilds after lost workers, and (``degrade``) partial reports whose
   ``failures`` list records what could not be completed — all failure
   metadata outside the canonical identity, like wall times.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.protocol import run_context
from ..obs import metrics as obs_metrics
from .backends import ExecutionBackend, ProcessPoolBackend, resolve_backend
from .cache import CachedFactory
from .seeds import SeedSequence


@dataclass(frozen=True)
class RunRecord:
    """Deterministic outcome of one run, plus its (non-canonical) timing."""

    index: int
    accepted: bool
    proof_size_bits: int
    n_rounds: int
    n_rejecting: int
    wall_time: float  # seconds; excluded from canonical identity
    #: adversary-specific per-run report (e.g. a MutatingProver's mutation
    #: record); JSON-safe, but excluded from the canonical identity so the
    #: serial/parallel byte-equality invariant is unchanged by adversaries
    #: that evolve their reporting.
    extra: Optional[Dict[str, Any]] = None

    def __post_init__(self):
        # probe JSON-safety at record time, so a non-serializable adversary
        # report fails naming its run instead of much later at dump time
        if self.extra is not None:
            try:
                json.dumps(self.extra)
            except (TypeError, ValueError) as exc:
                raise TypeError(
                    f"RunRecord.extra for run {self.index} is not JSON-safe: {exc}"
                ) from exc

    def canonical_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "accepted": self.accepted,
            "proof_size_bits": self.proof_size_bits,
            "n_rounds": self.n_rounds,
            "n_rejecting": self.n_rejecting,
        }


@dataclass
class BatchReport:
    """Aggregated outcome of a batch of runs.

    Everything in :meth:`canonical_dict` is a pure function of
    ``(protocol, factories, n, n_runs, master_seed)`` — byte-identical
    across serial and parallel execution.  ``wall_clock_total``,
    ``wall_time_per_run`` and ``workers`` describe how this particular
    execution went and are reported separately — as are ``failures``:
    under ``failure_policy="degrade"`` the report may be *partial*, with
    the runs that could not be completed listed as typed
    :class:`~repro.runtime.resilience.FailureRecord` entries.  Surviving
    records keep their fault-free canonical dicts (the determinism
    invariant of :mod:`repro.runtime.resilience`), so a degraded report's
    ``records`` are an index-subset of the fault-free reference.
    """

    protocol_name: str
    n: int
    n_runs: int
    master_seed: int
    records: List[RunRecord]
    workers: int = 0
    wall_clock_total: float = 0.0
    cache_stats: Optional[Dict[str, int]] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    #: runs the batch could not complete (degrade policy only); outside
    #: the canonical identity, like wall times and ``RunRecord.extra``
    failures: List[Any] = field(default_factory=list)
    failure_policy: str = "strict"

    # -- aggregates -------------------------------------------------------

    @property
    def n_accepted(self) -> int:
        return sum(r.accepted for r in self.records)

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / len(self.records) if self.records else math.nan

    @property
    def rejection_rate(self) -> float:
        return 1.0 - self.acceptance_rate

    @property
    def proof_size_max(self) -> int:
        return max((r.proof_size_bits for r in self.records), default=0)

    @property
    def proof_size_mean(self) -> float:
        if not self.records:
            return math.nan
        return sum(r.proof_size_bits for r in self.records) / len(self.records)

    @property
    def rounds_max(self) -> int:
        return max((r.n_rounds for r in self.records), default=0)

    @property
    def wall_time_per_run(self) -> float:
        if not self.records:
            return math.nan
        return sum(r.wall_time for r in self.records) / len(self.records)

    def acceptance_wilson_95(self) -> Tuple[float, float]:
        # imported lazily: analysis.experiments itself builds on this module
        from ..analysis.metrics import wilson_interval

        # zero-run guard: a fully degraded report has no records, and a
        # confidence interval over zero trials is as undefined as the rate
        if not self.records:
            return (math.nan, math.nan)
        return wilson_interval(self.n_accepted, len(self.records))

    def rejection_wilson_95(self) -> Tuple[float, float]:
        from ..analysis.metrics import wilson_interval

        if not self.records:
            return (math.nan, math.nan)
        return wilson_interval(
            len(self.records) - self.n_accepted, len(self.records)
        )

    # -- canonical payload ------------------------------------------------

    def canonical_dict(self) -> Dict[str, Any]:
        """The deterministic payload: identical for serial vs. parallel."""
        return {
            "protocol": self.protocol_name,
            "n": self.n,
            "n_runs": self.n_runs,
            "master_seed": self.master_seed,
            "acceptance_rate": self.acceptance_rate,
            "proof_size_max": self.proof_size_max,
            "proof_size_mean": self.proof_size_mean,
            "rounds_max": self.rounds_max,
            "records": [r.canonical_dict() for r in self.records],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    def summary(self) -> str:
        head = (
            f"{self.protocol_name}: {self.n_runs} runs @ n={self.n} "
            f"(seed {self.master_seed}, workers={self.workers}) | "
        )
        degraded = (
            f" | DEGRADED: {len(self.records)}/{self.n_runs} runs survived"
            if self.failures
            else ""
        )
        if not self.records:
            # zero survivors (empty batch, or every run dropped under the
            # degrade policy): rates and per-run times are undefined, so
            # say that instead of formatting nan into an operator report
            return (
                head
                + f"no surviving runs | {self.wall_clock_total:.2f}s total"
                + degraded
            )
        lo, hi = self.acceptance_wilson_95()
        return (
            head
            + f"accept {self.acceptance_rate:.4f} [{lo:.4f}, {hi:.4f}] | "
            f"proof max/mean {self.proof_size_max}/{self.proof_size_mean:.1f} b | "
            f"{self.wall_clock_total:.2f}s total, "
            f"{self.wall_time_per_run * 1000:.1f} ms/run" + degraded
        )

    def failure_table(self) -> str:
        """Plain-text table of the runs this batch could not complete."""
        if not self.failures:
            return "no failures"
        lines = [f"{'run':>6} | {'fault':<12} | {'attempts':>8} | {'elapsed':>8} | error"]
        for rec in self.failures:
            lines.append(
                f"{rec.index:>6} | {rec.fault:<12} | {rec.attempts:>8} | "
                f"{rec.elapsed:>7.2f}s | {rec.error}"
            )
        return "\n".join(lines)


@dataclass
class _BatchSpec:
    """Everything a worker needs to execute a shard (must pickle)."""

    protocol: Any
    instance_factory: Callable
    prover_factory: Optional[Callable]
    n: int
    master_seed: int
    #: deterministic chaos plan (see :mod:`repro.runtime.faults`); only
    #: consulted by the resilient execution path
    fault_plan: Optional[Any] = None
    #: run each run under a fresh :class:`repro.obs.tracer.Tracer` and ship
    #: the per-run trace summary back on ``RunRecord.extra["trace"]``
    #: (outside canonical identity, like everything else in ``extra``)
    trace: bool = False


def _build_instance(spec: _BatchSpec, instance_seed: int):
    factory = spec.instance_factory
    if isinstance(factory, CachedFactory) or hasattr(factory, "build_seeded"):
        return factory.build_seeded(spec.n, instance_seed)
    import random

    return factory(spec.n, random.Random(instance_seed))


def execute_one_run(spec: _BatchSpec, i: int) -> RunRecord:
    """Execute run ``i`` of a batch, from its own positional seed streams.

    The atom both execution paths (legacy strict and resilient) share:
    every call rebuilds the instance, prover, and protocol RNG from
    ``SeedSequence(master_seed).child(i)``, so re-executing a run — e.g.
    a retry after a transient fault — reproduces it exactly.
    """
    run_ss = SeedSequence(spec.master_seed).child(i)
    t0 = time.perf_counter()
    instance = _build_instance(spec, run_ss.child("instance").seed_int())
    prover = None
    if spec.prover_factory is not None:
        if getattr(spec.prover_factory, "wants_rng", False):
            prover = spec.prover_factory(
                instance, run_ss.child("adversary").rng()
            )
        else:
            prover = spec.prover_factory(instance)
    tracer = None
    if spec.trace:
        # imported lazily so the untraced path never touches repro.obs
        from ..obs.tracer import Tracer

        tracer = Tracer()
        tracer.begin_run(
            task=getattr(spec.protocol, "name", type(spec.protocol).__name__),
            n=spec.n,
            seed=spec.master_seed,
            run_index=i,
        )
    # the fuzz tap and the tracer belong to this run only: interactions
    # created outside the block (another thread's runs included) never
    # see them, whether the execution returns or raises
    with run_context(tap=getattr(prover, "tap", None), tracer=tracer):
        result = spec.protocol.execute(
            instance, prover=prover, rng=run_ss.child("protocol").rng()
        )
    trace = tracer.end_run().summary() if tracer is not None else None
    extra = None
    if prover is not None and hasattr(prover, "finalize_report"):
        extra = prover.finalize_report(result)
    if trace is not None:
        extra = dict(extra or {})
        extra["trace"] = trace
    return RunRecord(
        index=i,
        accepted=result.accepted,
        proof_size_bits=result.proof_size_bits,
        n_rounds=result.n_rounds,
        n_rejecting=len(result.rejecting_nodes),
        wall_time=time.perf_counter() - t0,
        extra=extra,
    )


def _execute_runs(spec: _BatchSpec, indices: Sequence[int]) -> Tuple[List[RunRecord], Optional[Dict[str, int]]]:
    """Execute the given run indices; the unit of work a worker receives."""
    cache = getattr(spec.instance_factory, "cache", None)
    stats_before = cache.stats() if cache is not None else None
    records = [execute_one_run(spec, i) for i in indices]
    stats_delta = None
    if stats_before is not None:
        after = cache.stats()
        stats_delta = {
            "hits": after["hits"] - stats_before["hits"],
            "misses": after["misses"] - stats_before["misses"],
        }
    return records, stats_delta


#: the batch spec installed in each worker process by the pool initializer.
#: Shipping the spec once per *worker* (instead of pickling it into every
#: shard submission) keeps shard messages down to a list of run indices —
#: the fix for the parallel path previously running slower than serial.
#: It stays a module global because the initializer sets it once for each
#: worker process, and each process runs only that one batch.
_WORKER_SPEC: Optional[_BatchSpec] = None


def _init_worker(spec: _BatchSpec) -> None:
    """ProcessPoolExecutor initializer: unpickle the spec once per worker."""
    global _WORKER_SPEC
    _WORKER_SPEC = spec


def _execute_shard(indices: Sequence[int]) -> Tuple[List[RunRecord], Optional[Dict[str, int]]]:
    """Worker-side shard entry point: indices in, records out."""
    spec = _WORKER_SPEC
    if spec is None:  # pragma: no cover - the initializer always ran first
        raise RuntimeError("worker received a shard before its initializer ran")
    return _execute_runs(spec, indices)


def _usable_cores() -> int:
    """CPU cores this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class BatchRunner:
    """Shard a batch of protocol runs across worker processes.

    ``workers=0`` executes serially in-process (the reference path that
    tier-1 tests pin the parallel path against); ``workers>=1`` uses a
    ``ProcessPoolExecutor`` with that many processes.  ``chunk_size``
    controls shard granularity (default: ~4 shards per worker).

    Where the runs execute is pluggable (see
    :mod:`repro.runtime.backends`): ``backend`` accepts a name
    (``"serial"``, ``"process"``, ``"remote[:host:port]"``) or an
    :class:`~repro.runtime.backends.ExecutionBackend` instance;
    ``None`` keeps the legacy mapping from ``workers``.  Every backend
    produces byte-identical canonical reports — the choice shows up only
    in ``report.meta["backend"]`` and wall-clock.  Swap mid-life with
    :meth:`set_backend`; per-execution facts like the usable-core clamp
    are re-checked on every ``run()``, not frozen at construction.

    Resilience knobs (see :mod:`repro.runtime.resilience`):

    - ``failure_policy`` — ``"strict"`` (default: first failure aborts),
      ``"retry"`` (retry each failed run, abort only when a run exhausts
      its budget), or ``"degrade"`` (exhausted runs become
      ``FailureRecord`` entries in a partial report).
    - ``run_timeout`` — per-run wall-clock deadline in seconds.
    - ``max_retries`` / ``backoff_base`` / ``backoff_cap`` — retry
      budget and capped-exponential backoff (deterministic jitter from
      the run's own ``"retry"`` seed stream).
    - ``fault_plan`` — a :class:`~repro.runtime.faults.FaultPlan` chaos
      plan to inject deterministic infrastructure faults.

    Observability knobs (see :mod:`repro.obs`):

    - ``trace`` — run every run under its own round-level tracer; the
      per-run summary rides back on ``RunRecord.extra["trace"]``.
    - ``journal`` — a :class:`~repro.obs.journal.Journal` the finished
      batch is streamed to (run/failure/trace events in run-index
      order).  A journal implies ``trace``.

    Neither knob touches the canonical report: traced and untraced
    batches have byte-identical ``canonical_json()``.

    With all knobs at their defaults the runner takes the legacy strict
    fast path, byte-for-byte as before; engaging any knob routes through
    the resilient engine.  Either way, runs that succeed are identical
    to the ``workers=0`` fault-free reference.
    """

    def __init__(
        self,
        protocol,
        instance_factory: Callable,
        *,
        prover_factory: Optional[Callable] = None,
        workers: int = 0,
        chunk_size: Optional[int] = None,
        failure_policy: str = "strict",
        run_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        fault_plan: Optional[Any] = None,
        trace: bool = False,
        journal: Optional[Any] = None,
        min_runs_per_shard: Optional[int] = None,
        backend: Optional[Any] = None,
    ):
        from .resilience import FAILURE_POLICIES

        if isinstance(protocol, type):
            # accept a protocol *class* (a common slip when wiring specs) by
            # instantiating it with defaults, rather than crashing four
            # frames deep inside execute()
            protocol = protocol()
        if not callable(getattr(protocol, "execute", None)):
            raise TypeError(
                "protocol must be a DIPProtocol instance (or a protocol "
                f"class constructible with no arguments); got {protocol!r} "
                "with no execute() method"
            )
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if min_runs_per_shard is not None and min_runs_per_shard < 1:
            raise ValueError("min_runs_per_shard must be >= 1")
        if failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {failure_policy!r}"
            )
        if run_timeout is not None and run_timeout <= 0:
            raise ValueError("run_timeout must be > 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_base < 0 or backoff_cap < backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_cap")
        self.protocol = protocol
        self.instance_factory = instance_factory
        self.prover_factory = prover_factory
        self.workers = workers
        self.chunk_size = chunk_size
        self.failure_policy = failure_policy
        self.run_timeout = run_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.fault_plan = fault_plan
        self.journal = journal
        self.trace = trace or journal is not None
        #: when set, batches too small to amortize process spawn cost (or
        #: boxes with a single usable core) silently run serially; the
        #: report notes the decision in ``meta["auto_serial"]``.  Default
        #: None = never second-guess the caller (tests that *need* the pool
        #: path, e.g. worker-crash injection, rely on that).
        self.min_runs_per_shard = min_runs_per_shard
        self._backend_spec = backend
        self._backend: Optional[ExecutionBackend] = None

    # -- backend plumbing --------------------------------------------------

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend, resolved lazily on first use."""
        if self._backend is None:
            self._backend = resolve_backend(
                self._backend_spec,
                workers=self.workers,
                chunk_size=self.chunk_size,
            )
        return self._backend

    def set_backend(self, backend: Any) -> ExecutionBackend:
        """Swap the execution backend (name or instance) and return it.

        Nothing execution-shaped is cached across the swap: core clamps,
        worker registration, and spec shipping all happen per ``run()``
        inside the backend, so a runner built under one CPU affinity (or
        backend) is safe to point somewhere else mid-life.
        """
        self._backend = resolve_backend(
            backend, workers=self.workers, chunk_size=self.chunk_size
        )
        return self._backend

    @property
    def _resilient(self) -> bool:
        """Whether any resilience knob routes us off the legacy fast path."""
        return (
            self.failure_policy != "strict"
            or self.run_timeout is not None
            or self.fault_plan is not None
        )

    # -- execution --------------------------------------------------------

    def run(self, n_runs: int, n: int, seed: int = 0) -> BatchReport:
        if n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        spec = _BatchSpec(
            protocol=self.protocol,
            instance_factory=self.instance_factory,
            prover_factory=self.prover_factory,
            n=n,
            master_seed=seed,
            fault_plan=self.fault_plan,
            trace=self.trace,
        )
        t0 = time.perf_counter()
        failures: List[Any] = []
        backend = self.backend
        auto_serial: Optional[str] = None
        if isinstance(backend, ProcessPoolBackend) and not self._resilient:
            # the pool is the only backend worth second-guessing: serial
            # has no spawn cost and remote workers may sit on wider boxes
            auto_serial = self._auto_serial_reason(n_runs)
        if auto_serial is not None:
            records, cache_stats = _execute_runs(spec, range(n_runs))
            backend_info = {"backend": "serial", "auto_serial": True}
        elif self._resilient:
            records, failures, cache_stats = backend.run_resilient(
                spec,
                n_runs,
                chunk_size=self.chunk_size,
                failure_policy=self.failure_policy,
                run_timeout=self.run_timeout,
                max_retries=self.max_retries,
                backoff_base=self.backoff_base,
                backoff_cap=self.backoff_cap,
            )
            backend_info = backend.last_run_info
        else:
            records, cache_stats = backend.run_strict(
                spec, n_runs, chunk_size=self.chunk_size
            )
            backend_info = backend.last_run_info
        records.sort(key=lambda r: r.index)
        report = BatchReport(
            protocol_name=getattr(self.protocol, "name", type(self.protocol).__name__),
            n=n,
            n_runs=n_runs,
            master_seed=seed,
            records=records,
            workers=self.workers,
            wall_clock_total=time.perf_counter() - t0,
            cache_stats=cache_stats,
            failures=failures,
            failure_policy=self.failure_policy,
        )
        if auto_serial is not None:
            # determinism makes this purely an execution note: the records
            # are identical either way, so it lives in meta, not the
            # canonical payload, and ``workers`` keeps the configured value
            report.meta["auto_serial"] = auto_serial
        if backend_info:
            # same reasoning: where the runs executed is an execution
            # fact, not part of the batch's identity
            report.meta["backend"] = backend_info
        if obs_metrics.enabled():
            obs_metrics.inc(
                "repro_backend_batches_total",
                help="batches executed, by backend",
                backend=backend_info.get("backend", backend.name),
            )
            obs_metrics.inc(
                "repro_runs_total", len(records),
                help="completed protocol runs", task=report.protocol_name,
            )
            for rec in records:
                obs_metrics.observe(
                    "repro_run_wall_seconds", rec.wall_time,
                    help="wall time per completed run",
                    buckets=(0.001, 0.01, 0.1, 1.0, 10.0, 60.0),
                    task=report.protocol_name,
                )
        if self.journal is not None:
            self.journal.record_batch(report)
        return report

    def _auto_serial_reason(self, n_runs: int) -> Optional[str]:
        """Why this batch should run serially despite ``workers > 0``.

        Returns None (use the pool) unless ``min_runs_per_shard`` is set
        and the batch is too small — or the box too narrow — for process
        parallelism to pay for its spawn-and-pickle overhead.  Only the
        strict path is eligible: the resilient engine owns its own pool
        (it needs one even for tiny batches, to survive worker loss).
        """
        if self.min_runs_per_shard is None or self._resilient:
            return None
        if n_runs < self.min_runs_per_shard * self.workers:
            return (
                f"n_runs={n_runs} < min_runs_per_shard="
                f"{self.min_runs_per_shard} x workers={self.workers}; "
                "spawn cost would dominate, ran serially"
            )
        cores = _usable_cores()
        if cores <= 1:
            return f"{cores} usable core(s); worker processes cannot overlap"
        return None
