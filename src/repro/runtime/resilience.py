"""Resilient batch execution: per-run timeouts, retries, degraded reports.

PR 1's :class:`~repro.runtime.runner.BatchRunner` is deliberately brittle
("an exception in any run aborts the batch").  This module is the layer
that makes large Monte Carlo sweeps survive infrastructure faults — the
injected ones of :mod:`repro.runtime.faults` and the real ones they
model — without ever compromising the runtime's central invariant:

    **a run that succeeds after retries is byte-identical to its
    fault-free serial counterpart.**

That invariant is structural, not aspirational: every attempt of run
``i`` rebuilds its instance and RNGs from scratch out of
``SeedSequence(master_seed).child(i)``, and all retry/backoff randomness
lives in a *separate* child stream (``child(i).child("retry")``), so
retrying can never perturb the run's own draw.  All failure and attempt
metadata stays outside ``BatchReport.canonical_dict()``, next to wall
times, exactly like ``RunRecord.extra``.

Failure policies (:data:`FAILURE_POLICIES`):

``strict``
    PR-1 semantics: the first failure aborts the batch and re-raises
    (the original exception where it survived pickling).
``retry``
    each failed run is retried up to ``max_retries`` times with capped
    exponential backoff + deterministic jitter; a run that exhausts its
    budget aborts the batch (:class:`RetryExhaustedError`).
``degrade``
    like ``retry``, but exhausted runs become typed
    :class:`FailureRecord` entries in a *partial* report whose surviving
    records are an index-subset of the fault-free reference.

Mechanics: per-run wall-clock timeouts use ``SIGALRM`` (available in the
coordinating main thread and in pool workers, which execute tasks on
their main thread); where ``SIGALRM`` is unavailable the deadline is not
enforced in-process and only the coordinator-side backstop applies.  A
worker hard-killed mid-shard (``BrokenProcessPool``) or blown far past
its deadline (hung beyond the in-worker alarm) costs the whole pool: the
coordinator terminates it, rebuilds a fresh one, and resubmits the lost
shards — each lost run consuming one attempt.
"""

from __future__ import annotations

import math
import pickle
import signal
import threading
import time
from collections import defaultdict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from .faults import InjectedFault
from .seeds import retry_jitter

try:  # pragma: no cover - exercised only when a worker dies hard
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover
    BrokenProcessPool = None

FAILURE_POLICIES = ("strict", "retry", "degrade")

#: fault classification labels carried by :class:`FailureRecord`
FAULT_LABELS = ("raise", "timeout", "worker-lost", "error")


class RunTimeoutError(RuntimeError):
    """A run blew its per-run wall-clock deadline."""


class RetryExhaustedError(RuntimeError):
    """A run kept failing after its whole retry budget (policy=retry)."""


@dataclass(frozen=True)
class FailureRecord:
    """Typed record of one run the batch could not complete (JSON-safe).

    Lives in ``BatchReport.failures`` — *outside* the canonical identity,
    like wall times and ``RunRecord.extra``.
    """

    index: int
    fault: str  #: one of :data:`FAULT_LABELS`
    attempts: int  #: attempts consumed (1 = failed with no retry)
    elapsed: float  #: seconds measured across attempts (0 for lost workers)
    error: str  #: repr of the last error seen

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "fault": self.fault,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
            "error": self.error,
        }


def backoff_delay(
    master_seed: int,
    run_index: int,
    failed_attempt: int,
    base: float,
    cap: float,
) -> float:
    """Deterministic capped-exponential backoff before the next attempt.

    ``base * 2**failed_attempt`` capped at ``cap``, scaled into
    ``[0.5, 1.0)`` by jitter drawn from the run's own ``"retry"`` seed
    stream — a pure function of ``(master_seed, run_index,
    failed_attempt)``, so replaying a chaos batch replays its waits too.
    """
    raw = min(cap, base * (2.0 ** failed_attempt))
    return raw * (0.5 + 0.5 * retry_jitter(master_seed, run_index, failed_attempt))


# ---------------------------------------------------------------------------
# per-run deadline
# ---------------------------------------------------------------------------


def _sigalrm_usable() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def run_deadline(seconds: Optional[float]):
    """Raise :class:`RunTimeoutError` if the body runs past ``seconds``.

    Uses ``SIGALRM``; in contexts where that is unavailable (non-main
    thread, non-POSIX) the deadline is not enforced here and only the
    pool-level backstop applies.
    """
    if seconds is None or not _sigalrm_usable():
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeoutError(f"run exceeded its {seconds}s wall-clock deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# one attempt of one run
# ---------------------------------------------------------------------------


@dataclass
class _RunOutcome:
    """What one attempt of one run produced (must pickle)."""

    index: int
    record: Optional[Any] = None  #: RunRecord on success
    fault: Optional[str] = None  #: FAULT_LABELS entry on failure
    error: Optional[str] = None  #: repr of the failure
    exc: Optional[BaseException] = None  #: original exception, if it pickles
    elapsed: float = 0.0


def _classify(exc: BaseException) -> str:
    if isinstance(exc, InjectedFault):
        return "raise"
    if isinstance(exc, RunTimeoutError):
        return "timeout"
    return "error"


def _picklable_or_none(exc: BaseException) -> Optional[BaseException]:
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return None


def _attempt_run(
    spec, index: int, attempt: int, run_timeout: Optional[float], in_worker: bool
) -> _RunOutcome:
    from .runner import execute_one_run  # runner imports us lazily; avoid a cycle

    t0 = time.perf_counter()
    try:
        with run_deadline(run_timeout):
            if spec.fault_plan is not None:
                spec.fault_plan.fire(index, attempt, in_worker=in_worker)
            record = execute_one_run(spec, index)
    except Exception as exc:
        return _RunOutcome(
            index=index,
            fault=_classify(exc),
            error=repr(exc),
            exc=_picklable_or_none(exc) if in_worker else exc,
            elapsed=time.perf_counter() - t0,
        )
    return _RunOutcome(index=index, record=record, elapsed=time.perf_counter() - t0)


def _execute_resilient_shard(
    spec,
    indices: Sequence[int],
    attempts: Dict[int, int],
    run_timeout: Optional[float],
    in_worker: bool = True,
) -> Tuple[List[_RunOutcome], Optional[Dict[str, int]]]:
    """Worker entry point: run a shard, catching per-run failures.

    Unlike the legacy ``_execute_runs``, failures do not escape (except a
    ``kill`` fault's ``os._exit``, which nothing can catch): each run
    reports an outcome, so one bad run never poisons its shard-mates.

    ``in_worker`` stays True in disposable pool/agent processes; the
    in-process remote worker harness of :mod:`repro.runtime.remote`
    passes False so a planned ``kill`` degrades to a transient raise
    instead of taking down the hosting interpreter.
    """
    cache = getattr(spec.instance_factory, "cache", None)
    stats_before = cache.stats() if cache is not None else None
    outcomes = [
        _attempt_run(spec, i, attempts.get(i, 0), run_timeout, in_worker=in_worker)
        for i in indices
    ]
    stats_delta = None
    if stats_before is not None:
        after = cache.stats()
        stats_delta = {
            "hits": after["hits"] - stats_before["hits"],
            "misses": after["misses"] - stats_before["misses"],
        }
    return outcomes, stats_delta


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------


def _spec_context(spec) -> str:
    name = getattr(spec.protocol, "name", type(spec.protocol).__name__)
    return f"{name} (n={spec.n}, seed={spec.master_seed})"


def _shard(indices: Sequence[int], chunk: int) -> List[List[int]]:
    indices = list(indices)
    return [indices[lo : lo + chunk] for lo in range(0, len(indices), chunk)]


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down hard: cancel queued work and kill its processes."""
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):  # pragma: no branch
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass


class _ResilientExecution:
    """State machine for one resilient batch (serial or pooled)."""

    def __init__(
        self,
        spec,
        n_runs: int,
        *,
        workers: int,
        chunk_size: Optional[int],
        failure_policy: str,
        run_timeout: Optional[float],
        max_retries: int,
        backoff_base: float,
        backoff_cap: float,
    ):
        self.spec = spec
        self.n_runs = n_runs
        self.workers = workers
        self.chunk = chunk_size or (
            max(1, math.ceil(n_runs / (workers * 4))) if workers else n_runs
        )
        self.policy = failure_policy
        self.run_timeout = run_timeout
        self.retries = 0 if failure_policy == "strict" else max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.attempts: Dict[int, int] = defaultdict(int)
        self.elapsed: Dict[int, float] = defaultdict(float)
        self.records: Dict[int, Any] = {}
        self.failures: Dict[int, FailureRecord] = {}

    # -- shared failure bookkeeping ---------------------------------------

    def _note_failure(
        self,
        index: int,
        fault: str,
        error: str,
        exc: Optional[BaseException],
        retry_indices: List[int],
    ) -> None:
        """One attempt of ``index`` failed; decide retry / abort / degrade."""
        if fault == "timeout":
            obs_metrics.inc(
                "repro_run_timeouts_total",
                help="run attempts that blew their wall-clock deadline",
            )
        if self.policy == "strict":
            if exc is not None:
                raise exc
            raise RuntimeError(
                f"run {index} of {_spec_context(self.spec)} failed "
                f"[{fault}]: {error}"
            )
        if self.attempts[index] <= self.retries:
            retry_indices.append(index)
            obs_metrics.inc(
                "repro_run_retries_total",
                help="run attempts resubmitted after a failure",
                fault=fault,
            )
            return
        if self.policy == "retry":
            raise RetryExhaustedError(
                f"run {index} of {_spec_context(self.spec)} still failing "
                f"after {self.attempts[index]} attempts [{fault}]: {error}"
            ) from exc
        obs_metrics.inc(
            "repro_degrade_drops_total",
            help="runs dropped from a degraded report after exhausting retries",
            fault=fault,
        )
        self.failures[index] = FailureRecord(
            index=index,
            fault=fault,
            attempts=self.attempts[index],
            elapsed=round(self.elapsed[index], 6),
            error=error,
        )

    def absorb_wave(
        self,
        outcomes: Sequence[_RunOutcome],
        lost: Sequence[Tuple[int, str]],
        lost_detail: str = "worker died or hung",
    ) -> List[int]:
        """Fold one wave's outcomes and losses into the execution state.

        Every outcome and loss consumes one attempt of its run; failures
        route through :meth:`_note_failure` (which raises under strict /
        exhausted-retry policies).  Returns the sorted run indices to
        resubmit.  Shared by the pooled path and the remote coordinator —
        the policy semantics must not depend on where shards executed.
        """
        retry: List[int] = []
        for outcome in outcomes:
            self.attempts[outcome.index] += 1
            self.elapsed[outcome.index] += outcome.elapsed
            if outcome.record is not None:
                self.records[outcome.index] = outcome.record
            else:
                self._note_failure(
                    outcome.index,
                    outcome.fault,
                    outcome.error,
                    outcome.exc,
                    retry,
                )
        for index, fault in lost:
            self.attempts[index] += 1
            self._note_failure(
                index,
                fault,
                f"shard lost: {lost_detail} while batching "
                f"{_spec_context(self.spec)}",
                None,
                retry,
            )
        retry.sort()
        return retry

    def _backoff(self, retry_indices: Sequence[int]) -> None:
        delay = max(
            backoff_delay(
                self.spec.master_seed,
                i,
                self.attempts[i] - 1,
                self.backoff_base,
                self.backoff_cap,
            )
            for i in retry_indices
        )
        time.sleep(delay)

    def results(self) -> Tuple[List[Any], List[FailureRecord]]:
        records = [self.records[i] for i in sorted(self.records)]
        failures = [self.failures[i] for i in sorted(self.failures)]
        return records, failures

    # -- serial path -------------------------------------------------------

    def run_serial(self) -> Tuple[List[Any], List[FailureRecord], Optional[Dict[str, int]]]:
        spec = self.spec
        cache = getattr(spec.instance_factory, "cache", None)
        stats_before = cache.stats() if cache is not None else None
        for i in range(self.n_runs):
            while True:
                outcome = _attempt_run(
                    spec, i, self.attempts[i], self.run_timeout, in_worker=False
                )
                self.attempts[i] += 1
                self.elapsed[i] += outcome.elapsed
                if outcome.record is not None:
                    self.records[i] = outcome.record
                    break
                retry: List[int] = []
                self._note_failure(
                    i, outcome.fault, outcome.error, outcome.exc, retry
                )
                if not retry:
                    break  # degraded: recorded as a failure
                self._backoff(retry)
        stats = None
        if stats_before is not None:
            after = cache.stats()
            stats = {
                "hits": after["hits"] - stats_before["hits"],
                "misses": after["misses"] - stats_before["misses"],
            }
        records, failures = self.results()
        return records, failures, stats

    # -- pooled path -------------------------------------------------------

    def run_pooled(self) -> Tuple[List[Any], List[FailureRecord], Optional[Dict[str, int]]]:
        cache_stats: Optional[Dict[str, int]] = None
        pool = ProcessPoolExecutor(max_workers=self.workers)
        wave = _shard(range(self.n_runs), self.chunk)
        try:
            while wave:
                outcomes, lost, stats_deltas, pool = self._run_wave(pool, wave)
                for delta in stats_deltas:
                    if cache_stats is None:
                        cache_stats = {"hits": 0, "misses": 0}
                    cache_stats["hits"] += delta["hits"]
                    cache_stats["misses"] += delta["misses"]
                retry = self.absorb_wave(outcomes, lost)
                if retry:
                    self._backoff(retry)
                    wave = _shard(retry, self.chunk)
                else:
                    wave = []
        finally:
            _terminate_pool(pool)
        records, failures = self.results()
        return records, failures, cache_stats

    def _run_wave(
        self, pool: ProcessPoolExecutor, shards: List[List[int]]
    ) -> Tuple[List[_RunOutcome], List[Tuple[int, str]], List[Dict[str, int]], ProcessPoolExecutor]:
        """Submit one wave of shards; collect outcomes and lost runs.

        Returns the (possibly rebuilt) pool: a ``kill`` fault breaks the
        whole ``ProcessPoolExecutor``, and a worker hung past the
        coordinator-side backstop deadline can only be reclaimed by
        terminating the pool; either way the next wave gets a fresh one.
        """
        futures: Dict[Any, List[int]] = {}
        deadlines: Dict[Any, Optional[float]] = {}
        for shard in shards:
            fut = pool.submit(
                _execute_resilient_shard,
                self.spec,
                shard,
                {i: self.attempts[i] for i in shard},
                self.run_timeout,
            )
            futures[fut] = shard
            deadlines[fut] = (
                None
                if self.run_timeout is None
                # generous backstop: the in-worker SIGALRM should fire far
                # earlier; this only triggers for alarm-immune hangs
                else time.monotonic() + self.run_timeout * (3 * len(shard) + 2) + 1.0
            )
        outcomes: List[_RunOutcome] = []
        lost: List[Tuple[int, str]] = []
        stats_deltas: List[Dict[str, int]] = []
        pending = set(futures)
        broken = False
        while pending:
            poll = None if self.run_timeout is None else 0.05
            done, _ = wait(pending, timeout=poll, return_when=FIRST_COMPLETED)
            for fut in done:
                pending.discard(fut)
                try:
                    shard_outcomes, delta = fut.result()
                except Exception as exc:
                    if BrokenProcessPool is not None and isinstance(
                        exc, BrokenProcessPool
                    ):
                        # every sibling future is (or is about to be)
                        # failed by the executor; drain them via the loop
                        broken = True
                        lost.extend((i, "worker-lost") for i in futures[fut])
                        continue
                    raise
                else:
                    outcomes.extend(shard_outcomes)
                    if delta is not None:
                        stats_deltas.append(delta)
            if pending and self.run_timeout is not None:
                now = time.monotonic()
                overdue = {
                    fut
                    for fut in pending
                    if deadlines[fut] is not None and now > deadlines[fut]
                }
                if overdue:
                    _terminate_pool(pool)
                    for fut in pending:
                        label = "timeout" if fut in overdue else "worker-lost"
                        lost.extend((i, label) for i in futures[fut])
                    pending = set()
                    broken = True
        if broken:
            _terminate_pool(pool)
            pool = ProcessPoolExecutor(max_workers=self.workers)
            obs_metrics.inc(
                "repro_pool_rebuilds_total",
                help="process pools rebuilt after a lost or hung worker",
            )
        return outcomes, lost, stats_deltas, pool


def run_resilient(
    spec,
    n_runs: int,
    *,
    workers: int,
    chunk_size: Optional[int],
    failure_policy: str,
    run_timeout: Optional[float],
    max_retries: int,
    backoff_base: float,
    backoff_cap: float,
) -> Tuple[List[Any], List[FailureRecord], Optional[Dict[str, int]]]:
    """Execute a batch through the resilience layer.

    Returns ``(records, failures, cache_stats)`` with records sorted by
    run index; raises under ``strict`` (first failure) and ``retry``
    (budget exhausted) policies.
    """
    execution = _ResilientExecution(
        spec,
        n_runs,
        workers=workers,
        chunk_size=chunk_size,
        failure_policy=failure_policy,
        run_timeout=run_timeout,
        max_retries=max_retries,
        backoff_base=backoff_base,
        backoff_cap=backoff_cap,
    )
    if workers == 0:
        return execution.run_serial()
    return execution.run_pooled()
