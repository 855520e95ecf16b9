"""The one batch engine: waves of shards under a failure policy.

Every batch a :class:`~repro.runtime.runner.BatchRunner` runs executes
through :class:`_BatchExecution`, whichever backend it is on.  The
engine owns one wave loop: tile the pending runs into shards, execute
the wave, fold each outcome in as it arrives, and resubmit whatever the
failure policy retries.  Backends differ only in how a wave of shards
executes: in process (:meth:`_BatchExecution.run_serial`), on a local
process pool (:meth:`_BatchExecution.run_pooled`), or over a socket
(:class:`~repro.runtime.remote.RemoteWorkerBackend`).  The engine keeps
the runtime's central invariant:

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
    the default: the first failure aborts the batch and re-raises (the
    original exception where it survived pickling; from a remote worker,
    a ``RuntimeError`` caused by the worker's traceback).  On the serial path
    no later run starts; on a pool the queued shards are cancelled and
    the workers terminated, so an abort never waits on a hung sibling.
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

import pickle
import signal
import threading
import time
import traceback
from collections import defaultdict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from . import runner
from .backends import BatchResult, plan_shards, shard_size
from .faults import InjectedFault
from .seeds import retry_jitter

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
    elapsed: float = 0.0  #: seconds the failed attempt took
    #: formatted traceback of a failure in a worker process, where the
    #: exception itself crosses back without its frames
    worker_traceback: Optional[str] = None


class _RemoteTraceback(Exception):
    """Carries a worker's formatted traceback as a re-raised error's cause."""

    def __str__(self) -> str:
        return self.args[0]


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


def _fire_and_run(spec, index: int, attempt: int, in_worker: bool):
    if spec.fault_plan is not None:
        spec.fault_plan.fire(index, attempt, in_worker=in_worker)
    # looked up on the module at call time, so a wrapper installed there
    # (a profiler's, a test's) sees every run
    return runner.execute_one_run(spec, index)


def _attempt_run(
    spec,
    index: int,
    attempt: int,
    run_timeout: Optional[float],
    in_worker: bool,
) -> _RunOutcome:
    """One attempt of run ``index``; a failure becomes an outcome, not a raise.

    Without a deadline the attempt enters no context manager.
    """
    t0 = time.perf_counter()
    try:
        if run_timeout is None:
            record = _fire_and_run(spec, index, attempt, in_worker)
        else:
            with run_deadline(run_timeout):
                record = _fire_and_run(spec, index, attempt, in_worker)
    except Exception as exc:
        return _RunOutcome(
            index=index,
            fault=_classify(exc),
            error=repr(exc),
            exc=_picklable_or_none(exc) if in_worker else exc,
            elapsed=time.perf_counter() - t0,
            worker_traceback=traceback.format_exc() if in_worker else None,
        )
    return _RunOutcome(index, record)


def _stats_delta(cache, before: Optional[Dict[str, int]]) -> Optional[Dict[str, int]]:
    """Instance-cache hits and misses since ``before`` (None without a cache)."""
    if before is None:
        return None
    after = cache.stats()
    return {
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
    }


def _run_shard(
    spec,
    indices: Sequence[int],
    attempts: Dict[int, int],
    run_timeout: Optional[float],
    in_worker: bool = True,
) -> Tuple[List[_RunOutcome], Optional[Dict[str, int]]]:
    """Worker entry point: run a shard, catching per-run failures.

    Failures do not escape (except a ``kill`` fault's ``os._exit``,
    which nothing can catch): each run reports an outcome, so one bad
    run never poisons its shard-mates.

    ``in_worker`` stays True in disposable pool/agent processes; the
    in-process remote worker harness of :mod:`repro.runtime.remote`
    passes False so a planned ``kill`` degrades to a transient raise
    instead of taking down the hosting interpreter.
    """
    cache = getattr(spec.instance_factory, "cache", None)
    before = cache.stats() if cache is not None else None
    outcomes = [
        _attempt_run(spec, i, attempts.get(i, 0), run_timeout, in_worker)
        for i in indices
    ]
    return outcomes, _stats_delta(cache, before)


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------


def _spec_context(spec) -> str:
    name = getattr(spec.protocol, "name", type(spec.protocol).__name__)
    return f"{name} (n={spec.n}, seed={spec.master_seed})"


#: how long a terminated worker, then the pool's manager thread, may take
#: to exit before a worker is killed or the manager is left behind
_REAP_S = 5.0


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down hard: cancel queued work and kill its processes.

    The processes and the pool's manager thread are taken before
    ``shutdown``, which drops the pool's references to them; a hung worker
    left alive would hold the interpreter's exit until its hang ended.
    The workers are then reaped (killed if they outlive SIGTERM) and the
    manager thread joined, so nothing is left to write to the pool's
    closed wakeup pipe when the interpreter exits.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:  # pragma: no branch
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for proc in processes:
        proc.join(_REAP_S)
        if proc.exitcode is None:  # pragma: no cover - ignored SIGTERM
            proc.kill()
            proc.join()
    if manager is not None:
        manager.join(_REAP_S)


class _BatchExecution:
    """State machine for one batch: the wave loop every backend shares."""

    def __init__(
        self,
        spec,
        n_runs: int,
        *,
        workers: int,
        chunk_size: Optional[int] = None,
        failure_policy: str = "strict",
        run_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        self.spec = spec
        self.n_runs = n_runs
        self.workers = workers
        #: fixed for every wave, so a retry wave tiles its runs the way
        #: the first wave did (a pool kill charges the same shard-mates)
        self.chunk = shard_size(n_runs, workers=workers, chunk_size=chunk_size)
        self.policy = failure_policy
        self.run_timeout = run_timeout
        self.retries = 0 if failure_policy == "strict" else max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.attempts: Dict[int, int] = defaultdict(int)
        self.elapsed: Dict[int, float] = defaultdict(float)
        self.records: Dict[int, Any] = {}
        self.failures: Dict[int, FailureRecord] = {}
        self.cache_stats: Optional[Dict[str, int]] = None
        self.retry: List[int] = []  #: runs the current wave resubmits
        self.pool: Optional[ProcessPoolExecutor] = None

    # -- the wave loop -----------------------------------------------------

    def run(self, execute_wave: Callable[[List[List[int]]], None]) -> BatchResult:
        """Execute the batch wave by wave until no run is left to retry.

        ``execute_wave(shards)`` runs one wave and folds every outcome in
        through :meth:`absorb` / :meth:`absorb_lost`, which raise under
        the ``strict`` and exhausted-``retry`` policies.  Returns
        ``(records, failures, cache_stats)`` sorted by run index.
        """
        wave = list(range(self.n_runs))
        while wave:
            self.retry = []
            execute_wave(plan_shards(wave, chunk_size=self.chunk))
            wave = sorted(self.retry)
            if wave:
                self._backoff(wave)
        records = [self.records[i] for i in sorted(self.records)]
        failures = [self.failures[i] for i in sorted(self.failures)]
        return records, failures, self.cache_stats

    # -- folding outcomes in -----------------------------------------------

    def absorb(
        self,
        outcomes: Sequence[_RunOutcome],
        stats: Optional[Dict[str, int]] = None,
    ) -> None:
        """Fold one shard's finished attempts and cache-stats delta in.

        The policy semantics never depend on where the shard executed.
        """
        if stats is not None:
            if self.cache_stats is None:
                self.cache_stats = {"hits": 0, "misses": 0}
            self.cache_stats["hits"] += stats["hits"]
            self.cache_stats["misses"] += stats["misses"]
        for outcome in outcomes:
            self._absorb_one(outcome)

    def _absorb_one(self, outcome: _RunOutcome) -> None:
        """Keep a success; charge a failure one attempt and apply the policy.

        Only failed attempts are counted: a run that succeeded never runs
        again, so its count would never be read.  :meth:`_note_failure`
        raises under ``strict`` and on an exhausted ``retry`` budget.
        """
        index = outcome.index
        if outcome.record is not None:
            self.records[index] = outcome.record
            return
        self.attempts[index] += 1
        self.elapsed[index] += outcome.elapsed
        exc = outcome.exc
        cause = None
        if outcome.worker_traceback is not None:
            cause = _RemoteTraceback(outcome.worker_traceback)
            if exc is not None:
                exc.__cause__ = cause
        self._note_failure(index, outcome.fault, outcome.error, exc, cause)

    def absorb_lost(
        self,
        lost: Sequence[Tuple[int, str]],
        detail: str = "worker died or hung",
    ) -> None:
        """Runs whose shard never reported back: one attempt each."""
        for index, fault in lost:
            self.attempts[index] += 1
            self._note_failure(
                index,
                fault,
                f"shard lost: {detail} while batching {_spec_context(self.spec)}",
                None,
            )

    def _note_failure(
        self,
        index: int,
        fault: str,
        error: str,
        exc: Optional[BaseException],
        cause: Optional[BaseException] = None,
    ) -> None:
        """One attempt of ``index`` failed; decide retry / abort / degrade.

        Under ``strict`` the original exception is re-raised; without one
        (a lost shard, or a run on a remote worker) a ``RuntimeError``
        naming the run is, caused by the worker's traceback if any.
        """
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
            ) from cause
        if self.attempts[index] <= self.retries:
            self.retry.append(index)
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
            ) from (exc or cause)
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

    # -- serial waves ------------------------------------------------------

    def run_serial(self) -> BatchResult:
        return self.run(self._serial_wave)

    def _serial_wave(self, shards: List[List[int]]) -> None:
        """Run a wave in process, absorbing each run before the next starts."""
        spec = self.spec
        cache = getattr(spec.instance_factory, "cache", None)
        before = cache.stats() if cache is not None else None
        for shard in shards:
            for i in shard:
                self._absorb_one(
                    _attempt_run(
                        spec,
                        i,
                        self.attempts.get(i, 0),
                        self.run_timeout,
                        in_worker=False,
                    )
                )
        self.absorb((), _stats_delta(cache, before))

    # -- pooled waves ------------------------------------------------------

    def run_pooled(self) -> BatchResult:
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            return self.run(self._pool_wave)
        finally:
            _terminate_pool(self.pool)

    def _pool_wave(self, shards: List[List[int]]) -> None:
        """Run a wave on the pool, absorbing each shard as it lands.

        An abort (a raise out of :meth:`absorb`) leaves the queued and
        in-flight shards to :meth:`run_pooled`, which terminates the
        pool.  A ``kill`` fault breaks the whole ``ProcessPoolExecutor``,
        and a worker hung past the coordinator-side backstop deadline can
        only be reclaimed by terminating the pool; either way the next
        wave gets a fresh one.
        """
        futures: Dict[Any, List[int]] = {}
        deadlines: Dict[Any, Optional[float]] = {}
        for shard in shards:
            fut = self.pool.submit(
                _run_shard,
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
        pending = set(futures)
        broken = False
        while pending:
            poll = None if self.run_timeout is None else 0.05
            done, _ = wait(pending, timeout=poll, return_when=FIRST_COMPLETED)
            for fut in done:
                pending.discard(fut)
                try:
                    outcomes, delta = fut.result()
                except BrokenProcessPool:
                    # every sibling future is (or is about to be) failed
                    # by the executor; drain them via the loop
                    broken = True
                    self.absorb_lost([(i, "worker-lost") for i in futures[fut]])
                    continue
                self.absorb(outcomes, delta)
            if pending and self.run_timeout is not None:
                now = time.monotonic()
                overdue = {
                    fut
                    for fut in pending
                    if deadlines[fut] is not None and now > deadlines[fut]
                }
                if overdue:
                    _terminate_pool(self.pool)
                    broken = True
                    lost = pending
                    pending = set()
                    for fut in lost:
                        label = "timeout" if fut in overdue else "worker-lost"
                        self.absorb_lost([(i, label) for i in futures[fut]])
        if broken:
            _terminate_pool(self.pool)
            self.pool = ProcessPoolExecutor(max_workers=self.workers)
            obs_metrics.inc(
                "repro_pool_rebuilds_total",
                help="process pools rebuilt after a lost or hung worker",
            )
