"""Chaos suite: deterministic fault injection against the resilient runtime.

The load-bearing invariant pinned here: runs that succeed after retries
are byte-identical to their fault-free serial counterparts — the
canonical payload of a recovered batch equals the ``workers=0``
reference exactly, and a degraded batch's surviving records are an
index-subset of that reference with matching canonical dicts.  All
failure/attempt metadata stays outside the canonical identity.

The matrix test exercises all three fault classes (transient raise,
hang past the per-run deadline, hard worker kill) against all three
failure policies (strict / retry / degrade) on two registered tasks,
with sub-second timeouts so the whole suite stays in the fast tier.
"""

import time

import pytest

from repro.runtime import (
    BatchRunner,
    FaultPlan,
    InjectedFault,
    PERSISTENT,
    RetryExhaustedError,
    RunTimeoutError,
    backoff_delay,
    get_task,
)
from repro.runtime.registry import exiting_worker_factory, path_outerplanarity_yes
from repro.runtime.resilience import FailureRecord, _terminate_pool, run_deadline

TASKS = ("path_outerplanarity", "lr_sorting")
RUNS = 6
N = 24

#: short enough to keep hang tests sub-second, long enough that honest
#: runs at n=24 never graze it
TIMEOUT = 0.5
#: hang far past the deadline; the SIGALRM machinery interrupts the sleep
HANG_S = 10.0
#: near-zero backoff so retried waves don't stall the fast tier
BACKOFF = dict(backoff_base=0.005, backoff_cap=0.02)


def _reference(task):
    spec = get_task(task)
    return BatchRunner(spec.protocol(c=2), spec.yes_factory, workers=0).run(
        RUNS, N, seed=5
    )


def _runner(task, **kwargs):
    spec = get_task(task)
    kwargs.setdefault("backoff_base", BACKOFF["backoff_base"])
    kwargs.setdefault("backoff_cap", BACKOFF["backoff_cap"])
    return BatchRunner(spec.protocol(c=2), spec.yes_factory, **kwargs)


def _blocked_alarm_hang(n, rng):
    """A hang the in-worker SIGALRM deadline cannot interrupt."""
    import signal

    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    time.sleep(30)


def _crash_run0_or_sleep(n, rng):
    """With master seed 2, run 0 crashes instantly; every other run
    sleeps 0.4s (long enough that eager queued-shard execution shows up
    in the wall clock of a strict abort)."""
    if rng.getrandbits(64) % 5 == 0:
        raise ValueError("intentional crash for teardown test")
    time.sleep(0.4)
    return path_outerplanarity_yes(n, rng)


def _crash_run0_or_hang(n, rng):
    """With master seed 11 and 4 runs, run 0 crashes instantly; every
    other run sleeps 20s, far past any bound a strict abort may take."""
    if rng.getrandbits(64) % 5 == 0:
        raise ValueError("intentional crash beside hung shards")
    time.sleep(20)
    return path_outerplanarity_yes(n, rng)


def _always_crash(n, rng):
    raise ValueError("intentional crash on every run")


class _CountingFactory:
    """Builds path-outerplanarity instances in call order; the call for
    run ``fail_at`` raises.  Serial runs build in index order, so
    ``built`` is the number of runs that started."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.built = 0

    def __call__(self, n, rng):
        index = self.built
        self.built += 1
        if index == self.fail_at:
            raise ValueError(f"intentional crash at run {index}")
        return path_outerplanarity_yes(n, rng)


class TestFaultPlan:
    def test_assignment_is_deterministic(self):
        a = FaultPlan(7, rate=0.4)
        b = FaultPlan(7, rate=0.4)
        assert a.faulted_indices(200) == b.faulted_indices(200)
        assert a.faulted_indices(200) != FaultPlan(8, rate=0.4).faulted_indices(200)

    def test_rate_one_faults_every_run(self):
        plan = FaultPlan(0, rate=1.0, kinds=("raise",), fires=3)
        faults = plan.faulted_indices(50)
        assert sorted(faults) == list(range(50))
        assert all(f.kind == "raise" and f.fires == 3 for f in faults.values())

    def test_overrides_pin_specific_runs(self):
        plan = FaultPlan(0, overrides={4: ("kill", PERSISTENT)})
        assert plan.fault_at(4).kind == "kill"
        assert plan.fault_at(4).fires_on(10**8)
        assert plan.fault_at(3) is None

    def test_fires_window(self):
        plan = FaultPlan(0, overrides={0: ("raise", 2)})
        with pytest.raises(InjectedFault):
            plan.fire(0, 0, in_worker=False)
        with pytest.raises(InjectedFault):
            plan.fire(0, 1, in_worker=False)
        plan.fire(0, 2, in_worker=False)  # quiet after its window

    def test_kill_downgrades_in_process(self):
        plan = FaultPlan(0, overrides={0: ("kill", 1)})
        with pytest.raises(InjectedFault, match="downgraded"):
            plan.fire(0, 0, in_worker=False)

    def test_from_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "rate=0.25,kinds=raise|hang,seed=9,fires=2,hang=3.5,at=3:kill+7:raise:inf"
        )
        assert plan.rate == 0.25
        assert plan.kinds == ("raise", "hang")
        assert plan.plan_seed == 9
        assert plan.fires == 2
        assert plan.hang_s == 3.5
        assert plan.overrides == {3: ("kill", 2), 7: ("raise", PERSISTENT)}

    @pytest.mark.parametrize(
        "spec",
        ["rate=2.0", "kinds=explode", "fires=0", "hang=0", "bogus=1", "at=x:raise"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)


class TestBackoff:
    def test_deterministic_and_capped(self):
        for attempt in range(6):
            a = backoff_delay(3, 11, attempt, base=0.1, cap=1.0)
            b = backoff_delay(3, 11, attempt, base=0.1, cap=1.0)
            assert a == b
            raw = min(1.0, 0.1 * 2**attempt)
            assert 0.5 * raw <= a < raw

    def test_jitter_varies_across_runs_and_attempts(self):
        delays = {
            backoff_delay(3, i, a, base=0.1, cap=10.0)
            for i in range(5)
            for a in range(3)
        }
        assert len(delays) == 15


class TestRunDeadline:
    def test_interrupts_a_sleep(self):
        t0 = time.perf_counter()
        with pytest.raises(RunTimeoutError):
            with run_deadline(0.1):
                time.sleep(5)
        assert time.perf_counter() - t0 < 1.0

    def test_no_deadline_is_a_no_op(self):
        with run_deadline(None):
            pass


class TestChaosMatrix:
    """All three fault classes x all three policies x two tasks.

    Transient faults (``fires=1``) recover under retry/degrade with a
    canonical payload byte-identical to the fault-free serial reference;
    strict aborts.  ``kill`` runs on a 2-worker pool (an in-process kill
    is downgraded by design); raise/hang run serially for speed.
    """

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("kind", ["raise", "hang", "kill"])
    @pytest.mark.parametrize("policy", ["strict", "retry", "degrade"])
    def test_fault_class_vs_policy(self, task, kind, policy):
        plan = FaultPlan(1, overrides={1: (kind, 1)}, hang_s=HANG_S)
        runner = _runner(
            task,
            workers=2 if kind == "kill" else 0,
            chunk_size=1 if kind == "kill" else None,
            failure_policy=policy,
            run_timeout=TIMEOUT if kind == "hang" else None,
            max_retries=2,
            fault_plan=plan,
        )
        if policy == "strict":
            # InjectedFault, RunTimeoutError, and the worker-lost error
            # are all RuntimeErrors; strict surfaces the first one
            with pytest.raises(RuntimeError):
                runner.run(RUNS, N, seed=5)
            return
        report = runner.run(RUNS, N, seed=5)
        assert report.failures == []
        assert report.canonical_json() == _reference(task).canonical_json()

    @pytest.mark.parametrize("task", TASKS)
    def test_degrade_persistent_fault_yields_partial_report(self, task):
        plan = FaultPlan(
            1,
            overrides={1: ("raise", PERSISTENT), 4: ("hang", PERSISTENT)},
            hang_s=HANG_S,
        )
        report = _runner(
            task,
            failure_policy="degrade",
            run_timeout=TIMEOUT,
            max_retries=1,
            fault_plan=plan,
        ).run(RUNS, N, seed=5)
        reference = {r.index: r for r in _reference(task).records}
        assert [r.index for r in report.records] == [0, 2, 3, 5]
        for rec in report.records:  # index-subset with matching payloads
            assert rec.canonical_dict() == reference[rec.index].canonical_dict()
        by_index = {f.index: f for f in report.failures}
        assert by_index[1].fault == "raise" and by_index[1].attempts == 2
        assert by_index[4].fault == "timeout" and by_index[4].attempts == 2
        assert "failed" not in report.canonical_json()  # outside the identity
        assert "DEGRADED" in report.summary()
        assert str(1) in report.failure_table()

    def test_retry_exhaustion_aborts_with_context(self):
        plan = FaultPlan(1, overrides={2: ("raise", PERSISTENT)})
        runner = _runner(
            "path_outerplanarity",
            failure_policy="retry",
            max_retries=1,
            fault_plan=plan,
        )
        with pytest.raises(RetryExhaustedError, match=r"run 2 .*n=24, seed=5"):
            runner.run(RUNS, N, seed=5)


class TestCrossLayoutDeterminism:
    def test_parallel_retry_matches_serial_retry_and_reference(self):
        plan = FaultPlan(3, rate=0.5, kinds=("raise",), fires=1)
        kwargs = dict(failure_policy="retry", max_retries=2, fault_plan=plan)
        serial = _runner("path_outerplanarity", workers=0, **kwargs).run(8, N, seed=5)
        pooled = _runner("path_outerplanarity", workers=2, **kwargs).run(8, N, seed=5)
        assert serial.canonical_json() == pooled.canonical_json()

    def test_degraded_subset_is_layout_independent(self):
        # raise faults are caught inside the worker (no shard collateral),
        # so the degraded survivor set itself replays across layouts
        plan = FaultPlan(3, rate=0.4, kinds=("raise",), fires=PERSISTENT)
        kwargs = dict(failure_policy="degrade", max_retries=1, fault_plan=plan)
        serial = _runner("path_outerplanarity", workers=0, **kwargs).run(8, N, seed=5)
        pooled = _runner("path_outerplanarity", workers=2, **kwargs).run(8, N, seed=5)
        assert serial.canonical_json() == pooled.canonical_json()
        assert [f.index for f in serial.failures] == [
            f.index for f in pooled.failures
        ]
        assert serial.failures  # the plan really did knock runs out
        assert sorted(plan.faulted_indices(8)) == [f.index for f in serial.failures]

    def test_seeded_adversary_survives_retries_identically(self):
        spec = get_task("lr_sorting")
        fuzz = spec.adversaries["fuzz_r3"]
        reference = BatchRunner(
            spec.protocol(c=2), spec.yes_factory, prover_factory=fuzz
        ).run(5, 48, seed=2)
        plan = FaultPlan(4, rate=0.6, kinds=("raise",), fires=1)
        recovered = BatchRunner(
            spec.protocol(c=2),
            spec.yes_factory,
            prover_factory=fuzz,
            failure_policy="retry",
            fault_plan=plan,
            **BACKOFF,
        ).run(5, 48, seed=2)
        assert recovered.canonical_json() == reference.canonical_json()


class TestPoolRecovery:
    def test_hung_worker_backstop_terminates_and_degrades(self):
        # SIGALRM-blocked sleepers defeat the in-worker deadline; the
        # coordinator-side backstop must reclaim the pool by force
        spec = get_task("path_outerplanarity")
        runner = BatchRunner(
            spec.protocol(c=2),
            _blocked_alarm_hang,
            workers=2,
            chunk_size=1,
            failure_policy="degrade",
            run_timeout=0.2,
            max_retries=0,
            **BACKOFF,
        )
        t0 = time.perf_counter()
        report = runner.run(2, N, seed=0)
        assert time.perf_counter() - t0 < 10.0  # not the 30s the hang wants
        assert report.records == []
        assert {f.fault for f in report.failures} <= {"timeout", "worker-lost"}
        assert len(report.failures) == 2

    def test_terminated_pool_kills_its_hung_workers(self):
        # shutdown() drops the pool's process table; a worker it missed
        # would sleep on and hold the interpreter's exit for 30s
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing.connection import wait as wait_for_sentinels

        pool = ProcessPoolExecutor(max_workers=2)
        for _ in range(2):
            pool.submit(time.sleep, 30)
        workers = list(pool._processes.values())
        assert len(workers) == 2
        _terminate_pool(pool)
        # a sentinel turns ready when its process dies, whichever thread
        # reaps it (the pool's manager thread joins them concurrently)
        pending = [proc.sentinel for proc in workers]
        deadline = time.monotonic() + 10.0
        while pending and time.monotonic() < deadline:
            ready = wait_for_sentinels(pending, timeout=deadline - time.monotonic())
            pending = [s for s in pending if s not in ready]
        assert pending == []

    def test_broken_pool_message_names_the_batch_legacy_path(self):
        # the PR-1 strict path (no resilience knobs): a worker that dies
        # outright must surface as a RuntimeError naming protocol, n, seed
        spec = get_task("path_outerplanarity")
        runner = BatchRunner(spec.protocol(c=2), exiting_worker_factory, workers=2)
        with pytest.raises(
            RuntimeError, match=r"path-outerplanarity.*n=32.*seed=11"
        ):
            runner.run(4, 32, seed=11)

    def test_strict_abort_cancels_queued_shards_promptly(self):
        # master seed 2 makes run 0 crash instantly while every other run
        # sleeps 0.4s; with cancel_futures the queued shards never start,
        # so the abort returns in ~1 in-flight sleep, not ~6 (12 runs / 2
        # workers x 0.4s ~= 2.4s without the cancellation)
        spec = get_task("path_outerplanarity")
        runner = BatchRunner(
            spec.protocol(c=2), _crash_run0_or_sleep, workers=2, chunk_size=1
        )
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="intentional crash"):
            runner.run(12, N, seed=2)
        assert time.perf_counter() - t0 < 2.0

    def test_strict_abort_terminates_hung_sibling_shards(self):
        # run 0 raises while its sibling shard sleeps 20s: the abort must
        # neither wait for that shard nor leave its worker alive, where it
        # would hold the interpreter's exit until the sleep ended
        import multiprocessing
        from multiprocessing.connection import wait as wait_for_sentinels

        before = set(multiprocessing.active_children())
        spec = get_task("path_outerplanarity")
        runner = BatchRunner(
            spec.protocol(c=2), _crash_run0_or_hang, workers=2, chunk_size=1
        )
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="intentional crash"):
            runner.run(4, N, seed=11)
        assert time.perf_counter() - t0 < 5.0
        workers = [p for p in multiprocessing.active_children() if p not in before]
        pending = [proc.sentinel for proc in workers]
        deadline = time.monotonic() + 5.0
        while pending and time.monotonic() < deadline:
            ready = wait_for_sentinels(pending, timeout=deadline - time.monotonic())
            pending = [s for s in pending if s not in ready]
        assert pending == []

    def test_strict_abort_reaps_workers_and_manager_thread(self, monkeypatch):
        # after the abort nothing of the pool may still run: a live manager
        # thread would be woken at interpreter exit through the wakeup pipe
        # the terminated pool already closed ("Bad file descriptor")
        from repro.runtime import resilience

        reaped = []
        terminate = resilience._terminate_pool

        def watching(pool):
            reaped.append((
                list(pool._processes.values()) if pool._processes else [],
                pool._executor_manager_thread,
            ))
            terminate(pool)

        monkeypatch.setattr(resilience, "_terminate_pool", watching)
        spec = get_task("path_outerplanarity")
        runner = BatchRunner(spec.protocol(c=2), _always_crash, workers=2, chunk_size=1)
        with pytest.raises(ValueError, match="intentional crash on every run"):
            runner.run(4, N, seed=3)
        assert reaped
        for workers, manager in reaped:
            assert workers and manager is not None
            assert not manager.is_alive()
            assert all(proc.exitcode is not None for proc in workers)

    def test_strict_serial_abort_starts_no_later_run(self):
        spec = get_task("path_outerplanarity")
        factory = _CountingFactory(fail_at=1)
        runner = BatchRunner(spec.protocol(c=2), factory, workers=0)
        with pytest.raises(ValueError, match="intentional crash at run 1"):
            runner.run(6, N, seed=2)
        assert factory.built == 2  # runs 0 and 1; nothing above 1


class TestValidation:
    def test_rejects_bad_resilience_arguments(self):
        spec = get_task("lr_sorting")
        proto = spec.protocol(c=2)
        with pytest.raises(ValueError, match="failure_policy"):
            BatchRunner(proto, spec.yes_factory, failure_policy="optimistic")
        with pytest.raises(ValueError, match="run_timeout"):
            BatchRunner(proto, spec.yes_factory, run_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            BatchRunner(proto, spec.yes_factory, max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            BatchRunner(proto, spec.yes_factory, backoff_base=0.5, backoff_cap=0.1)
        with pytest.raises(ValueError):
            FaultPlan(0, rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(0, kinds=("explode",))

    def test_failure_record_is_json_safe(self):
        import json

        rec = FailureRecord(index=3, fault="timeout", attempts=2, elapsed=0.5,
                            error="RunTimeoutError('...')")
        assert json.loads(json.dumps(rec.as_dict()))["fault"] == "timeout"


class TestCLI:
    def _argv(self, *extra):
        return [
            "batch", "path_outerplanarity", "--runs", "6", "--n", "24",
            "--seed", "5", "--max-retries", "1", *extra,
        ]

    def test_degrade_exits_zero_with_failure_table(self, capsys, tmp_path):
        from repro.cli import main

        out_json = tmp_path / "report.json"
        code = main(self._argv(
            "--failure-policy", "degrade",
            "--inject-faults", "at=1:raise:inf,seed=3",
            "--json", str(out_json),
        ))
        out = capsys.readouterr().out
        assert code == 0
        assert "DEGRADED" in out and "fault" in out and "raise" in out
        import json

        payload = json.loads(out_json.read_text())
        assert payload["failure_policy"] == "degrade"
        assert [f["index"] for f in payload["failures"]] == [1]

    def test_strict_exits_nonzero_on_same_seed(self, capsys):
        from repro.cli import main

        code = main(self._argv(
            "--failure-policy", "strict",
            "--inject-faults", "at=1:raise:inf,seed=3",
        ))
        assert code == 1
        assert "batch aborted" in capsys.readouterr().out

    def test_bad_fault_spec_is_a_usage_error(self, capsys):
        from repro.cli import main

        code = main(self._argv("--inject-faults", "rate=banana"))
        assert code == 2
        assert "--inject-faults" in capsys.readouterr().out

    def test_sweep_accepts_resilience_flags(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "path-outerplanarity", "--ns", "16,24", "--repeats", "2",
            "--failure-policy", "retry", "--max-retries", "2",
            "--inject-faults", "rate=0.3,kinds=raise,seed=2,fires=1",
        ])
        assert code == 0
        assert "proof bits" in capsys.readouterr().out
