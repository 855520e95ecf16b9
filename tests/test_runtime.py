"""Tier-1 tests for the batched runtime: determinism, caching, failures.

The load-bearing guarantee is pinned here: a batch with master seed ``s``
yields a byte-identical canonical report whether it runs serially
(``workers=0``) or sharded over a process pool (``workers=2``).
"""

import pickle
import random

import pytest

from repro.runtime import (
    BatchRunner,
    CachedFactory,
    InstanceCache,
    RunRecord,
    SeedSequence,
    get_task,
    run_streams,
    task_names,
)
from repro.runtime.registry import lr_sorting_yes, path_outerplanarity_yes


def _crashing_factory(n, rng):
    raise ValueError("intentional factory crash")


def _crash_on_third(n, rng):
    # deterministic instance stream -> the same run crashes on every layout
    if rng.getrandbits(64) % 4 == 0:
        raise ValueError("intentional selective crash")
    return path_outerplanarity_yes(n, rng)


class TestSeedSequence:
    def test_child_streams_are_deterministic(self):
        a = SeedSequence(7).child(3).child("instance")
        b = SeedSequence(7).child(3).child("instance")
        assert a == b
        assert a.seed_int() == b.seed_int()
        assert a.rng().random() == b.rng().random()

    def test_streams_differ_across_path(self):
        root = SeedSequence(7)
        seeds = {
            root.child(i).child(k).seed_int()
            for i in range(50)
            for k in ("instance", "protocol")
        }
        assert len(seeds) == 100  # no collisions, instance != protocol
        assert root.child(1).seed_int() != SeedSequence(8).child(1).seed_int()

    def test_spawn_matches_child(self):
        root = SeedSequence(0)
        assert root.spawn(3) == [root.child(0), root.child(1), root.child(2)]

    def test_int_and_str_keys_do_not_collide(self):
        root = SeedSequence(0)
        assert root.child(1).seed_int() != root.child("1").seed_int()

    def test_pickle_roundtrip(self):
        ss = SeedSequence(42).child(5).child("adversary")
        clone = pickle.loads(pickle.dumps(ss))
        assert clone == ss and clone.seed_int() == ss.seed_int()

    def test_run_streams_reproduce_runner_runs(self):
        spec = get_task("path_outerplanarity")
        report = BatchRunner(spec.protocol(c=2), spec.yes_factory).run(3, 32, seed=9)
        instance_seed, protocol_rng = run_streams(9, 2)
        instance = spec.yes_factory(32, random.Random(instance_seed))
        result = spec.protocol(c=2).execute(instance, rng=protocol_rng)
        rec = report.records[2]
        assert result.accepted == rec.accepted
        assert result.proof_size_bits == rec.proof_size_bits
        assert result.n_rounds == rec.n_rounds

    def test_rejects_bad_keys(self):
        with pytest.raises(TypeError):
            SeedSequence(0).child(1.5)
        with pytest.raises(TypeError):
            SeedSequence("seed")


class TestSerialParallelIdentity:
    @pytest.mark.parametrize("task", ["path_outerplanarity", "lr_sorting"])
    def test_serial_matches_two_workers(self, task):
        spec = get_task(task)
        serial = BatchRunner(spec.protocol(c=2), spec.yes_factory, workers=0)
        parallel = BatchRunner(spec.protocol(c=2), spec.yes_factory, workers=2)
        r0 = serial.run(6, 64, seed=7)
        r2 = parallel.run(6, 64, seed=7)
        assert r0.canonical_json() == r2.canonical_json()
        assert r0.workers == 0 and r2.workers == 2  # timing/layout stay visible

    def test_chunking_does_not_change_results(self):
        spec = get_task("lr_sorting")
        coarse = BatchRunner(
            spec.protocol(c=2), spec.yes_factory, workers=2, chunk_size=5
        ).run(7, 48, seed=3)
        fine = BatchRunner(
            spec.protocol(c=2), spec.yes_factory, workers=2, chunk_size=1
        ).run(7, 48, seed=3)
        assert coarse.canonical_json() == fine.canonical_json()

    def test_canonical_report_excludes_wall_clock(self):
        spec = get_task("lr_sorting")
        runner = BatchRunner(spec.protocol(c=2), spec.yes_factory)
        a, b = runner.run(3, 32, seed=5), runner.run(3, 32, seed=5)
        assert a.canonical_json() == b.canonical_json()
        assert a.wall_clock_total != b.wall_clock_total  # but timing is measured

    def test_seeded_adversary_matches_across_layouts(self):
        spec = get_task("lr_sorting")
        fuzz = spec.adversaries["fuzzing_r1"]
        r0 = BatchRunner(
            spec.protocol(c=2), spec.yes_factory, prover_factory=fuzz, workers=0
        ).run(5, 64, seed=2)
        r2 = BatchRunner(
            spec.protocol(c=2), spec.yes_factory, prover_factory=fuzz, workers=2
        ).run(5, 64, seed=2)
        assert r0.canonical_json() == r2.canonical_json()


class TestInstanceCache:
    def test_hit_miss_accounting(self):
        cache = InstanceCache()
        factory = CachedFactory("path_op", path_outerplanarity_yes, cache=cache)
        spec = get_task("path_outerplanarity")
        first = BatchRunner(spec.protocol(c=2), factory).run(4, 32, seed=1)
        assert first.cache_stats == {"hits": 0, "misses": 4}
        second = BatchRunner(spec.protocol(c=2), factory).run(4, 32, seed=1)
        assert second.cache_stats == {"hits": 4, "misses": 0}
        assert first.canonical_json() == second.canonical_json()
        # a different master seed builds different instances: all misses
        third = BatchRunner(spec.protocol(c=2), factory).run(4, 32, seed=2)
        assert third.cache_stats == {"hits": 0, "misses": 4}
        assert cache.stats() == {"hits": 4, "misses": 8, "size": 8}

    def test_cache_is_transparent_to_results(self):
        spec = get_task("path_outerplanarity")
        cached = CachedFactory(
            "path_op", path_outerplanarity_yes, cache=InstanceCache()
        )
        plain = BatchRunner(spec.protocol(c=2), spec.yes_factory).run(5, 48, seed=4)
        memo = BatchRunner(spec.protocol(c=2), cached).run(5, 48, seed=4)
        assert plain.canonical_json() == memo.canonical_json()

    def test_fifo_eviction(self):
        cache = InstanceCache(maxsize=2)
        built = []

        def make(key):
            return lambda: built.append(key) or key

        assert cache.get_or_build(("f", 1, 0), make("a")) == "a"
        assert cache.get_or_build(("f", 2, 0), make("b")) == "b"
        assert cache.get_or_build(("f", 3, 0), make("c")) == "c"  # evicts ("f",1,0)
        assert ("f", 1, 0) not in cache and ("f", 3, 0) in cache
        assert len(cache) == 2

    def test_cached_factory_pickles_without_contents(self):
        cache = InstanceCache()
        factory = CachedFactory("lr", lr_sorting_yes, cache=cache)
        factory.build_seeded(16, 123)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone.family == "lr" and clone.builder is lr_sorting_yes
        assert clone.cache is not cache  # re-attached to the process cache
        # and it still builds the same instance for the same key
        assert (
            clone.build_seeded(16, 123).graph.edge_set()
            == factory.build_seeded(16, 123).graph.edge_set()
        )


class TestFailurePropagation:
    def test_serial_crash_surfaces_original_exception(self):
        spec = get_task("path_outerplanarity")
        runner = BatchRunner(spec.protocol(c=2), _crashing_factory, workers=0)
        with pytest.raises(ValueError, match="intentional factory crash"):
            runner.run(3, 32, seed=0)

    def test_worker_crash_surfaces_original_exception(self):
        spec = get_task("path_outerplanarity")
        runner = BatchRunner(spec.protocol(c=2), _crashing_factory, workers=2)
        with pytest.raises(ValueError, match="intentional factory crash"):
            runner.run(4, 32, seed=0)

    def test_late_worker_crash_does_not_hang(self):
        spec = get_task("path_outerplanarity")
        runner = BatchRunner(
            spec.protocol(c=2), _crash_on_third, workers=2, chunk_size=1
        )
        with pytest.raises(ValueError, match="intentional selective crash"):
            # enough runs that some shards succeed before the crashing one
            runner.run(12, 32, seed=0)

    def test_rejects_bad_arguments(self):
        spec = get_task("lr_sorting")
        with pytest.raises(ValueError):
            BatchRunner(spec.protocol(c=2), spec.yes_factory, workers=-1)
        with pytest.raises(ValueError):
            BatchRunner(spec.protocol(c=2), spec.yes_factory, chunk_size=0)
        with pytest.raises(ValueError):
            BatchRunner(spec.protocol(c=2), spec.yes_factory).run(0, 32)


class TestExtraValidation:
    def _record(self, extra):
        return RunRecord(
            index=0, accepted=True, proof_size_bits=1, n_rounds=5,
            n_rejecting=0, wall_time=0.0, extra=extra,
        )

    def test_non_json_extra_raises_naming_the_run(self):
        self._record({"ok": [1, "two"]})  # JSON-safe passes
        with pytest.raises(TypeError, match="run 0 is not JSON-safe"):
            self._record({"bad": object()})


class TestRegistry:
    def test_every_task_resolves(self):
        for name in task_names():
            spec = get_task(name)
            assert callable(spec.yes_factory)
            proto = spec.protocol(c=2)
            assert hasattr(proto, "execute")

    def test_hyphen_and_historical_aliases(self):
        assert get_task("path-outerplanarity").name == "path_outerplanarity"
        assert get_task("treewidth-2").name == "treewidth2"
        with pytest.raises(KeyError):
            get_task("no-such-task")

    def test_specs_are_picklable(self):
        for name in task_names():
            spec = get_task(name)
            pickle.dumps((spec.yes_factory, spec.no_factory, spec.adversaries))


class TestReportFormatting:
    """Golden strings for the human-facing report renderings."""

    def _report(self, records=True, failures=()):
        from repro.runtime.runner import BatchReport

        recs = []
        if records:
            recs = [
                RunRecord(0, True, 118, 5, 0, wall_time=0.25),
                RunRecord(1, True, 122, 5, 0, wall_time=0.15),
                RunRecord(2, False, 130, 5, 3, wall_time=0.20),
                RunRecord(3, True, 110, 5, 0, wall_time=0.40),
            ]
        return BatchReport(
            protocol_name="path-outerplanarity",
            n=64,
            n_runs=4,
            master_seed=7,
            records=recs,
            workers=2,
            wall_clock_total=1.5,
            failures=list(failures),
            failure_policy="degrade" if failures else "strict",
        )

    def test_summary_golden(self):
        assert self._report().summary() == (
            "path-outerplanarity: 4 runs @ n=64 (seed 7, workers=2) | "
            "accept 0.7500 [0.3006, 0.9544] | proof max/mean 130/120.0 b | "
            "1.50s total, 250.0 ms/run"
        )

    def test_summary_flags_degraded_reports(self):
        from repro.runtime.resilience import FailureRecord

        failure = FailureRecord(
            index=9, fault="timeout", attempts=3, elapsed=1.61,
            error="RunTimeoutError('run 9 blew 0.5s')",
        )
        report = self._report(failures=[failure])
        assert report.summary().endswith("| DEGRADED: 4/4 runs survived")
        assert report.failure_table() == (
            "   run | fault        | attempts |  elapsed | error\n"
            "     9 | timeout      |        3 |    1.61s | "
            "RunTimeoutError('run 9 blew 0.5s')"
        )

    def test_failure_table_empty_golden(self):
        assert self._report().failure_table() == "no failures"

    def test_zero_run_report_degrades_gracefully(self):
        import math

        report = self._report(records=False)
        assert math.isnan(report.acceptance_rate)
        assert math.isnan(report.wall_time_per_run)
        lo, hi = report.acceptance_wilson_95()
        assert math.isnan(lo) and math.isnan(hi)
        lo, hi = report.rejection_wilson_95()
        assert math.isnan(lo) and math.isnan(hi)
        assert report.proof_size_max == 0
        # the renderings must not raise on an empty report — and must say
        # what happened instead of formatting nan at an operator
        assert report.summary() == (
            "path-outerplanarity: 4 runs @ n=64 (seed 7, workers=2) | "
            "no surviving runs | 1.50s total"
        )
        assert "nan" not in report.summary()
        assert report.failure_table() == "no failures"

    def test_all_runs_dropped_summary_golden(self):
        """A degraded report where every run failed renders sensibly."""
        from repro.runtime.resilience import FailureRecord

        failures = [
            FailureRecord(index=i, fault="timeout", attempts=3, elapsed=0.5,
                          error=f"RunTimeoutError('run {i}')")
            for i in range(4)
        ]
        report = self._report(records=False, failures=failures)
        assert report.summary() == (
            "path-outerplanarity: 4 runs @ n=64 (seed 7, workers=2) | "
            "no surviving runs | 1.50s total | DEGRADED: 0/4 runs survived"
        )
        assert "nan" not in report.summary()
        table = report.failure_table()
        assert table.count("\n") == 4  # header + one row per dropped run
        assert "RunTimeoutError('run 3')" in table
