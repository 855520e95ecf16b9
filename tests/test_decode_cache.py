"""Bit-identity and bookkeeping of the decide-phase decode cache.

The cache is a pure memo: with ``REPRO_DISABLE_DECODE_CACHE=1`` every
checker falls back to a private per-node cache, which is exactly the old
decode-everything-locally behavior.  These tests pin the canonical
reports byte-identical with the cache on and off — serially and across
worker processes — for every registered task, and cover the cache's
counters, the metrics export, and the runner's auto-serial heuristic.
"""

import pytest

from repro.analysis.experiments import run_batch
from repro.core.labels import Label
from repro.core.network import path_graph
from repro.core.protocol import DecodeCache, Interaction, decode_cache_disabled
from repro.obs import metrics as obs_metrics
from repro.runtime.registry import canonical_name, get_task, task_names
from repro.runtime.runner import BatchRunner, _usable_cores

ALL_TASKS = sorted(task_names())


def _canonical(task, *, workers, disabled, monkeypatch, n=24, runs=3, seed=11):
    if disabled:
        # worker processes fork/spawn from this process and inherit the
        # environment, so the escape hatch reaches them too
        monkeypatch.setenv("REPRO_DISABLE_DECODE_CACHE", "1")
    else:
        monkeypatch.delenv("REPRO_DISABLE_DECODE_CACHE", raising=False)
    spec = get_task(task)
    runner = BatchRunner(spec.protocol(c=2), spec.yes_factory, workers=workers)
    return runner.run(runs, n, seed=seed).canonical_json()


class TestBitIdentity:
    @pytest.mark.parametrize("task", ALL_TASKS)
    def test_cache_on_off_serial(self, task, monkeypatch):
        on = _canonical(task, workers=0, disabled=False, monkeypatch=monkeypatch)
        off = _canonical(task, workers=0, disabled=True, monkeypatch=monkeypatch)
        assert on == off

    @pytest.mark.parametrize("task", ALL_TASKS)
    def test_cache_on_off_two_workers(self, task, monkeypatch):
        on = _canonical(task, workers=2, disabled=False, monkeypatch=monkeypatch)
        off = _canonical(task, workers=2, disabled=True, monkeypatch=monkeypatch)
        assert on == off

    def test_serial_matches_workers_with_cache(self, monkeypatch):
        serial = _canonical(
            "path_outerplanarity", workers=0, disabled=False, monkeypatch=monkeypatch
        )
        pooled = _canonical(
            "path_outerplanarity", workers=2, disabled=False, monkeypatch=monkeypatch
        )
        assert serial == pooled


class TestDecodeCacheUnit:
    def test_counting_get(self):
        cache = DecodeCache()
        memo = cache.sub("k")
        calls = []

        def fn(x):
            calls.append(x)
            return x * 2

        assert cache.get(memo, 1, fn, 1) == 2
        assert cache.get(memo, 1, fn, 1) == 2
        assert calls == [1]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_cached_none_is_a_hit(self):
        cache = DecodeCache()
        memo = cache.sub("k")
        assert cache.get(memo, "a", lambda: None) is None
        assert cache.get(memo, "a", lambda: None) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_sub_partitions_by_kind(self):
        cache = DecodeCache()
        cache.sub("a")[1] = "x"
        assert 1 not in cache.sub("b")
        assert cache.sub("a") is cache.sub("a")

    @staticmethod
    def _sweep_caches():
        """The ``decode_cache`` of every view one decide sweep built."""
        ia = Interaction(path_graph(4))
        ia.prover_round({v: Label() for v in range(4)})
        seen = []
        ia.decide(lambda view: seen.append(view.decode_cache) or True)
        return seen

    def test_decide_hands_one_cache_to_every_view(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISABLE_DECODE_CACHE", raising=False)
        first, *rest = self._sweep_caches()
        assert isinstance(first, DecodeCache)
        assert all(c is first for c in rest)
        # a fresh cache per sweep: nothing outlives its decide
        assert self._sweep_caches()[0] is not first
        monkeypatch.setenv("REPRO_DISABLE_DECODE_CACHE", "1")
        assert self._sweep_caches() == [None] * 4

    def test_disabled_env_hatch(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISABLE_DECODE_CACHE", raising=False)
        assert not decode_cache_disabled()
        monkeypatch.setenv("REPRO_DISABLE_DECODE_CACHE", "0")
        assert not decode_cache_disabled()
        monkeypatch.setenv("REPRO_DISABLE_DECODE_CACHE", "1")
        assert decode_cache_disabled()


class TestMetricsExport:
    def test_counters_flow_to_registry(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISABLE_DECODE_CACHE", raising=False)
        obs_metrics.enable()
        try:
            obs_metrics.REGISTRY.reset()
            spec = get_task("path_outerplanarity")
            BatchRunner(spec.protocol(c=2), spec.yes_factory).run(1, 24, seed=3)
            rendered = obs_metrics.REGISTRY.render()
        finally:
            obs_metrics.disable()
        assert "repro_decode_cache_hits_total" in rendered
        assert "repro_decode_cache_misses_total" in rendered
        # the counted decode kinds (forest/nesting decodes among them)
        # guarantee a non-trivial sweep records both hits and misses
        for line in rendered.splitlines():
            if line.startswith("repro_decode_cache_hits_total"):
                assert float(line.split()[-1]) > 0
            if line.startswith("repro_decode_cache_misses_total"):
                assert float(line.split()[-1]) > 0


class TestAutoSerial:
    def test_small_batch_falls_back_to_serial(self):
        spec = get_task("lr_sorting")
        auto = BatchRunner(
            spec.protocol(c=2), spec.yes_factory, workers=2, min_runs_per_shard=8
        )
        reference = BatchRunner(spec.protocol(c=2), spec.yes_factory, workers=0)
        small = auto.run(4, 32, seed=5)  # 4 < 8 * 2 -> serial
        assert "auto_serial" in small.meta
        assert small.workers == 2  # the configured layout stays visible
        assert small.canonical_json() == reference.run(4, 32, seed=5).canonical_json()

    def test_large_batch_keeps_pool_when_cores_allow(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 4)
        spec = get_task("lr_sorting")
        runner = BatchRunner(
            spec.protocol(c=2), spec.yes_factory, workers=2, min_runs_per_shard=2
        )
        assert runner._auto_serial_reason(16) is None

    def test_single_core_box_falls_back(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.runner._usable_cores", lambda: 1)
        spec = get_task("lr_sorting")
        runner = BatchRunner(
            spec.protocol(c=2), spec.yes_factory, workers=2, min_runs_per_shard=1
        )
        reason = runner._auto_serial_reason(64)
        assert reason is not None and "core" in reason

    def test_default_never_second_guesses(self):
        spec = get_task("lr_sorting")
        runner = BatchRunner(spec.protocol(c=2), spec.yes_factory, workers=2)
        assert runner._auto_serial_reason(1) is None  # pool path preserved

    def test_usable_cores_positive(self):
        assert _usable_cores() >= 1

    def test_run_batch_defaults_to_auto_serial(self):
        spec = get_task("lr_sorting")
        report = run_batch(
            spec.protocol, spec.yes_factory, n_runs=3, n=32, seed=1, workers=2
        )
        assert "auto_serial" in report.meta

    def test_validation(self):
        spec = get_task("lr_sorting")
        with pytest.raises(ValueError):
            BatchRunner(spec.protocol(c=2), spec.yes_factory, min_runs_per_shard=0)


class TestProtocolNormalization:
    def test_run_batch_accepts_protocol_class(self):
        spec = get_task("lr_sorting")
        by_class = run_batch(spec.protocol, spec.yes_factory, n_runs=2, n=32, seed=4)
        by_inst = run_batch(spec.protocol(), spec.yes_factory, n_runs=2, n=32, seed=4)
        assert by_class.canonical_json() == by_inst.canonical_json()

    def test_non_protocol_raises_type_error_at_entry(self):
        spec = get_task("lr_sorting")
        with pytest.raises(TypeError, match="execute"):
            BatchRunner(object(), spec.yes_factory)
        with pytest.raises(TypeError, match="execute"):
            run_batch("planarity", spec.yes_factory, n_runs=1, n=16)


class TestRegistryAliases:
    def test_no_self_aliases_and_all_distinct(self):
        from repro.runtime.registry import _ALIASES

        names = set(task_names())
        for alias, target in _ALIASES.items():
            assert alias != target, f"self-alias {alias!r} is a no-op"
            assert alias not in names, f"alias {alias!r} shadows a real task"
            assert target in names, f"alias {alias!r} -> unregistered {target!r}"
        # aliases map to *distinct* tasks: no two spell the same target
        targets = list(_ALIASES.values())
        assert len(targets) == len(set(targets))

    def test_alias_resolution_still_works(self):
        assert canonical_name("treewidth_2") == "treewidth2"
        assert canonical_name("treewidth-2") == "treewidth2"
        assert get_task("treewidth_2") is get_task("treewidth2")
        # the dropped self-alias changed nothing observable
        assert canonical_name("series_parallel") == "series_parallel"
        assert get_task("series_parallel").name == "series_parallel"
