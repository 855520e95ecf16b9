"""Euler reduction (Lemma 7.3), composition accounting, analysis tools."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import (
    acceptance_stats,
    fit_against_log,
    fit_against_loglog,
    linear_fit,
    wilson_interval,
)
from repro.core.labels import Label
from repro.core.transcript import RunResult, Transcript
from repro.graphs.generators import (
    corrupt_rotation,
    random_planar_embedding_instance,
)
from repro.graphs.outerplanar import is_path_outerplanar_with
from repro.graphs.spanning import bfs_spanning_tree
from repro.protocols.composition import SubRun, combine
from repro.protocols.euler_reduction import (
    build_euler_reduction,
    rotation_order_consistent,
)


class TestEulerReduction:
    @pytest.mark.parametrize("seed", range(5))
    def test_lemma_7_3_yes_direction(self, seed):
        rng = random.Random(seed)
        for _ in range(15):
            g, rot = random_planar_embedding_instance(rng.randint(4, 40), rng)
            tree = bfs_spanning_tree(g, 0)
            red = build_euler_reduction(g, tree, rot, 0)
            assert is_path_outerplanar_with(red.h, red.path)
            assert rotation_order_consistent(g, tree, rot, 0, red)

    @pytest.mark.parametrize("seed", range(5))
    def test_lemma_7_3_no_direction(self, seed):
        rng = random.Random(100 + seed)
        checked = 0
        for _ in range(20):
            g, rot = random_planar_embedding_instance(rng.randint(6, 40), rng)
            bad = corrupt_rotation(g, rot, rng)
            if bad is None:
                continue
            checked += 1
            tree = bfs_spanning_tree(g, 0)
            red = build_euler_reduction(g, tree, bad, 0)
            ok = is_path_outerplanar_with(red.h, red.path) and (
                rotation_order_consistent(g, tree, bad, 0, red)
            )
            assert not ok
        assert checked >= 5

    def test_copy_count(self):
        rng = random.Random(1)
        g, rot = random_planar_embedding_instance(30, rng)
        tree = bfs_spanning_tree(g, 0)
        red = build_euler_reduction(g, tree, rot, 0)
        # Euler tour of a tree: 2(n-1)+1 copies
        assert red.h.n == 2 * (g.n - 1) + 1
        # every copy has exactly one carrier, and every node carries O(1)
        carriers = {}
        for cid, hosts in red.hosts_of_copy().items():
            assert len(hosts) == 1
            carriers.setdefault(hosts[0], 0)
            carriers[hosts[0]] += 1
        assert max(carriers.values()) <= 2

    def test_path_is_hamiltonian_in_h(self):
        rng = random.Random(2)
        g, rot = random_planar_embedding_instance(20, rng)
        tree = bfs_spanning_tree(g, 0)
        red = build_euler_reduction(g, tree, rot, 0)
        assert sorted(red.path) == list(range(red.h.n))
        for a, b in zip(red.path, red.path[1:]):
            assert red.h.has_edge(a, b)


class TestComposition:
    def _run(self, labels_per_round):
        t = Transcript()
        for labels in labels_per_round:
            t.add_prover_round(labels)
        return RunResult(True, [], t, "sub")

    def test_bits_map_to_hosts(self):
        run = self._run([{0: Label().uint("a", 0, 10), 1: Label().uint("b", 0, 4)}])
        sub = SubRun("s", run, {0: (7,), 1: (7,)})
        combined = combine("host", 8, [sub])
        assert combined.proof_size_bits == 14  # both sub-labels land on host 7
        assert combined.accepted

    def test_rejection_propagates(self):
        t = Transcript()
        t.add_prover_round({})
        bad = RunResult(False, [2], t, "sub")
        combined = combine("host", 5, [SubRun("s", bad, {2: (4,)})])
        assert not combined.accepted
        assert combined.rejecting_nodes == [4]

    def test_extra_bits_added(self):
        run = self._run([{0: Label().uint("a", 0, 3)}])
        combined = combine(
            "host", 2, [SubRun("s", run, {0: (0,)})],
            extra_bits=[{0: 5}],
        )
        assert combined.proof_size_bits == 8

    def test_edge_map_routing(self):
        t = Transcript()
        t.add_prover_round({}, {(0, 1): Label().uint("e", 0, 9)})
        run = RunResult(True, [], t, "sub")
        sub = SubRun("s", run, {0: (3,), 1: (4,)}, edge_map={(0, 1): (5,)})
        combined = combine("host", 6, [sub])
        # the edge label lands on host 5 (the carrier), not an endpoint
        assert combined.proof_size_bits == 9
        bits = sub.mapped_bits_per_round()[0]
        assert bits == {5: 9}


class TestAnalysis:
    def test_linear_fit_exact(self):
        fit = linear_fit([0, 1, 2], [1, 3, 5])
        assert abs(fit.slope - 2) < 1e-9
        assert abs(fit.intercept - 1) < 1e-9
        assert fit.r2 > 0.999

    def test_log_vs_loglog_discrimination(self):
        ns = [2**k for k in range(4, 14)]
        log_data = [3 * (k) + 7 for k in range(4, 14)]  # 3*log2(n)+7
        fit_log = fit_against_log(ns, log_data)
        assert abs(fit_log.slope - 3) < 1e-9 and fit_log.r2 > 0.999
        import math

        loglog_data = [round(5 * math.log2(math.log2(n)) + 11) for n in ns]
        fit_ll = fit_against_loglog(ns, loglog_data)
        assert 4 <= fit_ll.slope <= 6 and fit_ll.r2 > 0.98
        # loglog data fitted against log has a tiny slope
        assert fit_against_log(ns, loglog_data).slope < 1.0

    def test_wilson_interval_contains_rate(self):
        lo, hi = wilson_interval(90, 100)
        assert lo < 0.9 < hi
        assert 0 <= lo < hi <= 1

    def test_acceptance_stats(self):
        stats = acceptance_stats([True] * 19 + [False])
        assert stats["rate"] == 0.95
        assert stats["trials"] == 20

    @given(st.lists(st.floats(0, 100), min_size=3, max_size=20), st.floats(-5, 5))
    @settings(max_examples=50)
    def test_fit_recovers_planted_slope(self, xs, slope):
        xs = sorted(set(round(x, 3) for x in xs))
        if len(xs) < 3:
            return
        ys = [slope * x + 2 for x in xs]
        fit = linear_fit(xs, ys)
        assert abs(fit.slope - slope) < 1e-6
