"""Workload generators produce what they promise."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.embedding import embedding_is_planar
from repro.graphs.generators import (
    add_crossing_chord,
    corrupt_rotation,
    hub_and_cycle,
    random_apollonian,
    random_biconnected_outerplanar,
    random_laminar_intervals,
    random_nonplanar,
    random_outerplanar,
    random_path_outerplanar,
    random_planar,
    random_planar_embedding_instance,
    random_planar_not_outerplanar,
    random_series_parallel,
    random_treewidth2,
    random_two_tree,
    shuffle_labels,
    subdivided_clique,
    wheel_graph,
)
from repro.graphs.outerplanar import (
    find_path_outerplanar_witness,
    is_cycle_with_nested_chords,
    is_outerplanar,
    is_path_outerplanar_with,
)
from repro.graphs.planarity import is_planar
from repro.graphs.series_parallel import is_series_parallel
from repro.graphs.treewidth2 import is_treewidth_at_most_2


@given(st.integers(3, 60), st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_laminar_intervals_never_cross(n, seed):
    rng = random.Random(seed)
    intervals = random_laminar_intervals(n, n // 2, rng)
    for a, b in intervals:
        assert 0 <= a < b < n and b - a >= 2
    assert not any(
        (a < c < b < d) or (c < a < d < b)
        for a, b in intervals
        for c, d in intervals
    )


def _laminar_intervals_reference(n, target, rng, min_span=2):
    """The quadratic original: scan every chosen interval for a crossing."""
    chosen, chosen_set, attempts = [], set(), 0
    while len(chosen) < target and attempts < 20 * (target + 1):
        attempts += 1
        i = rng.randrange(0, n - min_span)
        j = rng.randrange(i + min_span, min(n, i + max(min_span + 1, n // 2) + 1))
        if (i, j) in chosen_set:
            continue
        if any((a < i < b < j) or (i < a < j < b) for a, b in chosen):
            continue
        chosen.append((i, j))
        chosen_set.add((i, j))
    return chosen


@pytest.mark.parametrize(
    "n, min_span",
    [(n, span) for n in (3, 4, 5, 8, 17, 64, 255, 256, 1024) for span in (1, 2, 3) if n > span],
)
def test_laminar_intervals_match_the_quadratic_reference(n, min_span):
    for seed in range(3):
        for target in (0, 1, n // 4, n // 2, n):
            fast, slow = random.Random(seed), random.Random(seed)
            got = random_laminar_intervals(n, target, fast, min_span)
            assert got == _laminar_intervals_reference(n, target, slow, min_span)
            # the same draws, in the same order: the streams stay in step
            assert fast.random() == slow.random()


class TestYesGenerators:
    @pytest.mark.parametrize("seed", range(3))
    def test_path_outerplanar(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            g, path = random_path_outerplanar(rng.randint(1, 60), rng)
            assert is_path_outerplanar_with(g, path)
            assert g.is_connected()

    @pytest.mark.parametrize("seed", range(3))
    def test_biconnected_outerplanar(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            g, cycle = random_biconnected_outerplanar(rng.randint(3, 60), rng)
            assert is_cycle_with_nested_chords(g, cycle)

    @pytest.mark.parametrize("seed", range(3))
    def test_outerplanar(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            g = random_outerplanar(rng.randint(1, 60), rng)
            assert is_outerplanar(g) and g.is_connected()

    def test_apollonian_is_maximal_planar(self):
        g = random_apollonian(30, random.Random(0))
        assert g.m == 3 * g.n - 6
        assert is_planar(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_planar(self, seed):
        rng = random.Random(seed)
        g = random_planar(rng.randint(4, 80), rng)
        assert is_planar(g) and g.is_connected()

    @pytest.mark.parametrize("seed", range(3))
    def test_series_parallel(self, seed):
        rng = random.Random(seed)
        g = random_series_parallel(rng.randint(2, 80), rng)
        assert is_series_parallel(g)

    def test_two_tree_and_partial(self):
        rng = random.Random(1)
        assert is_treewidth_at_most_2(random_two_tree(30, rng))
        g = random_treewidth2(40, rng)
        assert is_treewidth_at_most_2(g) and g.is_connected()

    def test_embedding_instances(self):
        rng = random.Random(2)
        g, rot = random_planar_embedding_instance(30, rng)
        assert embedding_is_planar(g, rot)

    def test_hub_and_cycle_degree(self):
        g = hub_and_cycle(50, 20)
        assert is_planar(g)
        assert g.max_degree() == 20

    def test_wheel(self):
        g = wheel_graph(12)
        assert is_planar(g) and not is_outerplanar(g)

    def test_shuffle_preserves_structure(self):
        rng = random.Random(3)
        g = random_planar(20, rng)
        h, mapping = shuffle_labels(g, rng)
        assert h.n == g.n and h.m == g.m
        assert is_planar(h) == is_planar(g)


class TestNoGenerators:
    def test_crossing_chord_breaks_nesting(self):
        rng = random.Random(4)
        for _ in range(10):
            g, path = random_path_outerplanar(rng.randint(6, 40), rng, density=0.6)
            bad = add_crossing_chord(g, path, rng)
            assert not is_path_outerplanar_with(bad, path)
            assert find_path_outerplanar_witness(bad) is None

    def test_subdivided_k5(self):
        g = subdivided_clique(5, 4)
        assert not is_planar(g)
        assert g.is_connected()

    def test_subdivided_k4(self):
        g = subdivided_clique(4, 4)
        assert is_planar(g) and not is_outerplanar(g)
        assert not is_treewidth_at_most_2(g)

    def test_random_nonplanar(self):
        rng = random.Random(5)
        g = random_nonplanar(50, rng)
        assert not is_planar(g) and g.is_connected()

    def test_planar_not_outerplanar(self):
        rng = random.Random(6)
        g = random_planar_not_outerplanar(50, rng)
        assert is_planar(g) and not is_outerplanar(g)

    def test_corrupt_rotation_invalidates(self):
        rng = random.Random(7)
        found = 0
        for _ in range(10):
            g, rot = random_planar_embedding_instance(rng.randint(8, 40), rng)
            bad = corrupt_rotation(g, rot, rng)
            if bad is not None:
                found += 1
                assert not embedding_is_planar(g, bad)
        assert found >= 5
