"""Spanning structures, Euler tours, arboricity partitions, colorings."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.network import Graph, complete_graph, cycle_graph, path_graph
from repro.graphs.coloring import (
    degeneracy,
    degeneracy_order,
    greedy_coloring,
    is_proper_coloring,
)
from repro.graphs.generators import random_apollonian, random_planar
from repro.graphs.spanning import (
    RootedForest,
    arboricity_forest_partition,
    bfs_spanning_tree,
    euler_tour,
    forest_partition_assignment,
    hamiltonian_path_forest,
    peel_forests,
    spanning_forest,
)
from repro.primitives.forest_encoding import MAX_COLORS, forest_encoding_columns


class TestRootedForest:
    def test_empty(self):
        f = RootedForest(3)
        assert f.roots() == [0, 1, 2]
        assert f.depth(0) == 0

    def test_parent_pointers(self):
        f = RootedForest(4, {1: 0, 2: 1, 3: 1})
        assert f.roots() == [0]
        assert f.depth(2) == 2
        assert f.children(1) == [2, 3]

    def test_cycle_detected(self):
        with pytest.raises(ValueError):
            RootedForest(3, {0: 1, 1: 2, 2: 0})

    def test_spanning_tree_predicate(self):
        g = path_graph(4)
        f = RootedForest(4, {1: 0, 2: 1, 3: 2})
        assert f.is_spanning_tree_of(g)
        assert not RootedForest(4, {1: 0, 2: 1}).is_spanning_tree_of(g)

    def test_subtree_nodes(self):
        f = RootedForest(5, {1: 0, 2: 0, 3: 1, 4: 1})
        assert sorted(f.subtree_nodes(1)) == [1, 3, 4]


class TestSpanningTrees:
    def test_bfs_spans(self):
        g = cycle_graph(7)
        t = bfs_spanning_tree(g, 3)
        assert t.is_spanning_tree_of(g)
        assert t.roots() == [3]

    def test_bfs_requires_connected(self):
        with pytest.raises(ValueError):
            bfs_spanning_tree(Graph(3, [(0, 1)]), 0)

    def test_spanning_forest_disconnected(self):
        g = Graph(5, [(0, 1), (2, 3)])
        f = spanning_forest(g)
        assert len(f.roots()) == 3  # components {0,1}, {2,3}, {4}

    def test_hamiltonian_path_forest(self):
        f = hamiltonian_path_forest([2, 0, 1], 3)
        assert f.roots() == [2]
        assert f.parent == {0: 2, 1: 0}


class TestEulerTour:
    def test_single_node(self):
        t = RootedForest(1)
        assert euler_tour(t, 0) == [0]

    def test_path_tour(self):
        t = RootedForest(3, {1: 0, 2: 1})
        assert euler_tour(t, 0) == [0, 1, 2, 1, 0]

    def test_star_tour(self):
        t = RootedForest(4, {1: 0, 2: 0, 3: 0})
        assert euler_tour(t, 0) == [0, 1, 0, 2, 0, 3, 0]

    @given(st.integers(2, 40), st.integers(0, 10))
    @settings(max_examples=50)
    def test_tour_length(self, n, seed):
        rng = random.Random(seed)
        parent = {v: rng.randrange(v) for v in range(1, n)}
        t = RootedForest(n, parent)
        tour = euler_tour(t, 0)
        assert len(tour) == 2 * (n - 1) + 1
        assert tour[0] == tour[-1] == 0
        assert set(tour) == set(range(n))
        # consecutive entries are tree edges
        edges = set(map(tuple, (sorted(e) for e in t.edges())))
        for a, b in zip(tour, tour[1:]):
            assert tuple(sorted((a, b))) in edges


class TestArboricity:
    @pytest.mark.parametrize("seed", range(4))
    def test_planar_graphs_split_into_three_forests(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            g = random_planar(rng.randint(4, 60), rng, keep_fraction=1.0)
            forests = arboricity_forest_partition(g)
            assert len(forests) == 3
            assignment = forest_partition_assignment(g, forests)
            assert set(assignment) == g.edge_set()

    def test_assignment_child_is_endpoint(self):
        g = random_planar(30, random.Random(1))
        forests = arboricity_forest_partition(g)
        for e, (fi, child) in forest_partition_assignment(g, forests).items():
            assert child in e
            assert 0 <= fi < 3


class TestColoring:
    def test_planar_degeneracy_at_most_5(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_apollonian(rng.randint(4, 80), rng)
            assert degeneracy(g) <= 5

    @pytest.mark.parametrize("seed", range(4))
    def test_greedy_coloring_proper_and_small(self, seed):
        rng = random.Random(seed)
        for _ in range(15):
            g = random_planar(rng.randint(3, 60), rng)
            coloring = greedy_coloring(g)
            assert is_proper_coloring(g, coloring)
            assert max(coloring.values(), default=0) <= 5  # <= 6 colors

    def test_coloring_covers_all_nodes(self):
        g = cycle_graph(9)
        assert set(greedy_coloring(g)) == set(g.nodes())


# -- the list-based Lemma-2.3 coloring against the Graph-object original ----
#
# The references below are the implementations the list-based routines
# replaced, kept verbatim: they build each contracted graph as a ``Graph``
# and peel forests off a ``Graph`` copy.  Every order the outputs depend on
# (bucket pops, BFS discovery, parent insertion) must come out the same.


def _ref_degeneracy_order(graph):
    n = graph.n
    degree = [len(a) for a in graph._adj]
    max_deg = max(degree, default=0)
    buckets = [[] for _ in range(max_deg + 1)]
    for v in range(n):
        buckets[degree[v]].append(v)
    removed = [False] * n
    order = []
    cur = 0
    while len(order) < n:
        bucket = buckets[cur]
        if not bucket:
            cur += 1
            continue
        v = bucket.pop()
        if removed[v] or degree[v] != cur:
            continue
        removed[v] = True
        order.append(v)
        for u in graph.neighbors(v):
            if not removed[u]:
                d = degree[u] - 1
                degree[u] = d
                buckets[d].append(u)
        if cur:
            cur -= 1
    return order


def _ref_greedy_coloring(graph):
    order = _ref_degeneracy_order(graph)
    col = [-1] * graph.n
    for v in reversed(order):
        taken = {col[u] for u in graph.neighbors(v)}
        c = 0
        while c in taken:
            c += 1
        col[v] = c
    return dict(enumerate(col))


def _ref_partial_forests(graph, count=3):
    """The partial cover of an arboricity-over-3 graph (its simulation)."""
    remaining = graph.copy()
    forests = []
    for _ in range(count):
        forest = spanning_forest(remaining)
        forests.append(forest)
        for u, p in forest.parent.items():
            remaining.remove_edge(u, p)
    return forests, remaining.m


def _ref_arboricity_forest_partition(graph, max_forests=3):
    remaining = graph.copy()
    forests = []
    for _ in range(max_forests):
        if remaining.m == 0:
            break
        forest = spanning_forest(remaining)
        forests.append(forest)
        for u, p in forest.parent.items():
            remaining.remove_edge(u, p)
    if remaining.m > 0:
        raise ValueError("not decomposable")
    while len(forests) < max_forests:
        forests.append(RootedForest(graph.n))
    return forests


def _ref_forest_encoding_columns(pairs):
    total = sum(g.n for g, _ in pairs)
    reps = (list(range(total)), list(range(total)))

    def find(rep, v):
        while rep[v] != v:
            rep[v] = rep[rep[v]]
            v = rep[v]
        return v

    parity = [0] * total
    is_root = [True] * total
    edges = []
    off = 0
    for g, forest in pairs:
        for v, p in forest.parent.items():
            d = forest.depth(v) % 2
            parity[v + off] = d
            is_root[v + off] = False
            rep = reps[d]
            rv, rp = find(rep, v + off), find(rep, p + off)
            if rv != rp:
                rep[rv] = rp
        edges += [(u + off, v + off) for u, v in g.edges()]
        off += g.n
    colors = []
    for rep in reversed(reps):
        group = {}
        mapping = [0] * total
        for v in range(total):
            r = find(rep, v)
            c = group.get(r)
            if c is None:
                c = group[r] = len(group)
            mapping[v] = c
        contracted = Graph.from_edge_list(
            len(group),
            [(mapping[u], mapping[v]) for u, v in edges if mapping[u] != mapping[v]],
        )
        col = _ref_greedy_coloring(contracted)
        colors.append([col[c] for c in mapping])
    c1, c2 = colors
    out = []
    off = 0
    for g, _ in pairs:
        end = off + g.n
        cols = (c1[off:end], c2[off:end], parity[off:end], is_root[off:end])
        if g.n and max(max(cols[0]), max(cols[1])) >= MAX_COLORS:
            out.append(None)
        else:
            out.append(cols)
        off = end
    return out


def _reference_graphs():
    """30 random planar graphs of 3-120 nodes; every third one is two
    planar graphs side by side (several components per forest)."""
    rng = random.Random(2024)
    graphs = []
    for i in range(30):
        n = rng.randint(3, 120)
        g = random_apollonian(n, rng) if i % 2 else random_planar(n, rng)
        if i % 3 == 0:
            h = random_planar(rng.randint(3, 40), rng)
            g = Graph(g.n + h.n, list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()])
        graphs.append(g)
    return graphs


def test_list_based_coloring_and_forests_match_the_graph_originals():
    graphs = _reference_graphs()
    assert len(graphs) == 30
    pairs = []
    for g in graphs:
        assert degeneracy_order(g) == _ref_degeneracy_order(g)
        assert greedy_coloring(g) == _ref_greedy_coloring(g)
        forests = arboricity_forest_partition(g)
        ref = _ref_arboricity_forest_partition(g)
        # same parent pointers, inserted in the same order
        assert [list(f.parent.items()) for f in forests] == [
            list(f.parent.items()) for f in ref
        ]
        own = [(g, f) for f in forests]
        if g.n:
            own.append((g, spanning_forest(g)))
        assert forest_encoding_columns(own) == _ref_forest_encoding_columns(own)
        pairs += own
    # one union pass over every pair at once
    assert forest_encoding_columns(pairs) == _ref_forest_encoding_columns(pairs)
    # graphs of arboricity over 3: the peeled forests and the edges left
    for g in (complete_graph(8), complete_graph(11)):
        forests, left = peel_forests(g, 3)
        ref, ref_left = _ref_partial_forests(g)
        assert left == ref_left > 0
        assert [list(f.parent.items()) for f in forests] == [
            list(f.parent.items()) for f in ref
        ]
        with pytest.raises(ValueError):
            arboricity_forest_partition(g)
