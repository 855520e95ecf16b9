"""Left-right planarity test vs the networkx oracle + Euler validation."""

import json
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.core.network import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from repro.dynamic.driver import ChurnCampaignSpec, campaign_stream, initial_graph
from repro.dynamic.updates import apply_stream
from repro.graphs.embedding import embedding_is_planar
from repro.graphs.generators import (
    random_apollonian,
    random_planar,
    random_planar_embedding_instance,
)
from repro.graphs.planarity import find_planar_embedding, is_planar

from conftest import nx_graph


class TestKnownGraphs:
    def test_k4_planar(self):
        assert is_planar(complete_graph(4))

    def test_k5_not_planar(self):
        assert not is_planar(complete_graph(5))

    def test_k33_not_planar(self):
        assert not is_planar(complete_bipartite_graph(3, 3))

    def test_k5_minus_edge_planar(self):
        g = complete_graph(5)
        g.remove_edge(0, 1)
        assert is_planar(g)

    def test_paths_cycles_trees(self):
        assert is_planar(path_graph(10))
        assert is_planar(cycle_graph(10))

    def test_tiny(self):
        assert is_planar(Graph(0))
        assert is_planar(Graph(1))
        assert is_planar(Graph(2, [(0, 1)]))

    def test_petersen_not_planar(self):
        # Petersen graph: outer C5, inner 5-star, spokes
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        edges += [(i, 5 + i) for i in range(5)]
        assert not is_planar(Graph(10, edges))

    def test_edge_count_shortcut(self):
        # any graph with m > 3n-6 is rejected without running the DFS
        g = complete_graph(8)
        assert not is_planar(g)


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_match_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            n = rng.randint(1, 25)
            p = rng.choice([0.08, 0.15, 0.3, 0.5])
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < p
            ]
            g = Graph(n, edges)
            expected, _ = nx.check_planarity(nx_graph(g))
            assert is_planar(g) == expected, (n, edges)

    def test_disconnected_graphs(self):
        rng = random.Random(9)
        for _ in range(20):
            # two components, one possibly nonplanar
            k = complete_graph(5) if rng.random() < 0.5 else complete_graph(4)
            g = Graph(k.n + 4)
            for u, v in k.edges():
                g.add_edge(u, v)
            g.add_edge(k.n, k.n + 1)
            g.add_edge(k.n + 2, k.n + 3)
            assert is_planar(g) == (k.n == 4)


class TestEmbeddingExtraction:
    @pytest.mark.parametrize("seed", range(4))
    def test_embedding_satisfies_euler(self, seed):
        rng = random.Random(seed)
        checked = 0
        for _ in range(60):
            n = rng.randint(2, 25)
            p = rng.choice([0.1, 0.25, 0.4])
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < p
            ]
            g = Graph(n, edges)
            emb = find_planar_embedding(g)
            if emb is None or g.m == 0:
                continue
            checked += 1
            assert embedding_is_planar(g, emb)
        assert checked > 10

    def test_embedding_covers_all_edges(self):
        g = complete_graph(4)
        emb = find_planar_embedding(g)
        for v in g.nodes():
            assert sorted(emb.rotation(v)) == list(g.neighbors(v))

    def test_large_planar_graph(self):
        from repro.graphs.generators import random_apollonian

        g = random_apollonian(500, random.Random(1))
        emb = find_planar_embedding(g)
        assert emb is not None
        assert embedding_is_planar(g, emb)


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "lr_embedding_golden.json").read_text()
)["graphs"]


def _golden_sources():
    """The graphs the golden fixture was recorded on, rebuilt by name."""
    graphs = {}
    for n in (16, 64, 256):
        for seed in range(3):
            g, _ = random_planar_embedding_instance(n, random.Random(seed))
            graphs[f"random_planar_embedding_instance(n={n}, seed={seed})"] = g
    graphs["random_apollonian(500, Random(1))"] = random_apollonian(500, random.Random(1))
    spec = ChurnCampaignSpec(task="planarity", n=64, seed=31, n_updates=8)
    g0 = initial_graph(spec)
    stream = campaign_stream(spec, g0)
    for k in range(spec.n_updates + 1):
        graphs[f"planarity churn n=64 seed=31 preserving epoch {k}"] = apply_stream(
            g0, [u for u, _ in stream[:k]]
        )
    return graphs


class TestGoldenRotations:
    """``find_planar_embedding`` reproduces recorded rotation systems
    exactly: same DFS visiting order, same stable sort by nesting depth,
    same side/ref resolution."""

    @pytest.mark.parametrize("entry", GOLDEN, ids=[e["name"] for e in GOLDEN])
    def test_rotations_match_golden(self, entry):
        g = Graph(entry["n"], [tuple(e) for e in entry["edges"]])
        emb = find_planar_embedding(g)
        assert emb is not None
        assert [emb.rotation(v) for v in g.nodes()] == entry["rotations"]

    def test_fixture_graphs_are_the_named_graphs(self):
        sources = _golden_sources()
        named = {e["name"]: e for e in GOLDEN if e["name"] in sources}
        assert set(named) == set(sources)
        assert any([] in e["rotations"] for e in GOLDEN), "no graph with isolated nodes"
        for name, g in sources.items():
            assert named[name]["edges"] == [list(e) for e in g.edges()], name


class TestStreamQueryShape:
    """The churn stream's query: a random planar graph plus one random
    non-edge (planar or not), checked against networkx."""

    @pytest.mark.parametrize("n", [32, 128, 256])
    def test_planar_plus_one_edge_matches_networkx(self, n):
        rng = random.Random(n)
        verdicts = []
        for _ in range(4):
            g = random_planar(n, rng)
            for _ in range(17):
                u, v = rng.randrange(n), rng.randrange(n)
                while u == v or g.has_edge(u, v):
                    u, v = rng.randrange(n), rng.randrange(n)
                g.add_edge(u, v)
                expected, _ = nx.check_planarity(nx_graph(g))
                assert is_planar(g) == expected, (n, u, v)
                emb = find_planar_embedding(g)
                assert (emb is not None) == expected
                if expected:
                    assert embedding_is_planar(g, emb)
                verdicts.append(expected)
                g.remove_edge(u, v)
        assert True in verdicts and False in verdicts


class TestNoRecursion:
    def test_long_cycle_leaves_recursion_limit_alone(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
        before = sys.getrecursionlimit()
        g = cycle_graph(100_000)
        assert is_planar(g)
        emb = find_planar_embedding(g)
        assert emb is not None
        assert emb.rotation(0) == [1, 99_999]
        assert sys.getrecursionlimit() == before
        assert calls == []
