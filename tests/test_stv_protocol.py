"""Lemma 2.5: spanning-tree verification protocol."""

import random

import pytest

from repro.core.network import Graph, cycle_graph, norm_edge, path_graph
from repro.graphs.generators import random_planar
from repro.graphs.spanning import RootedForest, bfs_spanning_tree
from repro.protocols.instances import SpanningSubgraphInstance
from repro.protocols.spanning_tree import STVProver, SpanningTreeVerificationProtocol


def _instance(g, tree):
    return SpanningSubgraphInstance(
        g, frozenset(norm_edge(u, v) for u, v in tree.edges())
    )


class TestCompleteness:
    @pytest.mark.parametrize("seed", range(4))
    def test_honest_always_accepts(self, seed):
        rng = random.Random(seed)
        proto = SpanningTreeVerificationProtocol(repetitions=4)
        for _ in range(10):
            g = random_planar(rng.randint(2, 50), rng)
            tree = bfs_spanning_tree(g, rng.randrange(g.n))
            res = proto.execute(_instance(g, tree), rng=random.Random(seed))
            assert res.accepted
            assert res.n_rounds == 3

    def test_constant_label_size(self):
        proto = SpanningTreeVerificationProtocol(repetitions=4)
        sizes = []
        for n in (16, 128, 1024):
            g = random_planar(n, random.Random(0))
            tree = bfs_spanning_tree(g, 0)
            res = proto.execute(_instance(g, tree), rng=random.Random(1))
            sizes.append(res.proof_size_bits)
        assert sizes[0] == sizes[1] == sizes[2]  # O(1), independent of n


class TestSoundness:
    def test_forest_with_two_roots_rejected(self):
        rng = random.Random(5)
        proto = SpanningTreeVerificationProtocol(repetitions=4)
        rejected = 0
        trials = 30
        for t in range(trials):
            g = random_planar(25, rng)
            tree = bfs_spanning_tree(g, 0)
            parent = dict(tree.parent)
            victim = rng.choice(list(parent))
            del parent[victim]
            bad = RootedForest(g.n, parent)
            res = proto.execute(
                _instance(g, bad),
                prover=STVProver(g, bad),
                rng=random.Random(t),
            )
            rejected += not res.accepted
        assert rejected == trials  # honest machinery can never equate sums

    def test_non_tree_edges_rejected_deterministically(self):
        g = cycle_graph(6)
        # claim the full cycle (n edges) is a "tree"
        proto = SpanningTreeVerificationProtocol(repetitions=4)
        inst = SpanningSubgraphInstance(g, g.edge_set())
        res = proto.execute(inst, rng=random.Random(0))
        assert not res.accepted

    def test_instance_edge_enforcement(self):
        # prover commits a tree different from the instance's marked edges
        g = cycle_graph(5)
        tree = bfs_spanning_tree(g, 0)
        other = bfs_spanning_tree(g, 2)
        proto = SpanningTreeVerificationProtocol(repetitions=4)
        res = proto.execute(
            _instance(g, tree),
            prover=STVProver(g, other),
            rng=random.Random(0),
        )
        assert not res.accepted

    def test_adversarial_global_sum_caught(self):
        """A cheating prover that picks Z := s(root_1) to appease one root
        still loses at the other root w.h.p."""
        from repro.primitives.spanning_tree_verification import honest_round3_columns

        class TwoRootCheater(STVProver):
            def round3(self, coins, repetitions):
                columns = honest_round3_columns(
                    self.tree, [coins[v] for v in self.graph.nodes()], repetitions
                )
                roots = self.tree.roots()
                # overwrite every Z with the first root's subtree sum
                for j in range(repetitions):
                    columns[2 * j + 1] = [columns[2 * j][roots[0]]] * self.graph.n
                return columns

        rng = random.Random(11)
        proto = SpanningTreeVerificationProtocol(repetitions=4)
        rejected = 0
        trials = 40
        for t in range(trials):
            g = random_planar(30, rng)
            tree = bfs_spanning_tree(g, 0)
            parent = dict(tree.parent)
            victims = rng.sample(list(parent), 1)
            for v in victims:
                del parent[v]
            bad = RootedForest(g.n, parent)
            res = proto.execute(
                _instance(g, bad),
                prover=TwoRootCheater(g, bad),
                rng=random.Random(t),
            )
            rejected += not res.accepted
        # soundness error (1/17)^4 per repetition set: expect ~all rejected
        assert rejected >= trials - 2
