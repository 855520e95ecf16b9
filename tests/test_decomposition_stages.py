"""Planted-lie tests for the host-level decomposition stages.

The composite protocols check decomposition consistency through nonce
stages (sep/lead nonces in Theorem 1.3, ear/pred_ear nonces in Theorem
1.6).  These tests plant structural lies directly into the stage inputs
and assert the checks notice.
"""

import random

import pytest

from repro.core.network import Graph, complete_graph, cycle_graph
from repro.graphs.biconnectivity import block_cut_tree
from repro.graphs.generators import random_outerplanar, random_series_parallel
from repro.graphs.series_parallel import Ear, nested_ear_decomposition
from repro.protocols.outerplanarity import _nonce_stage
from repro.protocols.instances import SeriesParallelInstance, Treewidth2Instance
from repro.protocols.path_outerplanarity import HonestPathOuterplanarityProver
from repro.protocols.series_parallel import SeriesParallelProtocol, _ear_nonce_stage
from repro.protocols.treewidth2 import Treewidth2Protocol, Treewidth2Prover


class TestBlockNonceStage:
    def test_honest_decomposition_passes(self):
        rng = random.Random(0)
        for _ in range(10):
            g = random_outerplanar(rng.randint(4, 40), rng)
            if g.m == 0 or not g.is_connected():
                continue
            bct = block_cut_tree(g)
            assert _nonce_stage(g, bct, rng)

    def test_decomposition_of_wrong_graph_fails(self):
        """A claimed decomposition whose blocks do not match the real
        adjacency: some node has a neighbor outside its claimed block."""
        rng = random.Random(1)
        # two triangles sharing node 2
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        bct = block_cut_tree(g)
        # plant the lie: add an edge between the two blocks' interiors
        # without updating the decomposition
        g2 = g.copy()
        g2.add_edge(0, 4)
        assert not _nonce_stage(g2, bct, rng)


class TestEarNonceStage:
    def _setup(self, rng):
        g = random_series_parallel(rng.randint(6, 40), rng)
        ears = nested_ear_decomposition(g)
        assert ears is not None
        sub_ears = [
            list(e.path) if j == 0 else list(e.interior)
            for j, e in enumerate(ears)
        ]
        return g, ears, sub_ears

    def test_honest_decomposition_passes(self):
        rng = random.Random(2)
        for _ in range(10):
            g, ears, sub_ears = self._setup(rng)
            assert _ear_nonce_stage(g, ears, sub_ears, rng)

    def test_endpoint_outside_parent_fails(self):
        rng = random.Random(3)
        for _ in range(20):
            g, ears, sub_ears = self._setup(rng)
            liars = [j for j, e in enumerate(ears) if j > 0]
            if not liars:
                continue
            j = rng.choice(liars)
            ear = ears[j]
            # reparent the ear to one that misses an endpoint
            for k in range(len(ears)):
                if k != ear.parent and not all(
                    v in ears[k].path for v in ear.endpoints
                ):
                    bad = list(ears)
                    bad[j] = Ear(ear.path, k)
                    assert not _ear_nonce_stage(g, bad, sub_ears, rng)
                    return
        pytest.skip("no reparenting candidate found")

    def test_node_in_two_sub_ears_fails(self):
        rng = random.Random(4)
        g, ears, sub_ears = self._setup(rng)
        donors = [q for q in sub_ears if q]
        if len(donors) < 2:
            pytest.skip("too few sub-ears")
        # duplicate a node into another sub-ear: the partition breaks
        sub_ears[0] = sub_ears[0] + [donors[-1][0]]
        assert not _ear_nonce_stage(g, ears, sub_ears, rng)

    def test_missing_connecting_edge_fails(self):
        rng = random.Random(5)
        for _ in range(20):
            g, ears, sub_ears = self._setup(rng)
            with_interior = [
                j for j, e in enumerate(ears) if j > 0 and e.interior
            ]
            if not with_interior:
                continue
            j = with_interior[0]
            ear = ears[j]
            # delete the connecting edge from the graph the stage sees
            g2 = g.copy()
            g2.remove_edge(ear.endpoints[0], ear.interior[0])
            assert not _ear_nonce_stage(g2, ears, sub_ears, rng)
            return
        pytest.skip("no ear with interior found")


class _K4ParentLiar:
    """Commits K4 as a 'nested ear decomposition' whose last ear claims
    parent -1 (attached to no ear), dodging the per-ear nesting stage."""

    ears = [Ear([0, 1, 2, 3], -1), Ear([0, 2], 0), Ear([0, 3], 0), Ear([1, 3], -1)]

    def __init__(self, instance, ears=None):
        self.instance = instance
        if ears is not None:
            self.ears = ears

    def decomposition(self):
        return list(self.ears)

    def sub_prover(self, sub_instance):
        return HonestPathOuterplanarityProver(sub_instance)


class TestEarParentOrdering:
    """Condition (1) parent ordering: ears[0] is the root, ear j names a
    parent in [0, j); anything else is rejected before indexing."""

    def test_k4_with_unattached_ear_rejected_on_every_seed(self):
        instance = SeriesParallelInstance(complete_graph(4))
        protocol = SeriesParallelProtocol()
        for seed in range(20):
            result = protocol.execute(
                instance, prover=_K4ParentLiar(instance), rng=random.Random(seed)
            )
            assert not result.accepted, seed

    @pytest.mark.parametrize("parent", [4, 3, 99])
    def test_out_of_range_parent_rejected_without_exception(self, parent):
        instance = SeriesParallelInstance(complete_graph(4))
        ears = list(_K4ParentLiar.ears)
        ears[3] = Ear([1, 3], parent)
        result = SeriesParallelProtocol().execute(
            instance, prover=_K4ParentLiar(instance, ears), rng=random.Random(0)
        )
        assert not result.accepted

    def test_stage_rejects_bad_parents_and_root(self):
        rng = random.Random(6)
        g, ears, sub_ears = TestEarNonceStage()._setup(rng)
        assert _ear_nonce_stage(g, ears, sub_ears, rng)
        for j in range(1, len(ears)):
            for parent in (-1, j, len(ears)):
                bad = list(ears)
                bad[j] = Ear(ears[j].path, parent)
                assert not _ear_nonce_stage(g, bad, sub_ears, rng)
        rooted_badly = [Ear(ears[0].path, 0)] + list(ears[1:])
        assert not _ear_nonce_stage(g, rooted_badly, sub_ears, rng)

    def test_treewidth2_with_lying_block_prover_rejected(self):
        class LyingTreewidth2Prover(Treewidth2Prover):
            def block_prover(self, sub_instance):
                return _K4ParentLiar(sub_instance)

        instance = Treewidth2Instance(complete_graph(4))
        protocol = Treewidth2Protocol()
        for seed in range(10):
            result = protocol.execute(
                instance,
                prover=LyingTreewidth2Prover(instance),
                rng=random.Random(seed),
            )
            assert not result.accepted, seed
