"""E8: ablations called out in DESIGN.md.

(a) The Section-3 clustering strawman is fooled by a split K5 while the
    real Theorem-1.5 protocol is not (the paper's motivating example).
(b) The soundness constant c: larger fields cut the cheat acceptance rate
    (soundness 1/polylog^c) at an O(log log n)-bit price.
(c) Spanning-tree verification repetitions: soundness (1/17)^t at Theta(t)
    bits (the paper's black-box amplification of Lemma 2.5).
"""

import random

import pytest

from repro.adversaries import (
    ClusteringScheme,
    InnerBlockLiarProver,
    adversarial_clique_partition,
    k5_with_padding,
)
from repro.analysis.experiments import print_table
from repro.graphs.planarity import is_planar
from repro.graphs.generators import random_planar
from repro.graphs.spanning import RootedForest, bfs_spanning_tree
from repro.core.network import norm_edge
from repro.protocols.instances import PlanarityInstance, SpanningSubgraphInstance
from repro.protocols.lr_sorting import LRParams, LRSortingProtocol
from repro.protocols.planarity import PlanarityProtocol
from repro.protocols.spanning_tree import STVProver, SpanningTreeVerificationProtocol

from conftest import lr_instance


def test_clustering_attack(benchmark):
    rng = random.Random(0)
    g = k5_with_padding(60, rng)
    assert not is_planar(g)
    partition = adversarial_clique_partition(g, range(5), 8, rng)
    strawman = ClusteringScheme(8).accepts(g, partition)
    real = PlanarityProtocol(c=2).execute(
        PlanarityInstance(g), rng=random.Random(0)
    ).accepted
    print_table(
        "E8a Section-3 clustering attack (K5 split 2+3 across clusters)",
        ("verifier", "accepts the non-planar instance?"),
        [("clustering strawman", strawman), ("Theorem 1.5 protocol", real)],
    )
    assert strawman and not real
    benchmark(lambda: ClusteringScheme(8).accepts(g, partition))


def test_soundness_constant_c(benchmark):
    rows = []
    rng = random.Random(1)
    for c in (1, 2, 3):
        proto = LRSortingProtocol(c=c)
        accepted = 0
        trials = 30
        for t in range(trials):
            inst = lr_instance(64, rng, flip_edges=1)
            res = proto.execute(
                inst, prover=InnerBlockLiarProver(inst), rng=random.Random(t)
            )
            accepted += res.accepted
        pm = LRParams(64, c)
        inst_y = lr_instance(64, rng)
        size = proto.execute(inst_y, rng=random.Random(0)).proof_size_bits
        rows.append((c, pm.p, f"{accepted}/{trials}", f"{size}b"))
    print_table(
        "E8b field size (c) vs cheat acceptance (nonce collision ~ 1/p)",
        ("c", "p", "cheat accepted", "honest proof size"),
        rows,
    )
    proto = LRSortingProtocol(c=2)
    inst = lr_instance(64, rng, flip_edges=1)
    benchmark(
        lambda: proto.execute(
            inst, prover=InnerBlockLiarProver(inst), rng=random.Random(0)
        )
    )


def test_stv_repetitions(benchmark):
    rng = random.Random(2)
    rows = []
    for reps in (1, 2, 4, 8):
        proto = SpanningTreeVerificationProtocol(repetitions=reps)
        accepted = 0
        trials = 40
        size = 0
        for t in range(trials):
            g = random_planar(24, rng)
            tree = bfs_spanning_tree(g, 0)
            parent = dict(tree.parent)
            del parent[rng.choice(list(parent))]  # two roots: a cheat
            bad = RootedForest(g.n, parent)
            inst = SpanningSubgraphInstance(
                g, frozenset(norm_edge(u, v) for u, v in bad.edges())
            )

            class Cheater(STVProver):
                def round3(self, coins, repetitions):
                    from repro.primitives.spanning_tree_verification import (
                        honest_round3_columns,
                    )

                    columns = honest_round3_columns(
                        self.tree, [coins[v] for v in self.graph.nodes()], repetitions
                    )
                    root = self.tree.roots()[0]
                    for j in range(repetitions):
                        columns[2 * j + 1] = [columns[2 * j][root]] * self.graph.n
                    return columns

            res = proto.execute(inst, prover=Cheater(g, bad), rng=random.Random(t))
            accepted += res.accepted
            size = max(size, res.proof_size_bits)
        rows.append((reps, f"(1/17)^{reps}", f"{accepted}/{trials}", f"{size}b"))
    print_table(
        "E8c Lemma 2.5 amplification: repetitions vs soundness vs size",
        ("t", "paper error", "cheat accepted", "proof size"),
        rows,
    )
    proto = SpanningTreeVerificationProtocol(repetitions=4)
    g = random_planar(24, rng)
    tree = bfs_spanning_tree(g, 0)
    inst = SpanningSubgraphInstance(
        g, frozenset(norm_edge(u, v) for u, v in tree.edges())
    )
    benchmark(lambda: proto.execute(inst, rng=random.Random(0)))


def test_round_truncation(benchmark):
    """E8d: rounds 4-5 are load-bearing (an Open Question 2 probe).

    The stealth index liar commits a fabricated distinguishing index that
    no round-1..3 pairwise check can see; only the verification scheme's
    multiset sessions (rounds 4-5) compare it against the block's actual
    bits.  A 3-round truncation of the protocol accepts it roughly half
    the time; the full protocol never does.
    """
    from repro.adversaries import StealthIndexLiarProver

    rng = random.Random(3)
    full = LRSortingProtocol(c=2)
    truncated = LRSortingProtocol(c=2, truncate_to_three_rounds=True)
    fooled = caught = trials = 25
    fooled = caught = 0
    for t in range(trials):
        inst = lr_instance(150, rng, flip_edges=1)
        prover = StealthIndexLiarProver(inst)
        fooled += truncated.execute(
            inst, prover=prover, rng=random.Random(t)
        ).accepted
        caught += not full.execute(
            inst, prover=prover, rng=random.Random(t)
        ).accepted
    print_table(
        "E8d round truncation vs the stealth index liar",
        ("verifier", "outcome"),
        [
            ("3-round truncation", f"fooled {fooled}/{trials}"),
            ("full 5-round protocol", f"caught {caught}/{trials}"),
        ],
    )
    assert fooled >= trials // 4  # the truncation is broken
    assert caught == trials  # the full protocol is not
    inst = lr_instance(150, rng, flip_edges=1)
    prover = StealthIndexLiarProver(inst)
    benchmark(lambda: truncated.execute(inst, prover=prover, rng=random.Random(0)))
