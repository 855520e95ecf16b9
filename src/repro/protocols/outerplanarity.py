"""Theorem 1.3: outerplanarity in 5 rounds, O(log log n) bits.

Section 6's composition over the block-cut tree:

1. *Decomposition stage*: cut/leader marks, sep/lead nonces drawn by cut
   nodes and block leaders and distributed along each block path, plus the
   d(C) mod 3 distances -- this pins every non-cut node to its block.
2. *Tree stage*: F = the union of the block paths P_C (each entered at the
   block's separating cut node) is a spanning tree of G, verified by the
   Lemma-2.5 protocol.
3. *Per-block stage*: every biconnected block runs the Theorem-6.1
   protocol -- path-outerplanarity (Theorem 1.2) over the Hamiltonian
   cycle cut at the separating node, plus the closing-edge condition
   (the committed path's endpoints must be adjacent).

Each block's labels map back to its own nodes; the labels of a block's
separating node are deferred to its block neighbors (the paper's trick to
keep cut-node labels O(log log n)); the composite accounting in
:mod:`repro.protocols.composition` reflects this.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..core.labels import uint_width
from ..core.network import Graph
from ..core.protocol import DecideBatch, DIPProtocol
from ..graphs.biconnectivity import block_cut_tree
from ..graphs.outerplanar import hamiltonian_cycle_of_biconnected_outerplanar
from ..graphs.spanning import RootedForest
from .composition import CompositeRunResult, SubRun, combine
from .instances import (
    OuterplanarInstance,
    PathOuterplanarInstance,
    SpanningSubgraphInstance,
)
from .path_outerplanarity import (
    HonestPathOuterplanarityProver,
    PathOuterplanarityProtocol,
    batch_simulations,
    run_staged,
)
from .spanning_tree import STVProver, SpanningTreeVerificationProtocol


class OuterplanarityProver:
    """Hooks: per-block witness paths (adversaries override)."""

    def __init__(self, instance: OuterplanarInstance):
        self.instance = instance

    def block_path(
        self, block_sub: Graph, sep_local: Optional[int]
    ) -> Optional[List[int]]:
        """A Hamiltonian path of the block starting at its separating node
        whose endpoints close a cycle edge (Theorem 6.1)."""
        cycle = hamiltonian_cycle_of_biconnected_outerplanar(block_sub)
        if cycle is None:
            return None
        if sep_local is not None:
            i = cycle.index(sep_local)
            cycle = cycle[i:] + cycle[:i]
        return cycle

    def sub_prover(self, sub_instance: PathOuterplanarInstance):
        return HonestPathOuterplanarityProver(sub_instance)


class OuterplanarityProtocol(DIPProtocol):
    """Theorem 1.3."""

    name = "outerplanarity"
    designed_rounds = 5

    def __init__(self, c: int = 2, stv_repetitions: int = 6):
        self.c = c
        self.stv_repetitions = stv_repetitions
        self.sub_protocol = PathOuterplanarityProtocol(c)

    def honest_prover(self, instance) -> OuterplanarityProver:
        return OuterplanarityProver(instance)

    def execute(
        self,
        instance: OuterplanarInstance,
        prover: Optional[OuterplanarityProver] = None,
        rng: Optional[random.Random] = None,
    ) -> CompositeRunResult:
        rng = rng or random.Random()
        g = instance.graph
        prover = prover or self.honest_prover(instance)
        host_ok = True
        rejecting: List[int] = []

        if g.n <= 2 or g.m == 0:
            return combine(self.name, g.n, [], host_ok=True)
        if not g.is_connected():
            return combine(
                self.name, g.n, [], host_ok=False,
                host_rejecting=list(g.nodes()),
            )

        bct = block_cut_tree(g)
        blocks = {
            bi: g.subgraph(nodes)
            for bi, nodes in enumerate(bct.block_nodes)
            if len(nodes) > 2
        }
        sims = dict(zip(blocks, batch_simulations([sub for sub, _ in blocks.values()])))
        batch = DecideBatch()
        jobs = []
        #: per block of more than two nodes, in block order
        block_runs: List[Tuple[int, Graph, Dict[int, int], object]] = []
        for bi, block_nodes in enumerate(bct.block_nodes):
            if len(block_nodes) == 2:
                continue
            sub, index = blocks[bi]
            sep = bct.separating_node[bi]
            sep_local = index[sep] if sep is not None else None
            # a prover that cannot exhibit the block structure (None)
            # commits a rejected fallback sub-run on this block
            path_local = prover.block_path(sub, sep_local)
            sub_instance = PathOuterplanarInstance(
                sub,
                witness_path=list(path_local) if path_local else None,
            )
            sub_prover = prover.sub_prover(sub_instance)
            jobs.append(
                self.sub_protocol.job(
                    sub_instance,
                    sub_prover,
                    random.Random(rng.getrandbits(64)),
                    batch,
                    sims[bi],
                )
            )
            block_runs.append((bi, sub, index, sub_prover))
        f_rng = random.Random(rng.getrandbits(64))
        stv = SpanningTreeVerificationProtocol(
            self.stv_repetitions, enforce_instance_edges=False
        )
        committed: Dict[int, Optional[List[int]]] = {}
        spanning = []

        def f_job():
            # stage 2: F, the union of the block paths (committed by the
            # block jobs' set-up, which runs before this one's), is
            # verified as a spanning tree of G
            for bi, _, _, sub_prover in block_runs:
                committed[bi] = getattr(sub_prover, "path", None)
            forest, spanning_ok = _tree_f(g, bct, blocks, committed)
            spanning.append(spanning_ok)
            f_edges = frozenset((min(u, v), max(u, v)) for u, v in forest.edges())
            return (
                yield from stv.job(
                    SpanningSubgraphInstance(g, f_edges),
                    STVProver(g, forest),
                    f_rng,
                    batch,
                )
            )

        pending = run_staged(jobs + [f_job()])
        batch.run()

        sub_runs = []
        for (bi, sub, index, _), run in zip(block_runs, pending):
            sep = bct.separating_node[bi]
            sep_local = index[sep] if sep is not None else None
            # Theorem 6.1 closing-edge condition + the path must start at
            # the separating node (both checked from the committed path)
            path = committed[bi]
            block_ok = (
                path is not None
                and len(path) == sub.n
                and sub.has_edge(path[0], path[-1])
                and (sep_local is None or path[0] == sep_local)
            )
            if not block_ok:
                host_ok = False
                rejecting.extend(bct.block_nodes[bi])
            inverse = {i: v for v, i in index.items()}
            node_map: Dict[int, Tuple[int, ...]] = {}
            for local, host in inverse.items():
                if sep is not None and host == sep:
                    # defer the separating node's labels to its block
                    # neighbors
                    node_map[local] = tuple(
                        inverse[u] for u in sub.neighbors(local)
                    )
                else:
                    node_map[local] = (host,)
            sub_runs.append(SubRun(f"block-{bi}", run.result, node_map))
        sub_runs.append(SubRun("stv-F", pending[-1].result, {v: (v,) for v in g.nodes()}))
        if not spanning[0]:
            host_ok = False

        # -- stage 1: decomposition nonces (accounting + structural check) --
        w = max(4, self.c * uint_width(max(2, g.n.bit_length())))
        nonce_ok = _nonce_stage(g, bct, rng)
        if not nonce_ok:
            host_ok = False
        stage_bits = {v: 2 * w + 4 for v in g.nodes()}

        return combine(
            self.name,
            g.n,
            sub_runs,
            host_ok=host_ok,
            host_rejecting=rejecting,
            extra_bits=[stage_bits],
            meta={"n_blocks": len(bct.blocks)},
        )


def _tree_f(g: Graph, bct, blocks, committed) -> Tuple[RootedForest, bool]:
    """F: every bridge, and every block's committed path (rooted at its
    first node), as one rooted forest; and whether F spans G as a tree."""
    forest_parent: Dict[int, int] = {}
    for bi, block_nodes in enumerate(bct.block_nodes):
        sep = bct.separating_node[bi]
        if len(block_nodes) == 2:
            a, b = sorted(block_nodes)
            if sep is None:
                forest_parent.pop(a, None)
                forest_parent[b] = a
            else:
                forest_parent[a if b == sep else b] = sep
            continue
        path = committed[bi]
        if path:
            sub, index = blocks[bi]
            inverse = {i: v for v, i in index.items()}
            hosts = [inverse[i] for i in path]
            for a, b in zip(hosts, hosts[1:]):
                forest_parent[b] = a
    try:
        forest = RootedForest(g.n, forest_parent)
        return forest, forest.is_spanning_tree_of(g)
    except ValueError:
        return RootedForest(g.n, {}), False


def _nonce_stage(g: Graph, bct, rng: random.Random) -> bool:
    """The sep/lead nonce checks of Section 6, stage 1.

    Every cut node and every block leader draws a nonce; the prover
    distributes (sep, lead) along each block path; each non-cut node checks
    that all its neighbors carry the same pair unless they are its block's
    separating cut node.  With the honest decomposition this always passes;
    it exists here to carry the test-suite's planted-lie experiments and
    the label accounting.
    """
    sep_nonce = {}
    for v in bct.cut_nodes:
        sep_nonce[v] = rng.getrandbits(16)
    block_of: Dict[int, int] = {}
    for bi, nodes in enumerate(bct.block_nodes):
        for v in nodes:
            if v not in bct.cut_nodes:
                block_of[v] = bi
    for v in g.nodes():
        if v in bct.cut_nodes:
            continue
        bi = block_of[v]
        for u in g.neighbors(v):
            if u in bct.cut_nodes:
                if u not in bct.block_nodes[bi]:
                    return False
            elif block_of.get(u) != bi:
                return False
    return True
