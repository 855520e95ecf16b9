"""Theorem 1.7: treewidth <= 2 in 5 rounds, O(log log n) bits.

Lemma 8.2 (Bodlaender): tw(G) <= 2 iff every biconnected component of G is
series-parallel.  The protocol decomposes G along its block-cut tree
(exactly as Theorem 1.3 does for outerplanarity) and runs the Theorem-1.6
series-parallel protocol inside every block; a block's separating node
defers its labels to its block neighbors to stay within O(log log n) bits.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..core.labels import uint_width
from ..core.protocol import DecideBatch, DIPProtocol
from ..graphs.biconnectivity import block_cut_tree
from .composition import CompositeRunResult, SubRun, combine
from .instances import SeriesParallelInstance, Treewidth2Instance
from .path_outerplanarity import batch_simulations, run_staged
from .series_parallel import SeriesParallelProtocol, SeriesParallelProver


class Treewidth2Prover:
    """Hook: the per-block series-parallel prover."""

    def __init__(self, instance: Treewidth2Instance):
        self.instance = instance

    def block_prover(self, sub_instance: SeriesParallelInstance):
        return SeriesParallelProver(sub_instance)


class Treewidth2Protocol(DIPProtocol):
    """Theorem 1.7."""

    name = "treewidth-2"
    designed_rounds = 5

    def __init__(self, c: int = 2):
        self.c = c
        self.sub_protocol = SeriesParallelProtocol(c)

    def honest_prover(self, instance) -> Treewidth2Prover:
        return Treewidth2Prover(instance)

    def execute(
        self,
        instance: Treewidth2Instance,
        prover: Optional[Treewidth2Prover] = None,
        rng: Optional[random.Random] = None,
    ) -> CompositeRunResult:
        rng = rng or random.Random()
        g = instance.graph
        prover = prover or self.honest_prover(instance)
        if g.n <= 2 or g.m == 0:
            return combine(self.name, g.n, [], host_ok=True)
        if not g.is_connected():
            return combine(
                self.name, g.n, [], host_ok=False,
                host_rejecting=list(g.nodes()),
            )

        bct = block_cut_tree(g)
        sp = self.sub_protocol
        blocks = []
        for bi, block_nodes in enumerate(bct.block_nodes):
            if len(block_nodes) <= 2:
                continue  # a bridge: tw 1
            sub, index = g.subgraph(block_nodes)
            sub_instance = SeriesParallelInstance(sub)
            plan = sp.plan(sub_instance, prover.block_prover(sub_instance))
            blocks.append((bi, sub, index, plan))
        # every block's ears share one simulation pass and one decide batch,
        sims = iter(
            batch_simulations(
                [aux for *_, plan in blocks for aux in plan.nesting_graphs()]
            )
        )
        # ... and all blocks' sub-runs run as one staged host execution
        batch = DecideBatch()
        jobs = []
        sizes = []
        for *_, plan in blocks:
            sims_of_block = [next(sims) for _ in plan.nesting]
            block_jobs = sp.jobs(plan, random.Random(rng.getrandbits(64)), batch, sims_of_block)
            jobs += block_jobs
            sizes.append(len(block_jobs))
        pending = iter(run_staged(jobs))
        batch.run()

        host_ok = True
        rejecting: List[int] = []
        sub_runs: List[SubRun] = []
        for (bi, sub, index, plan), size in zip(blocks, sizes):
            run = sp.finish(plan, [next(pending) for _ in range(size)])
            inverse = {i: v for v, i in index.items()}
            sep = bct.separating_node[bi]
            node_map: Dict[int, Tuple[int, ...]] = {}
            for local, host in inverse.items():
                if sep is not None and host == sep:
                    node_map[local] = tuple(
                        inverse[u] for u in sub.neighbors(local)
                    )
                else:
                    node_map[local] = (host,)
            # flatten the nested composite: lift each of the block run's
            # own sub-runs to host coordinates
            for inner in run.sub_runs:
                lifted = {
                    s: tuple(
                        h
                        for mid in hosts_mid
                        for h in node_map.get(mid, ())
                    )
                    for s, hosts_mid in inner.node_map.items()
                }
                lifted_edges = None
                if inner.edge_map is not None:
                    lifted_edges = {
                        e: tuple(
                            h
                            for mid in hosts_mid
                            for h in node_map.get(mid, ())
                        )
                        for e, hosts_mid in inner.edge_map.items()
                    }
                sub_runs.append(
                    SubRun(
                        f"block-{bi}-{inner.name}", inner.result, lifted,
                        edge_map=lifted_edges,
                    )
                )
            if not run.accepted:
                host_ok = False
                for local in run.rejecting_nodes:
                    rejecting.extend(node_map.get(local, ()))

        w = max(4, self.c * uint_width(max(2, g.n.bit_length())))
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
