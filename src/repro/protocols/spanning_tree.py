"""Lemma 2.5 as a standalone 3-round protocol (substrate task).

Wraps the :mod:`repro.primitives.spanning_tree_verification` machinery into
a :class:`DIPProtocol` with a proper transcript: used directly as a
sub-run by the composite protocols (Theorems 1.3-1.7) and benchmarked as
the substrate experiment.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..core.labels import BitString, Label
from ..core.network import Graph
from ..core.protocol import DecodeCache, DIPProtocol, Interaction
from ..core.transcript import RunResult
from ..core.views import NodeView
from ..graphs.spanning import RootedForest
from ..primitives.forest_encoding import (
    decode_forest_fields,
    forest_encoding_labels,
    forest_label_fields,
)
from ..core.columnar import make_stv_kernel
from ..primitives.spanning_tree_verification import (
    STV_ELEM_BITS,
    STV_FIELD,
    check_node_fields,
    honest_round3_labels,
    stv_label_fields,
)
from .instances import SpanningSubgraphInstance


class STVProver:
    """Prover hooks for the spanning-tree verification."""

    def __init__(self, graph: Graph, tree: RootedForest):
        self.graph = graph
        self.tree = tree

    def round1(self) -> Dict[int, Label]:
        try:
            return forest_encoding_labels(self.graph, self.tree)
        except ValueError:
            return {v: Label() for v in self.graph.nodes()}

    def round3(self, coins, repetitions) -> Dict[int, Label]:
        return honest_round3_labels(self.graph, self.tree, coins, repetitions)


class SpanningTreeVerificationProtocol(DIPProtocol):
    """3 rounds, O(t)-bit labels, soundness (1/17)^t."""

    name = "spanning-tree-verification"
    designed_rounds = 3

    def __init__(self, repetitions: int = 4, enforce_instance_edges: bool = True):
        self.repetitions = repetitions
        self.enforce_instance_edges = enforce_instance_edges

    def honest_prover(self, instance: SpanningSubgraphInstance) -> STVProver:
        marked = Graph(instance.graph.n, instance.tree_edges)
        comps = marked.connected_components()
        parent: Dict[int, int] = {}
        for comp in comps:
            pm = marked.bfs_tree(comp[0])
            parent.update({v: p for v, p in pm.items() if p is not None})
        try:
            forest = RootedForest(instance.graph.n, parent)
        except ValueError:
            forest = RootedForest(instance.graph.n, {})
        return STVProver(instance.graph, forest)

    def execute(
        self,
        instance: SpanningSubgraphInstance,
        prover: Optional[STVProver] = None,
        rng: Optional[random.Random] = None,
    ) -> RunResult:
        g = instance.graph
        prover = prover or self.honest_prover(instance)
        interaction = Interaction(g, rng)
        interaction.prover_round(prover.round1())
        coins = interaction.verifier_round(
            {v: self.repetitions * STV_ELEM_BITS for v in g.nodes()}
        )
        interaction.prover_round(prover.round3(coins, self.repetitions))

        tree_ports: Dict[int, tuple] = {}
        for v in g.nodes():
            nbrs = g.neighbors(v)
            tree_ports[v] = tuple(
                port
                for port, u in enumerate(nbrs)
                if (min(u, v), max(u, v)) in instance.tree_edges
            )
        reps = self.repetitions
        enforce = self.enforce_instance_edges

        def check(view: NodeView) -> bool:
            # per-sweep decode cache: each round label is shared with every
            # neighbor, so extract its fields once instead of deg+1 times
            cache = view.decode_cache
            if cache is None:
                cache = DecodeCache()
            cget = cache.get
            m_forest = cache.sub("stv_forest")
            m_stv = cache.sub(f"stv_fields{reps}")
            own0 = view.own_labels[0]
            own_fields = cget(m_forest, id(own0), forest_label_fields, own0)
            decoded = None
            if own_fields is not None:
                nbr_fields = []
                for lbl in view.neighbor_labels[0]:
                    f = cget(m_forest, id(lbl), forest_label_fields, lbl)
                    if f is None:
                        nbr_fields = None
                        break
                    nbr_fields.append(f)
                if nbr_fields is not None:
                    decoded = decode_forest_fields(own_fields, nbr_fields)
            if decoded is None:
                return False
            own1 = view.own_labels[1]
            return check_node_fields(
                decoded,
                view.coins[0],
                cget(m_stv, id(own1), stv_label_fields, own1, reps),
                [
                    cget(m_stv, id(lbl), stv_label_fields, lbl, reps)
                    for lbl in view.neighbor_labels[1]
                ],
                reps,
                expected_tree_ports=view.input["tree_ports"] if enforce else None,
            )

        return interaction.decide(
            check,
            inputs={v: {"tree_ports": tree_ports[v]} for v in g.nodes()},
            protocol_name=self.name,
            columnar=make_stv_kernel(
                reps, STV_FIELD.p, STV_ELEM_BITS, tree_ports if enforce else None
            ),
        )
