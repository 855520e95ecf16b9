"""Lemma 2.5 as a standalone 3-round protocol (substrate task).

Wraps the :mod:`repro.primitives.spanning_tree_verification` machinery into
a :class:`DIPProtocol` with a proper transcript: used directly as a
sub-run by the composite protocols (Theorems 1.3-1.7) and benchmarked as
the substrate experiment.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, List, Optional

from ..core.labels import EMPTY_LABEL, PackedLabel
from ..core.network import Graph
from ..core.protocol import (
    DecideBatch,
    DIPProtocol,
    Interaction,
    PendingDecide,
    ProtocolError,
)
from ..core.transcript import RunResult
from ..core.views import NodeView
from ..graphs.spanning import RootedForest
from ..primitives.forest_encoding import decode_forest_view, forest_labels
from ..core.columnar import make_stv_kernel
from ..primitives.spanning_tree_verification import (
    STV_ELEM_BITS,
    STV_FIELD,
    check_node,
    honest_round3_columns,
    round3_format,
)
from .instances import SpanningSubgraphInstance
from .path_outerplanarity import StagedJob, run_staged


class STVProver:
    """Prover hooks for the spanning-tree verification.

    Round 1 commits the Lemma-2.3 encoding of ``tree`` (a staged run
    encodes every job's forest in one pass); :meth:`round3` returns the
    round-3 message as the value columns of
    :func:`~repro.primitives.spanning_tree_verification.round3_format`.
    """

    def __init__(self, graph: Graph, tree: RootedForest):
        self.graph = graph
        self.tree = tree

    def round3(self, coins, repetitions) -> List[list]:
        return honest_round3_columns(
            self.tree, [coins[v] for v in self.graph.nodes()], repetitions
        )


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
        batch = DecideBatch()
        pending = self.start(instance, prover, rng, batch)
        batch.run()
        return pending.result

    def start(
        self,
        instance: SpanningSubgraphInstance,
        prover: Optional[STVProver],
        rng: Optional[random.Random],
        batch: DecideBatch,
    ) -> PendingDecide:
        """Run the three rounds alone and queue the decide sweep on ``batch``."""
        (pending,) = run_staged([self.job(instance, prover, rng, batch)])
        return pending

    def job(
        self,
        instance: SpanningSubgraphInstance,
        prover: Optional[STVProver],
        rng: Optional[random.Random],
        batch: DecideBatch,
    ) -> StagedJob:
        """The three rounds on ``instance`` as a :func:`run_staged` job."""
        prover = prover or self.honest_prover(instance)
        return self._rounds(instance, prover, Interaction(instance.graph, rng), batch)

    def _rounds(self, instance, prover, interaction, batch) -> StagedJob:
        g = instance.graph
        commit = yield (g, prover.tree)
        if commit is None:  # a coloring overflow (non-planar): 0-bit labels
            labels1 = {v: EMPTY_LABEL for v in g.nodes()}
        else:
            labels1 = dict(enumerate(forest_labels(commit)))
        interaction.prover_round(labels1)
        yield
        coins = interaction.verifier_round(
            {v: self.repetitions * STV_ELEM_BITS for v in g.nodes()}
        )
        yield
        try:
            schemas, payloads = round3_format(self.repetitions).pack_columns(
                prover.round3(coins, self.repetitions)
            )
        except ValueError as exc:
            raise ProtocolError(f"malformed round-3 message: {exc}") from exc
        interaction.prover_round(
            {
                v: PackedLabel._from_payload(schema, payload)
                for v, (schema, payload) in enumerate(zip(schemas, payloads))
            }
        )

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
            return check_node(
                decode_forest_view(view.own_labels[0], view.neighbor_labels[0]),
                view.coins[0],
                view.own_labels[1],
                view.neighbor_labels[1],
                reps,
                expected_tree_ports=view.input["tree_ports"] if enforce else None,
            )

        return batch.add(
            interaction,
            check,
            # an enforcing run pins its own instance's ports: a class alone
            key=("stv", reps) + ((id(interaction),) if enforce else ()),
            make_kernel=partial(make_stv_kernel, p=STV_FIELD.p, elem_bits=STV_ELEM_BITS),
            kernel_params=(reps, tree_ports if enforce else None),
            inputs={v: {"tree_ports": tree_ports[v]} for v in g.nodes()},
            protocol_name=self.name,
        )
