"""Baseline: the trivial one-round Theta(log n) LR-sorting proof.

The paper's own warm-up (Section 3): the prover writes every node's
explicit position on the path; each node checks its path neighbors hold
pos -/+ 1 and that all outgoing edges lead to larger positions.
Deterministic, one round, ceil(log2 n) bits.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ...core.labels import LabelFormat, uint_width
from ...core.protocol import DIPProtocol, Interaction
from ...core.transcript import RunResult
from ...core.views import NodeView
from ..instances import IN, OUT, PATH_LEFT, PATH_RIGHT, LRSortingInstance


class TrivialLRSortingProver:
    def __init__(self, instance: LRSortingInstance):
        self.instance = instance

    def positions(self) -> Dict[int, int]:
        return self.instance.position()


class TrivialLRSortingProtocol(DIPProtocol):
    """One round, explicit positions."""

    name = "lr-sorting-trivial"
    designed_rounds = 1

    def honest_prover(self, instance) -> TrivialLRSortingProver:
        return TrivialLRSortingProver(instance)

    def execute(
        self,
        instance: LRSortingInstance,
        prover: Optional[TrivialLRSortingProver] = None,
        rng: Optional[random.Random] = None,
    ) -> RunResult:
        g = instance.graph
        prover = prover or self.honest_prover(instance)
        interaction = Interaction(g, rng)
        pw = uint_width(max(1, g.n - 1))
        fmt = LabelFormat((("pos", "uint", pw),))
        labels = {v: fmt.pack((p,)) for v, p in prover.positions().items()}
        interaction.prover_round(labels)
        inputs = instance.ports.inputs
        n = g.n

        def check(view: NodeView) -> bool:
            own = view.own(0)
            if "pos" not in own:
                return False
            q = own["pos"]
            kinds = view.input["port_kinds"]
            for port, kind in enumerate(kinds):
                lbl = view.neighbor(0, port)
                if "pos" not in lbl:
                    return False
                p = lbl["pos"]
                if kind == PATH_LEFT and p != q - 1:
                    return False
                if kind == PATH_RIGHT and p != q + 1:
                    return False
                if kind == OUT and not q < p:
                    return False
                if kind == IN and not p < q:
                    return False
            return True

        return interaction.decide(check, inputs=inputs, protocol_name=self.name)
