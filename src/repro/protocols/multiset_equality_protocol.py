"""Lemma 2.6 as a standalone 2-round protocol (substrate task).

Multiset equality: every node holds two multisets S1(v), S2(v) of integers
(|S1|, |S2| <= k, universe size k^c) and a rooted spanning tree is given;
decide whether the unions are equal as multisets.

Round 1 (verifier): the root samples z in F_p, p the smallest prime above
k^{c+1}.  Round 2 (prover): z is distributed, and every node receives the
subtree evaluations of the two characteristic polynomials.  Local checks:
z-consistency across tree edges, the aggregation recurrence, and the root
compares the full products.  Perfect completeness; soundness k/p <= 1/k^c
by polynomial identity testing.

The LR-sorting protocol embeds this machinery inside blocks (Section 4);
this wrapper exposes it as its own benchmarkable task.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.labels import BitString, LabelFormat, field_elem_width
from ..core.network import Graph, norm_edge
from ..core.protocol import DIPProtocol, Interaction
from ..core.transcript import RunResult
from ..core.views import NodeView
from ..graphs.spanning import RootedForest
from ..primitives.fields import PrimeField, next_prime
from ..primitives.multiset_equality import check_subtree_eval, multiset_poly_eval


@dataclass
class MultisetEqualityInstance:
    """Graph + rooted spanning tree + the two per-node multisets."""

    graph: Graph
    tree: RootedForest
    s1: Dict[int, List[int]]
    s2: Dict[int, List[int]]
    k: int  # multiset size bound
    c: int = 2  # universe exponent: elements < k^c

    def __post_init__(self):
        if not self.tree.is_spanning_tree_of(self.graph):
            raise ValueError("instance requires a rooted spanning tree")
        total1 = sum(len(v) for v in self.s1.values())
        total2 = sum(len(v) for v in self.s2.values())
        if total1 > self.k or total2 > self.k:
            raise ValueError("multisets exceed the size bound k")
        bound = self.k**self.c
        for sets in (self.s1, self.s2):
            for values in sets.values():
                if any(not 0 <= x < bound for x in values):
                    raise ValueError("element outside the universe")

    @property
    def field(self) -> PrimeField:
        return PrimeField(next_prime(max(2, self.k) ** (self.c + 1)))

    def is_yes_instance(self) -> bool:
        all1 = sorted(x for values in self.s1.values() for x in values)
        all2 = sorted(x for values in self.s2.values() for x in values)
        return all1 == all2


class MultisetEqualityProver:
    """Honest prover; adversaries override :meth:`subtree_values`."""

    def __init__(self, instance: MultisetEqualityInstance):
        self.instance = instance

    def subtree_values(self, z: int) -> Dict[int, Dict[str, int]]:
        inst = self.instance
        field = inst.field
        children = inst.tree.children_map()
        root = inst.tree.roots()[0]
        out: Dict[int, Dict[str, int]] = {}
        order: List[int] = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(children[v])
        for v in reversed(order):
            phi1 = multiset_poly_eval(inst.s1.get(v, ()), z, field)
            phi2 = multiset_poly_eval(inst.s2.get(v, ()), z, field)
            for ch in children[v]:
                phi1 = field.mul(phi1, out[ch]["phi1"])
                phi2 = field.mul(phi2, out[ch]["phi2"])
            out[v] = {"phi1": phi1, "phi2": phi2, "z": z}
        return out


class MultisetEqualityProtocol(DIPProtocol):
    """Lemma 2.6: 2 rounds, O(log k) bits, soundness 1/k^c."""

    name = "multiset-equality"
    designed_rounds = 2

    def honest_prover(self, instance) -> MultisetEqualityProver:
        return MultisetEqualityProver(instance)

    def execute(
        self,
        instance: MultisetEqualityInstance,
        prover: Optional[MultisetEqualityProver] = None,
        rng: Optional[random.Random] = None,
    ) -> RunResult:
        g = instance.graph
        prover = prover or self.honest_prover(instance)
        field = instance.field
        fw = field_elem_width(field.p)
        root = instance.tree.roots()[0]
        interaction = Interaction(g, rng)

        # round 1 (verifier): the root samples z
        coins = interaction.verifier_round({root: fw})
        z = coins[root].value % field.p

        # round 2 (prover)
        values = prover.subtree_values(z)
        fmt = LabelFormat(tuple((key, "felem", field.p) for key in ("z", "phi1", "phi2")))
        labels = {v: fmt.pack((f["z"], f["phi1"], f["phi2"])) for v, f in values.items()}
        interaction.prover_round(labels)

        # inputs: tree ports + own multisets
        children = instance.tree.children_map()
        inputs = {}
        for v in g.nodes():
            nbrs = g.neighbors(v)
            child_ports = tuple(
                port for port, u in enumerate(nbrs) if u in children[v]
            )
            parent = instance.tree.parent.get(v)
            parent_port = nbrs.index(parent) if parent is not None else None
            inputs[v] = {
                "child_ports": child_ports,
                "parent_port": parent_port,
                "s1": tuple(instance.s1.get(v, ())),
                "s2": tuple(instance.s2.get(v, ())),
                "is_root": v == root,
            }

        def check(view: NodeView) -> bool:
            own = view.own(0)
            if any(key not in own for key in ("z", "phi1", "phi2")):
                return False
            z_v = own["z"]
            # z consistency along tree edges (+ the root's anchor)
            if view.input["is_root"]:
                if z_v != view.coins[0].value % field.p:
                    return False
            elif view.input["parent_port"] is not None:
                parent_lbl = view.neighbor(0, view.input["parent_port"])
                if "z" not in parent_lbl or parent_lbl["z"] != z_v:
                    return False
            child_labels = [
                view.neighbor(0, port) for port in view.input["child_ports"]
            ]
            for key, own_sets in (("phi1", "s1"), ("phi2", "s2")):
                kids = []
                for lbl in child_labels:
                    if key not in lbl:
                        return False
                    kids.append(lbl[key])
                if not check_subtree_eval(
                    field, own[key], view.input[own_sets], kids, z_v
                ):
                    return False
            if view.input["is_root"] and own["phi1"] != own["phi2"]:
                return False
            return True

        return interaction.decide(
            check, inputs=inputs, protocol_name=self.name,
            meta={"p": field.p},
        )
