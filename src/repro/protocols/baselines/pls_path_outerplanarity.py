"""Baseline: the Theta(log n) one-round proof labeling scheme (FFM+21 style).

The non-interactive scheme the paper improves upon exponentially: the
prover writes, on each node, its explicit position on the Hamiltonian path
plus the position interval of the innermost edge drawn strictly above it.
Everything is then checkable deterministically and locally in ONE round:

- positions: the left/right path neighbors hold pos -/+ 1;
- every non-path edge nests inside both endpoints' above-intervals;
- the above-interval is consistent across each path edge (the informed
  side -- the endpoint with edges over the path edge -- pins it down).

Labels cost 3 ceil(log2 n) + O(1) bits; Theorem 1.8 shows Omega(log n) is
unavoidable for any one-round scheme, which experiment E6 demonstrates.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ...core.labels import Label, LabelFormat, uint_width
from ...core.network import Graph, norm_edge
from ...core.protocol import DIPProtocol, Interaction
from ...core.transcript import RunResult
from ...core.views import NodeView
from ...graphs.outerplanar import find_path_outerplanar_witness
from ..instances import PathOuterplanarInstance

NO_INTERVAL = None


class PLSPathOuterplanarityProver:
    """Computes positions and above-intervals for the claimed path."""

    def __init__(self, instance: PathOuterplanarInstance):
        self.instance = instance

    def claimed_path(self) -> Optional[List[int]]:
        if self.instance.witness_path is not None:
            return list(self.instance.witness_path)
        return find_path_outerplanar_witness(self.instance.graph)

    def labels(self) -> Dict[int, dict]:
        g = self.instance.graph
        path = self.claimed_path()
        if path is None or len(path) != g.n:
            path = list(g.nodes())  # garbage commitment; rejected
        pos = {v: i for i, v in enumerate(path)}
        path_edges = {
            norm_edge(path[i], path[i + 1]) for i in range(len(path) - 1)
        }
        intervals = [
            tuple(sorted((pos[u], pos[v])))
            for u, v in g.edges()
            if norm_edge(u, v) not in path_edges
        ]
        out: Dict[int, dict] = {}
        for v in g.nodes():
            q = pos[v]
            best = None
            for a, b in intervals:
                if a < q < b and (best is None or (a, -b) > (best[0], -best[1])):
                    best = (a, b)
            out[v] = {"pos": q, "above": best}
        return out


class PLSPathOuterplanarityProtocol(DIPProtocol):
    """One round, Theta(log n) bits, deterministic verifier."""

    name = "pls-path-outerplanarity"
    designed_rounds = 1

    def honest_prover(self, instance) -> PLSPathOuterplanarityProver:
        return PLSPathOuterplanarityProver(instance)

    def execute(
        self,
        instance: PathOuterplanarInstance,
        prover: Optional[PLSPathOuterplanarityProver] = None,
        rng: Optional[random.Random] = None,
    ) -> RunResult:
        g = instance.graph
        prover = prover or self.honest_prover(instance)
        interaction = Interaction(g, rng)
        pw = uint_width(max(1, g.n - 1))
        fmt = LabelFormat((("pos", "uint", pw), ("above", "maybe", 2 * pw)))
        labels: Dict[int, Label] = {}
        for v, fields in prover.labels().items():
            above = fields["above"]
            packed = None if above is None else (above[0] << pw) | above[1]
            labels[v] = fmt.pack((fields["pos"], packed))
        interaction.prover_round(labels)
        n = g.n

        def check(view: NodeView) -> bool:
            return _check(view, n, pw)

        return interaction.decide(check, protocol_name=self.name)


def _decode_above(label: Label, pw: int):
    packed = label.get("above", "missing")
    if packed == "missing":
        return "missing"
    if packed is None:
        return None
    return (packed >> pw, packed & ((1 << pw) - 1))


def _check(view: NodeView, n: int, pw: int) -> bool:  # noqa: C901
    own = view.own(0)
    if "pos" not in own:
        return False
    q = own["pos"]
    above = _decode_above(own, pw)
    if above == "missing" or not 0 <= q < n:
        return False
    if above is not None and not above[0] < q < above[1]:
        return False
    nbr_pos = []
    for port in view.ports():
        lbl = view.neighbor(0, port)
        if "pos" not in lbl:
            return False
        nbr_pos.append(lbl["pos"])
    # path structure from explicit positions
    if q > 0 and nbr_pos.count(q - 1) != 1:
        return False
    if q < n - 1 and nbr_pos.count(q + 1) != 1:
        return False
    left_port = nbr_pos.index(q - 1) if q > 0 else None
    right_port = nbr_pos.index(q + 1) if q < n - 1 else None
    # classify non-path edges
    rights = sorted(
        p for port, p in enumerate(nbr_pos)
        if port not in (left_port, right_port) and p > q
    )
    lefts = sorted(
        p for port, p in enumerate(nbr_pos)
        if port not in (left_port, right_port) and p < q
    )
    if any(p == q for port, p in enumerate(nbr_pos) if port not in (left_port, right_port)):
        return False
    # every incident non-path edge must fit inside the above-interval
    hi = above[1] if above is not None else n
    lo = above[0] if above is not None else -1
    if rights and rights[-1] > hi:
        return False
    if lefts and lefts[0] < lo:
        return False
    # incident edges must not cross each other (they share endpoint: never
    # strictly interleave) -- nothing to check among themselves
    # above-consistency across the right path edge
    if right_port is not None:
        u_above = _decode_above(view.neighbor(0, right_port), pw)
        if u_above == "missing":
            return False
        if rights:
            if u_above != (q, rights[0]):
                return False
        elif not (above is not None and above[1] == q + 1):
            # unless our own interval ends exactly at u (then u's left-edge
            # check pins the boundary), it is unchanged across the path edge
            if u_above != above:
                return False
    if left_port is not None:
        w_above = _decode_above(view.neighbor(0, left_port), pw)
        if w_above == "missing":
            return False
        if lefts:
            if w_above != (lefts[-1], q):
                return False
        elif not (above is not None and above[0] == q - 1):
            if w_above != above:
                return False
    return True
