"""Left-right planarity testing with embedding extraction.

A from-scratch implementation of the left-right planarity criterion of
de Fraysseix and Rosenstiehl, following the exposition of Brandes,
"The Left-Right Planarity Test" (the same pseudocode underlying the
well-known networkx implementation).  Fittingly for this paper, the
algorithm decides planarity by partitioning back edges into *left* and
*right* classes around a DFS tree.

Three phases, each one loop over explicit DFS stacks (no recursion, so no
recursion limit to raise):

1. *Orientation* -- a DFS orients the graph, numbering the oriented edges
   ``0..m-1`` in the order it meets them and computing ``lowpt``,
   ``lowpt2`` and a ``nesting_depth`` for every oriented edge.
2. *Testing* -- a second DFS maintains a stack of conflict pairs of
   intervals of back edges; the graph is planar iff the left/right
   constraints stay satisfiable.
3. *Embedding* -- signs are propagated through the ``ref`` pointers and the
   adjacency lists are re-sorted by signed nesting depth, yielding a
   planar rotation system (:class:`~repro.graphs.embedding.RotationSystem`).

All per-edge state lives in flat lists indexed by oriented-edge id, and a
conflict pair is a plain list ``[left.low, left.high, right.low,
right.high]`` of edge ids.  :func:`is_planar` stops after phase 2 and
builds no embedding; :func:`find_planar_embedding` runs all three.

The resulting embedding is validated in the test suite via Euler's formula
and cross-checked against networkx as an oracle.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.network import Graph
from .embedding import RotationSystem

#: "no edge".  Phase-2 arrays carry one spare slot past the last edge id,
#: so the algorithm's writes through an absent interval end (``ref`` of a
#: missing low edge) land there, exactly like the dict writes under key
#: ``None`` of the textbook version; nothing ever reads them back.
_NONE = -1


class LRPlanarity:
    """One-shot planarity test + embedding for a :class:`Graph`."""

    def __init__(self, graph: Graph):
        self.G = graph
        self.roots: List[int] = []
        self.height: List[int] = []
        #: id of the tree edge entering each node (``_NONE`` at roots)
        self.parent_edge: List[int] = []
        #: endpoints of every oriented edge ``src[e] -> dst[e]``
        self.src: List[int] = []
        self.dst: List[int] = []
        #: oriented out-edge ids of every node, in orientation order
        self.out: List[List[int]] = []
        self.lowpt: List[int] = []
        self.lowpt2: List[int] = []
        self.nesting_depth: List[int] = []
        #: out-edges of every node sorted by (finally: signed) nesting depth
        self.ordered_out: List[List[int]] = []
        self.ref: List[int] = []
        self.side: List[int] = []

    # -- public entry points ------------------------------------------------

    def test(self) -> bool:
        """Phases 1-2: is G planar?  Builds no embedding."""
        n, m = self.G.n, self.G.m
        if n >= 3 and m > 3 * n - 6:
            return False
        self._orientation()
        return self._testing()

    def run(self) -> Optional[RotationSystem]:
        """Return a planar rotation system, or None if G is non-planar."""
        if not self.test():
            return None
        return self._embedding()

    # -- phase 1: orientation ------------------------------------------------

    def _orientation(self) -> None:
        G = self.G
        n = G.n
        neighbors = G.neighbors
        height = [-1] * n
        parent_edge = [_NONE] * n
        todo: List = [None] * n  # each stacked node's unscanned neighbors
        src: List[int] = []
        dst: List[int] = []
        out: List[List[int]] = [[] for _ in range(n)]
        lowpt: List[int] = []
        lowpt2: List[int] = []
        roots: List[int] = []

        for root in range(n):
            if height[root] >= 0:
                continue
            height[root] = 0
            roots.append(root)
            todo[root] = iter(neighbors(root))
            stack = [root]
            while stack:
                v = stack[-1]
                hv = height[v]
                e = parent_edge[v]
                u = src[e] if e != _NONE else -1
                out_v = out[v]
                for w in todo[v]:
                    hw = height[w]
                    # already oriented: the tree edge from the parent, or a
                    # back edge a finished descendant oriented towards v
                    if w == u or hw > hv:
                        continue
                    vw = len(src)
                    src.append(v)
                    dst.append(w)
                    out_v.append(vw)
                    lowpt2.append(hv)
                    if hw < 0:  # tree edge: descend, propagate on return
                        lowpt.append(hv)
                        parent_edge[w] = vw
                        height[w] = hv + 1
                        todo[w] = iter(neighbors(w))
                        stack.append(w)
                        break
                    # back edge to ancestor w: propagate lowpoints to e.
                    # lowpt[e] <= lowpt2[e] <= height(u) < hv = lowpt2[vw],
                    # so every min against lowpt2[vw] keeps the other side
                    lowpt.append(hw)
                    if e != _NONE:
                        le = lowpt[e]
                        if hw < le:
                            lowpt2[e] = le
                            lowpt[e] = hw
                        elif le < hw < lowpt2[e]:
                            lowpt2[e] = hw
                else:
                    stack.pop()
                    # v is finished: propagate tree edge e = (u, v) to the
                    # edge entering u
                    pe = parent_edge[u] if e != _NONE else _NONE
                    if pe != _NONE:
                        lw = lowpt[e]
                        le = lowpt[pe]
                        if lw < le:
                            lowpt2[pe] = min(le, lowpt2[e])
                            lowpt[pe] = lw
                        elif lw > le:
                            lowpt2[pe] = min(lowpt2[pe], lw)
                        else:
                            lowpt2[pe] = min(lowpt2[pe], lowpt2[e])

        self.roots = roots
        self.height = height
        self.parent_edge = parent_edge
        self.src = src
        self.dst = dst
        self.out = out
        self.lowpt = lowpt
        self.lowpt2 = lowpt2
        # nesting depth: chordal edges (lowpt2 below the tail) nest deeper
        self.nesting_depth = [
            2 * lw + (lw2 < height[v]) for lw, lw2, v in zip(lowpt, lowpt2, src)
        ]

    # -- phase 2: testing ------------------------------------------------------

    def _testing(self) -> bool:
        height = self.height
        parent_edge = self.parent_edge
        src = self.src
        dst = self.dst
        lowpt = self.lowpt
        nd = self.nesting_depth
        ordered_out = self.ordered_out = [sorted(es, key=nd.__getitem__) for es in self.out]
        slots = len(src) + 1  # one spare slot for writes through _NONE
        ref = [_NONE] * slots
        side = [1] * slots
        lowpt_edge = [_NONE] * slots
        stack_bottom: List[Optional[list]] = [None] * slots
        S: List[list] = []  # conflict pairs [left.low, left.high, right.low, right.high]
        todo: List = [None] * len(height)  # each stacked node's unvisited out-edges

        def add_constraints(ei: int, e: int) -> bool:
            P = [_NONE, _NONE, _NONE, _NONE]
            lowpt_e = lowpt[e]
            bottom = stack_bottom[ei]
            # merge return edges of ei into P.right
            while True:
                Q = S.pop()
                if Q[0] != _NONE or Q[1] != _NONE:
                    Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                    if Q[0] != _NONE or Q[1] != _NONE:
                        return False  # not planar
                if lowpt[Q[2]] > lowpt_e:  # merge intervals
                    if P[2] == _NONE and P[3] == _NONE:  # topmost interval
                        P[3] = Q[3]
                    else:
                        ref[P[2]] = Q[3]
                    P[2] = Q[2]
                else:  # align
                    ref[Q[2]] = lowpt_edge[e]
                if (S[-1] if S else None) is bottom:
                    break
            # merge conflicting return edges of e_1, ..., e_{i-1} into P.left
            lowpt_ei = lowpt[ei]
            while S:
                Q = S[-1]
                right_conflicts = (Q[2] != _NONE or Q[3] != _NONE) and lowpt[Q[3]] > lowpt_ei
                if not right_conflicts and not (
                    (Q[0] != _NONE or Q[1] != _NONE) and lowpt[Q[1]] > lowpt_ei
                ):
                    break
                S.pop()
                if right_conflicts:
                    Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                    if (Q[2] != _NONE or Q[3] != _NONE) and lowpt[Q[3]] > lowpt_ei:
                        return False  # not planar
                # merge interval below lowpt(ei) into P.right
                ref[P[2]] = Q[3]
                if Q[2] != _NONE:
                    P[2] = Q[2]
                if P[0] == _NONE and P[1] == _NONE:  # topmost interval
                    P[1] = Q[1]
                else:
                    ref[P[0]] = Q[1]
                P[0] = Q[0]
            if P[0] != _NONE or P[1] != _NONE or P[2] != _NONE or P[3] != _NONE:
                S.append(P)
            return True

        def lowest(P: list) -> int:
            if P[0] == _NONE and P[1] == _NONE:
                return lowpt[P[2]]
            if P[2] == _NONE and P[3] == _NONE:
                return lowpt[P[0]]
            return min(lowpt[P[0]], lowpt[P[2]])

        def trim_back_edges(u: int) -> None:
            # drop entire conflict pairs that end at u
            hu = height[u]
            while S and lowest(S[-1]) == hu:
                P = S.pop()
                if P[0] != _NONE:
                    side[P[0]] = -1
            if S:  # one more conflict pair to consider
                P = S[-1]
                # trim left interval
                while P[1] != _NONE and dst[P[1]] == u:
                    P[1] = ref[P[1]]
                if P[1] == _NONE and P[0] != _NONE:
                    ref[P[0]] = P[2]
                    side[P[0]] = -1
                    P[0] = _NONE
                # trim right interval
                while P[3] != _NONE and dst[P[3]] == u:
                    P[3] = ref[P[3]]
                if P[3] == _NONE and P[2] != _NONE:
                    ref[P[2]] = P[0]
                    side[P[2]] = -1
                    P[2] = _NONE

        for root in self.roots:
            todo[root] = iter(ordered_out[root])
            stack = [root]
            while stack:
                v = stack[-1]
                hv = height[v]
                e = parent_edge[v]
                for ei in todo[v]:
                    stack_bottom[ei] = S[-1] if S else None
                    w = dst[ei]
                    if parent_edge[w] == ei:  # tree edge: descend
                        todo[w] = iter(ordered_out[w])
                        stack.append(w)
                        break
                    # back edge
                    lowpt_edge[ei] = ei
                    S.append([_NONE, _NONE, ei, ei])
                    if lowpt[ei] < hv:  # ei has a return edge
                        if ei == ordered_out[v][0]:
                            lowpt_edge[e] = ei
                        elif not add_constraints(ei, e):
                            return False
                else:
                    stack.pop()
                    if e == _NONE:
                        continue
                    # v is finished: back at its parent u via tree edge e
                    u = src[e]
                    trim_back_edges(u)
                    # side of e is the side of its highest return edge
                    if lowpt[e] < height[u]:  # e has a return edge
                        top = S[-1]
                        hl, hr = top[1], top[3]
                        if hl != _NONE and (hr == _NONE or lowpt[hl] > lowpt[hr]):
                            ref[e] = hl
                        else:
                            ref[e] = hr
                        pe = parent_edge[u]
                        if e == ordered_out[u][0]:
                            lowpt_edge[pe] = lowpt_edge[e]
                        elif not add_constraints(e, pe):
                            return False

        self.ref = ref
        self.side = side
        return True

    # -- phase 3: embedding ------------------------------------------------------

    def _embedding(self) -> RotationSystem:
        n = self.G.n
        src = self.src
        dst = self.dst
        ref = self.ref
        side = self.side
        nd = self.nesting_depth
        parent_edge = self.parent_edge

        # resolve every edge's final side through its ref chain
        for e0 in range(len(src)):
            e = e0
            chain = []
            while ref[e] != _NONE:
                chain.append(e)
                e = ref[e]
            s = side[e]
            for edge in reversed(chain):
                s *= side[edge]
                side[edge] = s
                ref[edge] = _NONE
            nd[e0] *= side[e0]

        ordered_out = self.ordered_out = [sorted(es, key=nd.__getitem__) for es in self.out]
        emb = RotationSystem(n)
        for v in range(n):
            prev = None
            for e in ordered_out[v]:
                w = dst[e]
                if prev is None:
                    emb.add_first_edge(v, w)
                else:
                    emb.add_cw(v, w, prev)
                prev = w

        left_ref = [0] * n
        right_ref = [0] * n
        todo: List = [None] * n  # each stacked node's unvisited out-edges
        for root in self.roots:
            todo[root] = iter(ordered_out[root])
            stack = [root]
            while stack:
                v = stack[-1]
                for ei in todo[v]:
                    w = dst[ei]
                    if parent_edge[w] == ei:  # tree edge
                        emb.add_half_edge_first(w, v)
                        left_ref[v] = w
                        right_ref[v] = w
                        todo[w] = iter(ordered_out[w])
                        stack.append(w)
                        break
                    # back edge, ends at ancestor w
                    if side[ei] == 1:
                        emb.add_cw(w, v, right_ref[w])
                    else:
                        emb.add_ccw(w, v, left_ref[w])
                        left_ref[w] = v
                else:
                    stack.pop()
        return emb


def find_planar_embedding(graph: Graph) -> Optional[RotationSystem]:
    """A planar rotation system of ``graph``, or None if non-planar."""
    return LRPlanarity(graph).run()


def is_planar(graph: Graph) -> bool:
    """Decide planarity via the left-right criterion (phases 1-2 only)."""
    return LRPlanarity(graph).test()
