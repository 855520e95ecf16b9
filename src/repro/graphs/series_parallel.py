"""Series-parallel graphs and nested ear decompositions.

A (two-terminal) series-parallel graph is built from single edges by
*series* composition (identify t1 with s2) and *parallel* composition
(identify both terminal pairs).  Recognition works by the classic inverse
reductions on a multigraph: repeatedly merge parallel edges and contract
degree-2 nodes; the graph is series-parallel iff it reduces to a single
edge.

The paper's protocol for Theorem 1.6 uses Eppstein's characterization:
a graph is series-parallel iff it admits a *nested ear decomposition*
(Section 8): a partition of the edges into simple paths ("ears")
P_1, ..., P_k such that

1. both endpoints of each ear P_j (j > 1) lie in a single earlier ear P_i,
2. interior nodes of P_j appear in no earlier ear, and
3. the ears attached to each P_i are properly nested within P_i.

We build the decomposition from the SP composition tree recorded during
reduction:

- ``edge``:     one ear, the edge itself;
- ``series``:   concatenate the two spines; sub-ears carry over (the two
  spines occupy disjoint intervals of the new spine, so nesting holds);
- ``parallel``: one branch's spine stays the spine; the other branch's
  spine becomes an ear spanning the whole spine (endpoints = terminals),
  under which all of that branch's ears nest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.network import Graph, norm_edge
from .outerplanar import properly_nested


# ---------------------------------------------------------------------------
# SP composition trees via reduction
# ---------------------------------------------------------------------------


@dataclass
class _SPNode:
    """A node of the series-parallel composition tree."""

    kind: str  # "edge" | "series" | "parallel"
    terminals: Tuple[int, int]
    children: Tuple["_SPNode", ...] = ()
    #: for "series": the middle node identified between the children
    middle: Optional[int] = None


def sp_composition_tree(graph: Graph) -> Optional[_SPNode]:
    """The SP composition tree of a connected graph, or None if not SP.

    Runs series/parallel reductions to exhaustion; succeeds iff the graph
    reduces to a single composite edge (whose endpoints are the terminals).
    """
    if graph.n < 2 or graph.m == 0 or not graph.is_connected():
        return None

    # multigraph of composite edges
    objects: Dict[int, _SPNode] = {}
    endpoints: Dict[int, Tuple[int, int]] = {}
    incidence: Dict[int, Set[int]] = {v: set() for v in graph.nodes()}
    next_id = 0
    for u, v in graph.edges():
        objects[next_id] = _SPNode("edge", (u, v))
        endpoints[next_id] = (u, v)
        incidence[u].add(next_id)
        incidence[v].add(next_id)
        next_id += 1

    def other(eid: int, v: int) -> int:
        a, b = endpoints[eid]
        return b if v == a else a

    def merge_parallel_at(a: int) -> bool:
        """Merge one parallel pair incident to a; True if merged."""
        by_nbr: Dict[int, int] = {}
        for eid in incidence[a]:
            b = other(eid, a)
            if b in by_nbr:
                e1, e2 = by_nbr[b], eid
                node = _SPNode(
                    "parallel",
                    (min(a, b), max(a, b)),
                    (objects[e1], objects[e2]),
                )
                for e in (e1, e2):
                    x, y = endpoints.pop(e)
                    incidence[x].discard(e)
                    incidence[y].discard(e)
                    del objects[e]
                nonlocal next_id
                objects[next_id] = node
                endpoints[next_id] = (min(a, b), max(a, b))
                incidence[a].add(next_id)
                incidence[b].add(next_id)
                next_id += 1
                return True
            by_nbr[b] = eid
        return False

    live = set(graph.nodes())
    changed = True
    while changed and len(live) > 2:
        changed = False
        # parallel merges first (they can expose degree-2 nodes)
        for v in list(live):
            while merge_parallel_at(v):
                changed = True
        # series contractions
        for v in list(live):
            if len(incidence[v]) == 2:
                e1, e2 = sorted(incidence[v])
                a, b = other(e1, v), other(e2, v)
                if a == b:
                    continue  # wait for the parallel merge
                # orient children so the series runs a -> v -> b
                node = _SPNode(
                    "series", (a, b), (objects[e1], objects[e2]), middle=v
                )
                for e in (e1, e2):
                    x, y = endpoints.pop(e)
                    incidence[x].discard(e)
                    incidence[y].discard(e)
                    del objects[e]
                objects[next_id] = node
                endpoints[next_id] = (a, b)
                incidence[a].add(next_id)
                incidence[b].add(next_id)
                next_id += 1
                live.discard(v)
                del incidence[v]
                changed = True
    # final parallel merges between the surviving pair
    if len(live) == 2:
        a = min(live)
        while merge_parallel_at(a):
            pass
    if len(live) == 2 and len(objects) == 1:
        return next(iter(objects.values()))
    return None


def is_series_parallel(graph: Graph) -> bool:
    """Two-terminal series-parallel recognition (single nodes count as SP)."""
    if graph.n <= 1:
        return True
    return sp_composition_tree(graph) is not None


# ---------------------------------------------------------------------------
# nested ear decompositions
# ---------------------------------------------------------------------------


@dataclass
class Ear:
    """One ear: a simple path, plus the index of the ear holding its endpoints."""

    path: List[int]
    parent: int  # index of the ear containing both endpoints; -1 for P_1

    @property
    def endpoints(self) -> Tuple[int, int]:
        return (self.path[0], self.path[-1])

    @property
    def interior(self) -> List[int]:
        return self.path[1:-1]

    def edges(self) -> List[Tuple[int, int]]:
        return [norm_edge(self.path[i], self.path[i + 1]) for i in range(len(self.path) - 1)]


def nested_ear_decomposition(graph: Graph) -> Optional[List[Ear]]:
    """A nested ear decomposition of a series-parallel graph, or None.

    Ear 0 is the first ear P_1; every other ear's ``parent`` points at the
    ear containing both of its endpoints.  Validated against
    :func:`is_nested_ear_decomposition` in the test suite.
    """
    tree = sp_composition_tree(graph)
    if tree is None:
        return None

    all_ears: List[Ear] = [Ear([], -1)]  # slot 0: the global spine P_1
    spine = _build_ears(tree, tree.terminals[0], 0, all_ears)
    all_ears[0] = Ear(spine, -1)
    if not is_nested_ear_decomposition(graph, all_ears):
        return None
    return all_ears


def _child_with_terminals(node: _SPNode, x: int, y: int, exclude=None) -> int:
    want = (min(x, y), max(x, y))
    for i, child in enumerate(node.children):
        if i == exclude:
            continue
        if (min(child.terminals), max(child.terminals)) == want:
            return i
    raise AssertionError("series child terminals mismatch")


def _build_ears(node: _SPNode, start: int, owner: int, all_ears: List[Ear]) -> List[int]:
    """Emit the ears of this subtree into ``all_ears``; return its spine path
    from ``start``.

    ``owner`` is the index of the ear that this subtree's spine is part
    of (ears created for parallel branches get their parent from it).
    A module-level recursion, not a closure over itself, so building a
    decomposition leaves no reference cycle (and no stranded ``Ear``)
    for the cyclic garbage collector.
    """
    a, b = node.terminals
    end = b if start == a else a
    if node.kind == "edge":
        return [start, end]
    if node.kind == "series":
        mid = node.middle
        first = _child_with_terminals(node, start, mid)
        second = _child_with_terminals(node, mid, end, exclude=first)
        s1 = _build_ears(node.children[first], start, owner, all_ears)
        s2 = _build_ears(node.children[second], mid, owner, all_ears)
        return s1 + s2[1:]
    # parallel: child 0's spine stays in the owner ear; child 1's spine
    # becomes a new ear attached to the owner
    spine = _build_ears(node.children[0], start, owner, all_ears)
    j = len(all_ears)
    all_ears.append(Ear([], owner))
    branch = _build_ears(node.children[1], start, j, all_ears)
    all_ears[j] = Ear(branch, owner)
    return spine


def is_nested_ear_decomposition(graph: Graph, ears: Sequence[Ear]) -> bool:
    """Validate conditions (1)-(3) of a nested ear decomposition."""
    if not ears:
        return graph.m == 0
    # partition of the edge set
    seen_edges: Set[Tuple[int, int]] = set()
    for ear in ears:
        for e in ear.edges():
            if e in seen_edges or e not in graph.edge_set():
                return False
            seen_edges.add(e)
    if seen_edges != graph.edge_set():
        return False
    # (1) endpoints in the parent ear; parents come earlier
    paths = [set(ear.path) for ear in ears]
    attached_to: Dict[int, List[Ear]] = {}  # parent index -> its ears, by index
    for j, ear in enumerate(ears[1:], start=1):
        i = ear.parent
        if not 0 <= i < j:
            return False
        u, v = ear.endpoints
        if u not in paths[i] or v not in paths[i]:
            return False
        attached_to.setdefault(i, []).append(ear)
    if ears[0].parent != -1:
        return False
    # (2) interiors are new nodes
    used: Set[int] = set(ears[0].path)
    for ear in ears[1:]:
        for v in ear.interior:
            if v in used:
                return False
        used.update(ear.path)
    # (3) ears attached to each P_i are properly nested within P_i
    for i, attached in attached_to.items():
        intervals = [e.endpoints for e in attached]
        if not properly_nested(ears[i].path, intervals):
            return False
    return True
