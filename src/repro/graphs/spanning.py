"""Spanning trees, rooted forests, Euler tours, and arboricity-3 partitions.

The paper leans on three spanning-structure facts:

- Lemma 2.3 needs rooted spanning forests (communicated with O(1) bits).
- Lemma 2.4 needs a partition of a planar graph's edges into at most three
  forests (planar graphs have arboricity <= 3); we obtain one greedily by
  peeling minimum-degree nodes (planar graphs are 5-degenerate, and
  orienting each edge toward the earlier-peeled endpoint gives out-degree
  <= 5; splitting by a round-robin over parents of each node would not give
  forests, so instead we use the classic degeneracy argument: repeatedly
  extract a spanning forest of the remaining edges.  For planar graphs 3
  rounds always suffice, because a graph in which every subgraph has
  average degree < 6 decomposes into 3 forests by Nash-Williams).
- Section 7 needs Euler tours of rooted spanning trees in rotation order.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.network import Edge, Graph, norm_edge


class RootedForest:
    """A rooted forest on nodes ``0..n-1`` given by parent pointers."""

    def __init__(self, n: int, parent: Optional[Dict[int, int]] = None):
        self.n = n
        self.parent: Dict[int, int] = dict(parent or {})
        self._validate()

    def _validate(self) -> None:
        # acyclicity check by path-following with memoized depths
        depth: Dict[int, int] = {}

        def resolve(v: int) -> int:
            trail = []
            while v in self.parent and v not in depth:
                trail.append(v)
                v = self.parent[v]
                if v in trail:
                    raise ValueError("parent pointers contain a cycle")
            base = depth.get(v, 0)
            for node in reversed(trail):
                base += 1
                depth[node] = base
            return depth.get(v, 0)

        for v in list(self.parent):
            resolve(v)
        self._depth = depth
        self._kids: Optional[Dict[int, List[int]]] = None

    def roots(self) -> List[int]:
        return [v for v in range(self.n) if v not in self.parent]

    def depth(self, v: int) -> int:
        return self._depth.get(v, 0)

    def children(self, v: int) -> List[int]:
        return list(self.children_map().get(v, ()))

    def children_map(self) -> Dict[int, List[int]]:
        """Node -> sorted children (cached; parent pointers are immutable
        after construction, and every caller treats the map as read-only)."""
        out = self._kids
        if out is None:
            out = {v: [] for v in range(self.n)}
            for u, p in self.parent.items():
                out[p].append(u)
            for v in out:
                out[v].sort()
            self._kids = out
        return out

    def edges(self) -> List[Edge]:
        return [norm_edge(u, p) for u, p in self.parent.items()]

    def is_spanning_tree_of(self, graph: Graph) -> bool:
        """True iff this forest is a single tree spanning all of ``graph``."""
        if self.n != graph.n:
            return False
        if len(self.parent) != max(0, graph.n - 1):
            return False
        if any(not graph.has_edge(u, p) for u, p in self.parent.items()):
            return False
        return len(self.roots()) == 1

    def subtree_nodes(self, root: int) -> List[int]:
        kids = self.children_map()
        out = []
        stack = [root]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(kids[v])
        return out


def bfs_spanning_tree(graph: Graph, root: int = 0) -> RootedForest:
    """A BFS spanning tree of a connected graph, rooted at ``root``."""
    parent_map = graph.bfs_tree(root)
    if len(parent_map) != graph.n:
        raise ValueError("graph is not connected")
    return RootedForest(
        graph.n, {v: p for v, p in parent_map.items() if p is not None}
    )


def spanning_forest(graph: Graph) -> RootedForest:
    """A BFS spanning forest (one tree per connected component)."""
    parent: Dict[int, int] = {}
    for comp in graph.connected_components():
        pm = graph.bfs_tree(comp[0])
        parent.update({v: p for v, p in pm.items() if p is not None})
    return RootedForest(graph.n, parent)


def hamiltonian_path_forest(path: Sequence[int], n: int) -> RootedForest:
    """The rooted forest view of a Hamiltonian path (rooted at its left end)."""
    parent = {path[i]: path[i - 1] for i in range(1, len(path))}
    return RootedForest(n, parent)


def peel_forests(graph: Graph, count: int) -> Tuple[List[RootedForest], int]:
    """``count`` spanning forests peeled off ``graph`` one after another,
    and the number of edges left after the last.

    Each forest is the BFS spanning forest of the edges the earlier ones
    left (one tree per component, rooted at its smallest node, neighbors
    visited in sorted order); once no edge is left they are empty.
    """
    n = graph.n
    adj = [set(graph.neighbors(v)) for v in range(n)]
    left = graph.m
    forests: List[RootedForest] = []
    for _ in range(count):
        parent: Dict[int, int] = {}
        seen = [False] * n
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for v in sorted(adj[u]):
                    if not seen[v]:
                        seen[v] = True
                        parent[v] = u
                        queue.append(v)
        for u, p in parent.items():
            adj[u].discard(p)
            adj[p].discard(u)
        left -= len(parent)
        forests.append(RootedForest(n, parent))
    return forests, left


def arboricity_forest_partition(graph: Graph, max_forests: int = 3) -> List[RootedForest]:
    """Partition the edges of a planar graph into exactly ``max_forests``
    forests (padded with empty ones).

    Strategy: repeatedly extract a maximal spanning forest of the remaining
    edge set (:func:`peel_forests`).  Each extraction removes a spanning
    forest of every remaining component; for planar graphs (arboricity
    <= 3 by Nash-Williams) three extractions always exhaust the edges.
    Raises if edges remain after ``max_forests`` rounds (i.e. the graph
    was not arboricity-bounded).
    """
    forests, left = peel_forests(graph, max_forests)
    if left > 0:
        raise ValueError(
            f"graph not decomposable into {max_forests} forests "
            f"({left} edges left)"
        )
    return forests


def forest_partition_assignment(
    graph: Graph, forests: Sequence[RootedForest]
) -> Dict[Edge, Tuple[int, int]]:
    """Map each edge to ``(forest_index, child_endpoint)``.

    The child endpoint is the node whose parent pointer covers the edge;
    Lemma 2.4 stores the edge's label inside that node's label.
    """
    assignment: Dict[Edge, Tuple[int, int]] = {}
    for fi, forest in enumerate(forests):
        for child, parent in forest.parent.items():
            e = norm_edge(child, parent)
            if e in assignment:
                raise ValueError(f"edge {e} covered by two forests")
            assignment[e] = (fi, child)
    missing = graph.edge_set() - set(assignment)
    if missing:
        raise ValueError(f"edges not covered by any forest: {sorted(missing)[:5]}")
    return assignment


def euler_tour(
    tree: RootedForest,
    root: int,
    child_order: Optional[Dict[int, List[int]]] = None,
) -> List[int]:
    """Euler tour of a rooted tree: the node sequence of a DFS walk.

    Every node of degree d in the tree appears ``max(1, #children + (0 if
    root else 1))`` times... concretely: the walk starts at the root, visits
    children in ``child_order`` (default: sorted), and returns to the parent
    after each subtree, producing ``2 * (#tree edges) + 1`` entries.
    """
    kids = child_order if child_order is not None else tree.children_map()
    tour: List[int] = []
    # iterative DFS that records re-entries
    stack: List[Tuple[int, int]] = [(root, 0)]
    while stack:
        v, idx = stack.pop()
        if idx == 0:
            tour.append(v)
        children = kids.get(v, [])
        if idx < len(children):
            stack.append((v, idx + 1))
            stack.append((children[idx], 0))
        elif stack:
            # returning to the parent: record the parent again
            tour.append(stack[-1][0])
    return tour
