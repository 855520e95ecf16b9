"""Proper colorings with O(1) colors for planar graphs.

Lemma 2.3 has the prover color two contracted planar graphs with O(1)
colors.  The paper uses the four-color theorem; any constant number of
colors preserves the O(1)-bit labels, so we substitute the classic
*degeneracy-greedy* coloring: planar graphs are 5-degenerate, hence greedy
coloring along a reverse degeneracy order uses at most 6 colors
(3 bits instead of 2 -- still O(1); see DESIGN.md, Substitutions).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.network import Graph

#: an adjacency list per node: sorted, without duplicates or self-loops
Adjacency = Sequence[Sequence[int]]


def smallest_last_order(adj: Adjacency) -> List[int]:
    """Nodes in a smallest-last (degeneracy) elimination order.

    Bucket queue with lazy deletion (Matula-Beck): O(n + m) with small
    constants.  Stale bucket entries are skipped by re-checking a node's
    current degree on pop; after each removal the scan pointer backs up by
    one, since degrees drop by at most one per removed neighbor.  The
    order depends on the neighbor order, hence sorted lists.
    """
    n = len(adj)
    degree = [len(a) for a in adj]
    max_deg = max(degree, default=0)
    buckets: List[List[int]] = [[] for _ in range(max_deg + 1)]
    for v in range(n):
        buckets[degree[v]].append(v)
    removed = [False] * n
    order: List[int] = []
    cur = 0
    while len(order) < n:
        bucket = buckets[cur]
        if not bucket:
            cur += 1
            continue
        v = bucket.pop()
        if removed[v] or degree[v] != cur:
            continue  # stale entry; the live one sits in another bucket
        removed[v] = True
        order.append(v)
        for u in adj[v]:
            if not removed[u]:
                d = degree[u] - 1
                degree[u] = d
                buckets[d].append(u)
        if cur:
            cur -= 1
    return order


def greedy_colors(adj: Adjacency) -> List[int]:
    """Greedy colors along the reverse smallest-last order: at most
    degeneracy+1 colors (<= 6 if planar), one per node."""
    col = [-1] * len(adj)  # -1 marks "uncolored"; it never blocks a c >= 0
    for v in reversed(smallest_last_order(adj)):
        taken = {col[u] for u in adj[v]}
        c = 0
        while c in taken:
            c += 1
        col[v] = c
    return col


def _adjacency(graph: Graph) -> List[Sequence[int]]:
    return [graph.neighbors(v) for v in range(graph.n)]


def degeneracy_order(graph: Graph) -> List[int]:
    """:func:`smallest_last_order` of ``graph``."""
    return smallest_last_order(_adjacency(graph))


def degeneracy(graph: Graph) -> int:
    """The graph's degeneracy (max over the elimination order of the
    back-degree); planar graphs have degeneracy <= 5."""
    order = degeneracy_order(graph)
    position = {v: i for i, v in enumerate(order)}
    worst = 0
    for v in graph.nodes():
        back = sum(1 for u in graph.neighbors(v) if position[u] > position[v])
        worst = max(worst, back)
    return worst


def greedy_coloring(graph: Graph) -> Dict[int, int]:
    """A proper coloring with at most degeneracy+1 colors (<= 6 if planar)."""
    return dict(enumerate(greedy_colors(_adjacency(graph))))


def is_proper_coloring(graph: Graph, color: Dict[int, int]) -> bool:
    return all(color[u] != color[v] for u, v in graph.edges())
