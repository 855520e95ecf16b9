"""Biconnectivity: articulation points, biconnected components, block-cut trees.

Iterative Hopcroft-Tarjan lowpoint algorithm.  The outerplanarity protocol
(Section 6) and the treewidth-2 protocol (Section 8) both decompose the
graph into its biconnected components and run a sub-protocol per component,
orchestrated along the block-cut tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.network import Edge, Graph, norm_edge


def biconnected_components(graph: Graph) -> List[FrozenSet[Edge]]:
    """Edge-sets of the biconnected components (bridges are single-edge sets)."""
    components: List[FrozenSet[Edge]] = []
    visited: Set[int] = set()
    depth: Dict[int, int] = {}
    low: Dict[int, int] = {}

    for root in graph.nodes():
        if root in visited:
            continue
        visited.add(root)
        depth[root] = 0
        low[root] = 0
        edge_stack: List[Edge] = []
        # stack frames: (node, parent, iterator over neighbors)
        stack = [(root, None, iter(graph.neighbors(root)))]
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w not in visited:
                    visited.add(w)
                    depth[w] = depth[v] + 1
                    low[w] = depth[w]
                    edge_stack.append(norm_edge(v, w))
                    stack.append((w, v, iter(graph.neighbors(w))))
                    advanced = True
                    break
                if depth[w] < depth[v]:  # back edge
                    edge_stack.append(norm_edge(v, w))
                    low[v] = min(low[v], depth[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= depth[u]:
                    # u is a cut vertex (or the root); pop one component
                    comp: Set[Edge] = set()
                    marker = norm_edge(u, v)
                    while True:
                        e = edge_stack.pop()
                        comp.add(e)
                        if e == marker:
                            break
                    components.append(frozenset(comp))
    return components


def articulation_points(graph: Graph) -> Set[int]:
    """Nodes whose removal disconnects their component (cut nodes)."""
    counts: Dict[int, int] = {}
    for comp in biconnected_components(graph):
        for v in {x for e in comp for x in e}:
            counts[v] = counts.get(v, 0) + 1
    return {v for v, c in counts.items() if c > 1}


def component_nodes(component: FrozenSet[Edge]) -> FrozenSet[int]:
    return frozenset(v for e in component for v in e)


def is_biconnected(graph: Graph) -> bool:
    """True if connected, has >= 3 nodes, and has no articulation point.

    By convention a single edge (K2) also counts as biconnected here, since
    the block-cut tree treats bridges as (degenerate) blocks.
    """
    if graph.n < 2 or not graph.is_connected():
        return False
    if graph.n == 2:
        return graph.m == 1
    comps = biconnected_components(graph)
    return len(comps) == 1


@dataclass
class BlockCutTree:
    """The block-cut tree of a connected graph.

    Tree nodes are either *blocks* (biconnected components, indexed by
    position in ``blocks``) or *cut nodes* (original graph nodes).  The
    tree is rooted at ``root_block``; ``separating_node[b]`` is the
    C-separating cut node of block ``b`` (its parent cut node in the tree),
    ``None`` for the root block.
    """

    blocks: List[FrozenSet[Edge]]
    block_nodes: List[FrozenSet[int]]
    cut_nodes: Set[int]
    root_block: int
    #: parent cut node of each non-root block
    separating_node: Dict[int, Optional[int]]
    #: blocks containing each cut node
    blocks_of_cut: Dict[int, List[int]] = field(default_factory=dict)
    #: tree depth of each block (root block has depth 0)
    block_depth: Dict[int, int] = field(default_factory=dict)

    def block_of_edge(self, u: int, v: int) -> int:
        e = norm_edge(u, v)
        for i, comp in enumerate(self.blocks):
            if e in comp:
                return i
        raise KeyError(f"edge ({u}, {v}) not in any block")


def block_cut_tree(graph: Graph, root_block: int = 0) -> BlockCutTree:
    """Build the rooted block-cut tree of a connected graph."""
    if not graph.is_connected():
        raise ValueError("block-cut tree requires a connected graph")
    blocks = biconnected_components(graph)
    if not blocks:
        raise ValueError("graph has no edges")
    nodes = [component_nodes(b) for b in blocks]
    counts: Dict[int, int] = {}
    for bn in nodes:
        for v in bn:
            counts[v] = counts.get(v, 0) + 1
    cuts = {v for v, c in counts.items() if c > 1}
    blocks_of_cut: Dict[int, List[int]] = {v: [] for v in cuts}
    for i, bn in enumerate(nodes):
        for v in bn & cuts:
            blocks_of_cut[v].append(i)

    # BFS over the block-cut tree starting at the root block
    separating: Dict[int, Optional[int]] = {root_block: None}
    depth: Dict[int, int] = {root_block: 0}
    frontier = [root_block]
    seen_blocks = {root_block}
    seen_cuts: Set[int] = set()
    while frontier:
        nxt: List[int] = []
        for b in frontier:
            for v in nodes[b] & cuts:
                if v in seen_cuts and separating[b] != v:
                    continue
                if v == separating[b]:
                    continue
                seen_cuts.add(v)
                for b2 in blocks_of_cut[v]:
                    if b2 not in seen_blocks:
                        seen_blocks.add(b2)
                        separating[b2] = v
                        depth[b2] = depth[b] + 1
                        nxt.append(b2)
        frontier = nxt
    if len(seen_blocks) != len(blocks):
        raise AssertionError("block-cut tree traversal missed blocks")
    return BlockCutTree(
        blocks=blocks,
        block_nodes=nodes,
        cut_nodes=cuts,
        root_block=root_block,
        separating_node=separating,
        blocks_of_cut=blocks_of_cut,
        block_depth=depth,
    )
