"""Outerplanar and path-outerplanar graph algorithms.

A graph is *outerplanar* if it can be drawn in the plane with all nodes on
the outer face.  It is *path-outerplanar* (Section 2 of the paper) if it
admits a Hamiltonian path P such that all non-path edges can be drawn above
P without crossings ("properly nested").

Key structural facts used here:

- A biconnected outerplanar graph with >= 3 nodes has a *unique* Hamiltonian
  cycle (its outer boundary); all other edges are chords nested inside it.
- Biconnected outerplanar graphs are recognized by degree-2 peeling on a
  multigraph: repeatedly replace a degree-2 node by a (virtual) edge between
  its neighbors; the graph is biconnected outerplanar iff this terminates
  with two nodes joined by exactly two (multi-)edges.  Unwinding the peels
  reconstructs the Hamiltonian cycle.
- A graph is outerplanar iff every biconnected component is.
- A graph is path-outerplanar iff its block-cut tree is a path of blocks,
  every block is (an edge or) biconnected outerplanar, and every *internal*
  block's two cut nodes are adjacent on that block's Hamiltonian cycle.
  (See the module tests for a brute-force cross-check of this
  characterization.)
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.network import Graph, norm_edge
from .biconnectivity import biconnected_components, component_nodes, is_biconnected


# ---------------------------------------------------------------------------
# nesting checks
# ---------------------------------------------------------------------------


def properly_nested(path: Sequence[int], edges: Sequence[Tuple[int, int]]) -> bool:
    """Check that ``edges`` can be drawn above the path without crossings.

    ``path`` lists the nodes in path order.  Two edges cross iff their
    position intervals interleave strictly: u < u' < v < v'.
    """
    pos = {v: i for i, v in enumerate(path)}
    intervals = sorted(
        ((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges),
        key=lambda iv: (iv[0], -iv[1]),
    )
    stack: List[int] = []  # open interval right-endpoints
    for left, right in intervals:
        while stack and stack[-1] <= left:
            stack.pop()
        if stack and stack[-1] < right:
            return False  # interleaving: an open interval ends inside ours
        stack.append(right)
    return True


def is_path_outerplanar_with(graph: Graph, path: Sequence[int]) -> bool:
    """Is ``path`` a Hamiltonian path of ``graph`` with all non-path edges nested?"""
    if sorted(path) != list(graph.nodes()):
        return False
    path_edges = {norm_edge(path[i], path[i + 1]) for i in range(len(path) - 1)}
    if any(e not in graph.edge_set() for e in path_edges):
        return False
    non_path = [e for e in graph.edges() if e not in path_edges]
    return properly_nested(path, non_path)


# ---------------------------------------------------------------------------
# biconnected outerplanar: recognition + Hamiltonian cycle by peeling
# ---------------------------------------------------------------------------


class _Multigraph:
    """Tiny multigraph used by the peeling reduction (edges carry ids)."""

    def __init__(self):
        self.endpoints: Dict[int, Tuple[int, int]] = {}
        self.incidence: Dict[int, Set[int]] = {}
        self._next = 0

    def add_node(self, v: int) -> None:
        self.incidence.setdefault(v, set())

    def add_edge(self, u: int, v: int) -> int:
        eid = self._next
        self._next += 1
        self.endpoints[eid] = (u, v)
        self.incidence.setdefault(u, set()).add(eid)
        self.incidence.setdefault(v, set()).add(eid)
        return eid

    def remove_edge(self, eid: int) -> None:
        u, v = self.endpoints.pop(eid)
        self.incidence[u].discard(eid)
        self.incidence[v].discard(eid)

    def remove_node(self, v: int) -> None:
        if self.incidence[v]:
            raise ValueError("node still has edges")
        del self.incidence[v]

    def other_end(self, eid: int, v: int) -> int:
        a, b = self.endpoints[eid]
        return b if v == a else a


def hamiltonian_cycle_of_biconnected_outerplanar(
    graph: Graph,
) -> Optional[List[int]]:
    """The unique Hamiltonian cycle of a biconnected outerplanar graph.

    Returns None if the graph is not biconnected outerplanar.  For a
    2-node block (a bridge, K2) returns the two nodes.

    The reduction peels degree-2 nodes, replacing each peeled node by a
    virtual edge that "expands" back to the peeled path.  Two rules keep
    the multigraph reducible:

    - *parallel merge*: if two parallel edges arise and one of them has no
      interior nodes (an original chord), drop the chord -- in the final
      drawing it nests exactly under the other edge's expansion;
    - *K2,3 cut-off*: two parallel edges that both carry interior nodes,
      while other nodes remain, witness a K2,3 minor, so reject.

    The extracted cycle is re-validated (Hamiltonian + chords properly
    nested), so the function never returns a wrong witness.
    """
    if graph.n < 2 or not graph.is_connected():
        return None
    if graph.n == 2:
        return [0, 1] if graph.m == 1 else None
    if not is_biconnected(graph):
        return None

    mg = _Multigraph()
    for v in graph.nodes():
        mg.add_node(v)
    endpoints: Dict[int, Tuple[int, int]] = {}
    expansion: Dict[int, Tuple[int, int, int]] = {}  # eid -> (e_left, mid, e_right)
    has_interior: Dict[int, bool] = {}
    for u, v in graph.edges():
        eid = mg.add_edge(u, v)
        endpoints[eid] = (u, v)
        has_interior[eid] = False

    live = set(graph.nodes())

    def merge_parallels(a: int, b: int) -> bool:
        """Resolve parallel edges between a and b; False if K2,3 detected."""
        while True:
            parallel = sorted(e for e in mg.incidence[a] if mg.other_end(e, a) == b)
            if len(parallel) <= 1:
                return True
            if len(live) == 2:
                return True  # handled by the base case
            empty = [e for e in parallel if not has_interior[e]]
            if not empty:
                return False  # two interior-carrying paths + outside nodes
            # drop one chord; it nests under the surviving parallel edge
            mg.remove_edge(empty[0])

    degree2 = [v for v in live if len(mg.incidence[v]) == 2]
    while len(live) > 2:
        while degree2 and (
            degree2[-1] not in live or len(mg.incidence[degree2[-1]]) != 2
        ):
            degree2.pop()
        if not degree2:
            return None  # stuck: not outerplanar (e.g. a K4 remained)
        v = degree2.pop()
        e1, e2 = sorted(mg.incidence[v])
        a = mg.other_end(e1, v)
        b = mg.other_end(e2, v)
        if a == b:
            return None  # double edge to one neighbor with >2 nodes
        mg.remove_edge(e1)
        mg.remove_edge(e2)
        mg.remove_node(v)
        live.discard(v)
        new_eid = mg.add_edge(a, b)
        endpoints[new_eid] = (a, b)
        expansion[new_eid] = (e1, v, e2)
        has_interior[new_eid] = True
        if not merge_parallels(a, b):
            return None
        for w in (a, b):
            if w in live and len(mg.incidence[w]) == 2:
                degree2.append(w)

    # base case: two nodes joined by 2 edges, or by 3 of which one is a chord
    x, y = sorted(live)
    eids = sorted(mg.incidence[x])
    if set(eids) != set(mg.incidence[y]):
        return None
    if len(eids) == 3:
        chords = [e for e in eids if not has_interior[e]]
        if len(chords) != 1:
            return None
        eids = [e for e in eids if e != chords[0]]
    if len(eids) != 2:
        return None

    def expand(eid: int, start: int) -> List[int]:
        """Interior nodes of the path ``eid`` replaced, walked from ``start``.

        An in-order walk of the expansion tree over an explicit stack:
        ``(None, v)`` entries emit node ``v``."""
        path: List[int] = []
        todo: List[Tuple[Optional[int], int]] = [(eid, start)]
        while todo:
            e, s = todo.pop()
            if e is None:
                path.append(s)
                continue
            if e not in expansion:
                continue
            e1, mid, e2 = expansion[e]
            u = _other(endpoints[e1], mid)
            w = _other(endpoints[e2], mid)
            if s == u:
                todo += [(e2, mid), (None, mid), (e1, u)]
            elif s == w:
                todo += [(e1, mid), (None, mid), (e2, w)]
            else:
                raise AssertionError("expansion endpoint mismatch")
        return path

    ea, eb = eids
    cycle = [x] + expand(ea, x) + [y] + expand(eb, y)
    if not is_cycle_with_nested_chords(graph, cycle):
        return None
    return cycle


def is_cycle_with_nested_chords(graph: Graph, cycle: Sequence[int]) -> bool:
    """Is ``cycle`` a Hamiltonian cycle of ``graph`` with nested chords?

    This is the definition of biconnected outerplanarity with an explicit
    witness; used both to validate extraction and inside verifiers/tests.
    """
    if sorted(cycle) != list(graph.nodes()) or len(cycle) != graph.n:
        return False
    k = len(cycle)
    cycle_edges = {norm_edge(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    if any(e not in graph.edge_set() for e in cycle_edges):
        return False
    chords = [e for e in graph.edges() if e not in cycle_edges]
    return properly_nested(list(cycle), chords)


def _other(endpoints: Tuple[int, int], v: int) -> int:
    a, b = endpoints
    return b if v == a else a


def is_biconnected_outerplanar(graph: Graph) -> bool:
    return hamiltonian_cycle_of_biconnected_outerplanar(graph) is not None


# ---------------------------------------------------------------------------
# general outerplanarity
# ---------------------------------------------------------------------------


def is_outerplanar(graph: Graph) -> bool:
    """A graph is outerplanar iff all its biconnected components are."""
    if graph.n <= 2:
        return True
    for comp in biconnected_components(graph):
        nodes = component_nodes(comp)
        if len(nodes) <= 2:
            continue  # a bridge
        sub, _ = graph.subgraph(nodes)
        # keep only the component's own edges (induced may add chords of
        # other components -- cannot happen for biconnected components, the
        # induced subgraph on a block's nodes is the block itself)
        if not is_biconnected_outerplanar(sub):
            return False
    return True


# ---------------------------------------------------------------------------
# path-outerplanarity: decision + witness path
# ---------------------------------------------------------------------------


def find_path_outerplanar_witness(graph: Graph) -> Optional[List[int]]:
    """A Hamiltonian path witnessing path-outerplanarity, or None.

    Characterization (proof sketch in the module docstring): the block-cut
    tree must be a path of blocks B_1 - c_1 - B_2 - c_2 - ... ; each block
    is an edge or biconnected outerplanar; and each internal block's two cut
    nodes are adjacent on its Hamiltonian cycle.  The witness walks each
    block's Hamiltonian cycle "the long way" between its cut nodes.
    """
    if graph.n == 0:
        return []
    if graph.n == 1:
        return [0]
    if not graph.is_connected():
        return None

    blocks = biconnected_components(graph)
    block_nodes = [component_nodes(b) for b in blocks]
    counts: Dict[int, int] = {}
    for bn in block_nodes:
        for v in bn:
            counts[v] = counts.get(v, 0) + 1
    cuts = {v for v, c in counts.items() if c > 1}
    # every cut node must be in exactly 2 blocks, every block must have <= 2
    # cut nodes, and the block adjacency must form a simple path
    if any(counts[v] > 2 for v in cuts):
        return None
    block_cuts = [sorted(bn & cuts) for bn in block_nodes]
    if any(len(bc) > 2 for bc in block_cuts):
        return None
    end_blocks = [i for i, bc in enumerate(block_cuts) if len(bc) <= 1]
    if len(blocks) == 1:
        order = [0]
    else:
        if len(end_blocks) != 2:
            return None
        # walk the chain of blocks
        order = [end_blocks[0]]
        used_cuts: Set[int] = set()
        while True:
            b = order[-1]
            nxt_cut = [c for c in block_cuts[b] if c not in used_cuts]
            if not nxt_cut:
                break
            c = nxt_cut[0]
            used_cuts.add(c)
            nxt_block = [
                i
                for i in range(len(blocks))
                if i != b and c in block_nodes[i]
            ]
            if len(nxt_block) != 1:
                return None
            order.append(nxt_block[0])
        if len(order) != len(blocks):
            return None

    # traverse each block from its entry cut node to its exit cut node
    path: List[int] = []
    entry: Optional[int] = None
    for idx, b in enumerate(order):
        bn = block_nodes[b]
        bc = block_cuts[b]
        exit_cut = None
        if idx + 1 < len(order):
            shared = bn & block_nodes[order[idx + 1]]
            if len(shared) != 1:
                return None
            (exit_cut,) = shared
        segment = _block_path(graph, bn, entry, exit_cut)
        if segment is None:
            return None
        if path:
            if path[-1] != segment[0]:
                raise AssertionError("block chain stitching failed")
            path.extend(segment[1:])
        else:
            path.extend(segment)
        entry = exit_cut
    if not is_path_outerplanar_with(graph, path):
        return None
    return path


def _block_path(
    graph: Graph,
    nodes: Set[int],
    entry: Optional[int],
    exit_cut: Optional[int],
) -> Optional[List[int]]:
    """Hamiltonian path of one block from ``entry`` to ``exit_cut``.

    ``None`` for entry/exit means a free end (end block of the chain).
    """
    node_list = sorted(nodes)
    if len(node_list) == 1:
        return node_list
    if len(node_list) == 2:
        a, b = node_list
        if entry is not None and entry == b:
            return [b, a]
        if exit_cut is not None and exit_cut == a:
            return [b, a]
        return [a, b]
    sub, index = graph.subgraph(nodes)
    inverse = {i: v for v, i in index.items()}
    cycle = hamiltonian_cycle_of_biconnected_outerplanar(sub)
    if cycle is None:
        return None
    cyc = [inverse[i] for i in cycle]
    k = len(cyc)
    if entry is None and exit_cut is None:
        return cyc + []  # cycle walk starting anywhere; close chord nests fine
    if entry is None or exit_cut is None:
        anchor = entry if entry is not None else exit_cut
        i = cyc.index(anchor)
        walk = cyc[i:] + cyc[:i]
        return walk if entry is not None else list(reversed(walk))
    # internal block: entry and exit must be adjacent on the cycle
    i = cyc.index(entry)
    j = cyc.index(exit_cut)
    if (i + 1) % k == j:
        # walk the long way: entry, then backwards around the cycle to exit
        walk = [cyc[(i - t) % k] for t in range(k)]
        return walk
    if (j + 1) % k == i:
        walk = [cyc[(i + t) % k] for t in range(k)]
        return walk
    return None


def is_path_outerplanar(graph: Graph) -> bool:
    return find_path_outerplanar_witness(graph) is not None


def brute_force_path_outerplanar(graph: Graph) -> Optional[List[int]]:
    """Exhaustive witness search (testing oracle; factorial time)."""
    if graph.n == 0:
        return []
    for perm in itertools.permutations(range(graph.n)):
        if all(graph.has_edge(perm[i], perm[i + 1]) for i in range(graph.n - 1)):
            if is_path_outerplanar_with(graph, list(perm)):
                return list(perm)
    return None
