"""Lemma 2.3: constant-size spanning-forest advice in planar graphs.

The prover communicates a rooted spanning forest F of a planar graph with
O(1)-bit labels: contract every odd-depth-to-parent edge to get G_odd and
every even-depth-to-parent edge to get G_even; both are planar (minors of
G), hence properly colorable with O(1) colors.  Each node's label carries
its two contraction colors and its depth parity; a node then recognizes its
parent and children purely from its own and its neighbors' labels.

We use the degeneracy-greedy coloring (<= 6 colors for planar inputs; see
DESIGN.md Substitutions), so a label costs 3 + 3 + 1 + 1 = 8 bits (the
extra bit flags roots).

Decoding is *robust*: on adversarial labels a node either decodes some
parent/children claim or reports failure; nothing here certifies that the
decoded structure is actually a spanning forest -- that is Lemma 2.5's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.labels import Label, LabelFormat
from ..core.network import Graph
from ..graphs.coloring import greedy_coloring
from ..graphs.spanning import RootedForest

#: bits per color field (6 colors fit in 3 bits; guarded below)
COLOR_BITS = 3
MAX_COLORS = 1 << COLOR_BITS

#: total bits of a forest-encoding label
FOREST_LABEL_BITS = 2 * COLOR_BITS + 2

#: the Lemma-2.3 label layout (labels are born packed)
FOREST_FORMAT = LabelFormat(
    (
        ("c1", "uint", COLOR_BITS),
        ("c2", "uint", COLOR_BITS),
        ("parity", "uint", 1),
        ("is_root", "flag", None),
    )
)


def _contracted_graphs(
    graph: Graph, forest: RootedForest
) -> Tuple[Graph, List[int], Graph, List[int]]:
    """Contract (v, parent(v)) edges by depth parity, both parities at once.

    Returns ``(g_odd, map_odd, g_even, map_even)`` where g_odd contracts the
    edges with odd depth(v) and g_even the even ones; each map sends a node
    to its contracted-node id.  Self-loops vanish; parallel edges merge
    (colorings only need adjacency).  The single fused pass walks the forest
    and the (memoized) edge list once instead of twice.
    """
    # one union-find per parity over contraction groups
    reps = (list(range(graph.n)), list(range(graph.n)))

    def find(rep: List[int], v: int) -> int:
        while rep[v] != v:
            rep[v] = rep[rep[v]]
            v = rep[v]
        return v

    depth = forest.depth
    for v, parent in forest.parent.items():
        rep = reps[depth(v) % 2]
        rv, rp = find(rep, v), find(rep, parent)
        if rv != rp:
            rep[rv] = rp
    mappings = ([0] * graph.n, [0] * graph.n)
    for parity in (0, 1):
        rep, mapping = reps[parity], mappings[parity]
        group: Dict[int, int] = {}
        for v in range(graph.n):
            r = find(rep, v)
            g = group.get(r)
            if g is None:
                g = group[r] = len(group)
            mapping[v] = g
    map_even, map_odd = mappings
    edges_odd: List[Tuple[int, int]] = []
    edges_even: List[Tuple[int, int]] = []
    for u, v in graph.edges():  # memoized on the graph; shared across calls
        cu, cv = map_odd[u], map_odd[v]
        if cu != cv:
            edges_odd.append((cu, cv))
        cu, cv = map_even[u], map_even[v]
        if cu != cv:
            edges_even.append((cu, cv))
    g_odd = Graph.from_edge_list(max(map_odd, default=-1) + 1, edges_odd)
    g_even = Graph.from_edge_list(max(map_even, default=-1) + 1, edges_even)
    return g_odd, map_odd, g_even, map_even


def forest_encoding_labels(graph: Graph, forest: RootedForest) -> Dict[int, Label]:
    """The honest prover's Lemma-2.3 labels for communicating ``forest``."""
    g_odd, map_odd, g_even, map_even = _contracted_graphs(graph, forest)
    col_odd = greedy_coloring(g_odd)
    col_even = greedy_coloring(g_even)
    if max(col_odd.values(), default=0) >= MAX_COLORS or (
        max(col_even.values(), default=0) >= MAX_COLORS
    ):
        raise ValueError(
            "contracted graph needed more than 6 colors; input not planar?"
        )
    roots = set(forest.roots())
    labels: Dict[int, Label] = {}
    # Intern labels by field value: there are at most MAX_COLORS^2 * 4
    # distinct ones, and nodes with equal fields can share one immutable
    # Label object (downstream code never mutates transcript labels --
    # adversarial edits go through the copying ``with_value``).  Sharing
    # also lets per-object decode caches collapse equal labels into one
    # memo entry.
    interned: Dict[Tuple[int, int, int, bool], Label] = {}
    depth = forest.depth
    for v in graph.nodes():
        key = (col_odd[map_odd[v]], col_even[map_even[v]], depth(v) % 2, v in roots)
        lbl = interned.get(key)
        if lbl is None:
            lbl = interned[key] = FOREST_FORMAT.pack(key)
        labels[v] = lbl
    return labels


@dataclass
class DecodedForestView:
    """What one node learns about the forest from the labels around it."""

    parent_port: Optional[int]  # None for a (claimed) root
    children_ports: List[int]
    is_root: bool


#: sentinel distinguishing "field absent" from any legal field value
_ABSENT = object()

#: a label's Lemma-2.3 payload, extracted once: (c1, c2, parity, is_root)
ForestFields = Tuple[object, object, object, object]


def forest_label_fields(label: Label) -> Optional[ForestFields]:
    """Extract ``(c1, c2, parity, is_root)`` from a Lemma-2.3 label.

    Returns None when any of the four fields is missing — exactly the
    labels :func:`decode_forest_view` rejects as malformed.  The tuple is
    a pure function of the label, so callers may memoize it per label
    object (the decode-cache fast path) and decode once per run instead
    of once per node.
    """
    get = label.get
    c1 = get("c1", _ABSENT)
    c2 = get("c2", _ABSENT)
    parity = get("parity", _ABSENT)
    is_root = get("is_root", _ABSENT)
    if c1 is _ABSENT or c2 is _ABSENT or parity is _ABSENT or is_root is _ABSENT:
        return None
    return (c1, c2, parity, is_root)


def decode_forest_fields(
    own: ForestFields, neighbor_fields: Sequence[ForestFields]
) -> Optional[DecodedForestView]:
    """Port decode over pre-extracted field tuples (see decode_forest_view)."""
    c1, c2, parity, is_root = own
    if parity == 1:
        pk, own_pc, ck, own_cc = 0, c1, 1, c2  # parent via c1, children via c2
    else:
        pk, own_pc, ck, own_cc = 1, c2, 0, c1
    parent_candidates = [
        port
        for port, f in enumerate(neighbor_fields)
        if f[2] != parity and f[pk] == own_pc
    ]
    children = [
        port
        for port, f in enumerate(neighbor_fields)
        if f[2] != parity and f[ck] == own_cc
    ]
    if is_root:
        if parent_candidates:
            return None  # a root must not decode a parent
        return DecodedForestView(None, children, True)
    if len(parent_candidates) != 1:
        return None
    parent_port = parent_candidates[0]
    if parent_port in children:
        return None  # a neighbor cannot be both parent and child
    return DecodedForestView(parent_port, children, False)


def decode_forest_view(
    own: Label, neighbor_labels: Sequence[Label]
) -> Optional[DecodedForestView]:
    """Recover a node's parent/children ports from Lemma-2.3 labels.

    Returns None when the labels are malformed or ambiguous (the node
    should reject in that case).  Matching rules from the paper's proof:

    - parity(v) = 1: parent is the unique neighbor u with parity 0 and
      c1(u) = c1(v); children are the neighbors with parity 0 and
      c2(u) = c2(v).
    - parity(v) = 0: parent is the unique neighbor u with parity 1 and
      c2(u) = c2(v); children are the neighbors with parity 1 and
      c1(u) = c1(v).

    Implemented as extract-then-decode over :func:`forest_label_fields`
    so the cached and uncached paths share one decoder.
    """
    own_fields = forest_label_fields(own)
    if own_fields is None:
        return None
    nbr_fields = []
    for lbl in neighbor_labels:
        f = forest_label_fields(lbl)
        if f is None:
            return None
        nbr_fields.append(f)
    return decode_forest_fields(own_fields, nbr_fields)
