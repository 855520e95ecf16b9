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

from ..core.labels import Label, LabelFormat, PackedLabel
from ..core.network import Graph
from ..graphs.coloring import greedy_colors
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


#: one forest's Lemma-2.3 encoding as value columns over its graph's
#: nodes, in FOREST_FORMAT field order: (c1, c2, parity, is_root)
ForestColumns = Tuple[List[int], List[int], List[int], List[bool]]


def forest_encoding_columns(
    pairs: Sequence[Tuple[Graph, RootedForest]],
) -> List[Optional[ForestColumns]]:
    """The honest Lemma-2.3 encodings of many forests, in one union pass.

    Each ``(graph, forest)`` pair gets the columns of its encoding, or
    None where its contracted graphs need more than ``MAX_COLORS``
    colors (only non-planar inputs do).  All pairs are contracted and
    colored as one disjoint union: contraction and the degeneracy-greedy
    coloring never look across components, and shifting a graph's nodes
    by a constant offset keeps every order they depend on (contracted
    ids follow node order, neighbor lists are sorted, the bucket queue
    pops the same per-component sequence), so every pair's columns are
    the ones it gets alone.
    """
    total = sum(g.n for g, _ in pairs)
    # one union-find per depth parity: index 1 contracts the edges whose
    # child has odd depth (G_odd), index 0 the even ones (G_even)
    reps = (list(range(total)), list(range(total)))

    def find(rep: List[int], v: int) -> int:
        while rep[v] != v:
            rep[v] = rep[rep[v]]
            v = rep[v]
        return v

    parity = [0] * total
    is_root = [True] * total
    edges: List[Tuple[int, int]] = []
    off = 0
    for g, forest in pairs:
        depth = forest.depth
        for v, p in forest.parent.items():
            d = depth(v) % 2
            parity[v + off] = d
            is_root[v + off] = False
            rep = reps[d]
            rv, rp = find(rep, v + off), find(rep, p + off)
            if rv != rp:
                rep[rv] = rp
        edges += [(u + off, v + off) for u, v in g.edges()]
        off += g.n
    colors = []
    for rep in reversed(reps):  # odd (c1) first, then even (c2)
        group: Dict[int, int] = {}
        mapping = [0] * total
        for v in range(total):
            r = find(rep, v)
            c = group.get(r)
            if c is None:
                c = group[r] = len(group)
            mapping[v] = c
        adj: List[List[int]] = [[] for _ in range(len(group))]
        for u, v in edges:
            a, b = mapping[u], mapping[v]
            if a != b:
                adj[a].append(b)
                adj[b].append(a)
        col = greedy_colors([sorted(set(a)) for a in adj])
        colors.append([col[c] for c in mapping])
    c1, c2 = colors
    out: List[Optional[ForestColumns]] = []
    off = 0
    for g, _ in pairs:
        end = off + g.n
        cols = (c1[off:end], c2[off:end], parity[off:end], is_root[off:end])
        if g.n and max(max(cols[0]), max(cols[1])) >= MAX_COLORS:
            out.append(None)
        else:
            out.append(cols)
        off = end
    return out


def forest_encoding_labels(graph: Graph, forest: RootedForest) -> Dict[int, Label]:
    """The honest prover's Lemma-2.3 labels for communicating ``forest``.

    Raises ``ValueError`` when a contracted graph needs more than
    ``MAX_COLORS`` colors (the input is not planar).
    """
    (cols,) = forest_encoding_columns([(graph, forest)])
    if cols is None:
        raise ValueError(
            "contracted graph needed more than 6 colors; input not planar?"
        )
    return dict(enumerate(forest_labels(cols)))


def forest_labels(cols: ForestColumns) -> List[Label]:
    """The labels of encoding columns, one shared object per distinct label.

    There are at most ``MAX_COLORS^2 * 4`` distinct labels, and nodes with
    equal fields can share one frozen label (an adversarial edit is a new
    label, spliced by ``with_value``), so a round of n labels holds at
    most that many label objects.
    """
    schemas, payloads = FOREST_FORMAT.pack_columns(cols)
    interned: Dict[int, Label] = {}
    out = []
    for schema, payload in zip(schemas, payloads):
        lbl = interned.get(payload)
        if lbl is None:
            lbl = interned[payload] = PackedLabel._from_payload(schema, payload)
        out.append(lbl)
    return out


@dataclass
class DecodedForestView:
    """What one node learns about the forest from the labels around it."""

    parent_port: Optional[int]  # None for a (claimed) root
    children_ports: List[int]
    is_root: bool


#: sentinel distinguishing "field absent" from any legal field value
_ABSENT = object()

#: a label's Lemma-2.3 fields: (c1, c2, parity, is_root)
ForestFields = Tuple[object, object, object, object]


def forest_label_fields(label: Label) -> Optional[ForestFields]:
    """Extract ``(c1, c2, parity, is_root)`` from a Lemma-2.3 label.

    Returns None when any of the four fields is missing — exactly the
    labels :func:`decode_forest_view` rejects as malformed.
    """
    get = label.get
    c1 = get("c1", _ABSENT)
    c2 = get("c2", _ABSENT)
    parity = get("parity", _ABSENT)
    is_root = get("is_root", _ABSENT)
    if c1 is _ABSENT or c2 is _ABSENT or parity is _ABSENT or is_root is _ABSENT:
        return None
    return (c1, c2, parity, is_root)


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
    """
    own_fields = forest_label_fields(own)
    if own_fields is None:
        return None
    neighbor_fields = []
    for lbl in neighbor_labels:
        f = forest_label_fields(lbl)
        if f is None:
            return None
        neighbor_fields.append(f)
    c1, c2, parity, is_root = own_fields
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
