"""Lemma 2.5: spanning-tree verification in 3 rounds with O(1)-bit labels.

The paper uses the protocol of Naor, Parter and Yogev (SODA 2020, Section
7.1) as a black box: 3 interaction rounds, constant proof size, perfect
completeness, constant soundness error, amplified by parallel repetition.
This module is a faithful reconstruction honouring that contract:

Round 1 (prover).  The claimed tree arrives as Lemma-2.3 forest-encoding
labels (parent/children decodable locally, one node flagged as root).

Round 2 (verifier).  Every node draws, for each of ``t`` parallel
repetitions, a uniform element x of the constant-size field F_17.

Round 3 (prover).  For each repetition, every node receives s(v) = the sum
of x over its claimed subtree, plus a globally-constant value Z claimed to
be the sum of x over all nodes.

Local checks: s(v) = x(v) + sum of children's s;  Z equal across every
graph edge (the graph is connected, so Z is genuinely global);  the root
checks s(root) = Z.

Why this is sound (constant error per repetition): parent pointers with
out-degree <= 1 form trees plus cycles.  Around a cycle the s-constraints
telescope to "sum of x over the cycle's component == 0 mod 17", which the
prover cannot influence (x is drawn after the pointers are committed).
With k >= 2 roots and no cycle, s(root_i) is forced to its tree's x-sum,
and all of them must equal the single global Z -- again a random event.
Each repetition fails cheaters independently with probability 1 - 1/17.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.labels import BitString, Label, LabelFormat, PackedLabel, field_elem_width
from ..core.network import Graph
from ..graphs.spanning import RootedForest
from .fields import PrimeField
from .forest_encoding import DecodedForestView, decode_forest_view, forest_encoding_labels

#: the constant-size sketch field (soundness 1/17 per repetition)
STV_FIELD = PrimeField(17)
STV_ELEM_BITS = field_elem_width(STV_FIELD.p)


def coin_widths(n: int, repetitions: int) -> Dict[int, int]:
    """Verifier coin widths for round 2: t field elements per node."""
    return {v: repetitions * STV_ELEM_BITS for v in range(n)}


_ELEM_MASK = (1 << STV_ELEM_BITS) - 1


@functools.lru_cache(maxsize=64)
def _round3_keys(repetitions: int) -> Tuple[Tuple[str, str], ...]:
    """The ``(s{j}, Z{j})`` field-name pairs, built once per t."""
    return tuple((f"s{j}", f"Z{j}") for j in range(repetitions))


@functools.lru_cache(maxsize=64)
def round3_format(repetitions: int) -> LabelFormat:
    """The round-3 label layout: interleaved ``s0, Z0, s1, Z1, ...``."""
    return LabelFormat(
        tuple(
            (key, "felem", STV_FIELD.p)
            for pair in _round3_keys(repetitions)
            for key in pair
        )
    )


def split_coins(coins, repetitions: int) -> List[int]:
    """Decode a node's round-2 coins into t field elements.

    Accepts a :class:`BitString` or its raw integer value (hot callers
    pre-mask the relevant bits and skip the BitString wrapper).  Values
    are reduced mod p; the tiny bias (32 raw values onto 17) is
    irrelevant to the soundness argument and keeps coins fixed-width.
    """
    out = []
    value = coins if isinstance(coins, int) else coins.value
    p = STV_FIELD.p
    for _ in range(repetitions):
        out.append((value & _ELEM_MASK) % p)
        value >>= STV_ELEM_BITS
    return out


def honest_round3_columns(
    tree: RootedForest, coins: Sequence, repetitions: int
) -> List[List[int]]:
    """The honest prover's subtree sums and global sums, as value columns.

    ``coins[v]`` is node v's round-2 coins (a :class:`BitString` or its
    raw value).  Returns the ``s0, Z0, s1, Z1, ...`` columns of
    :func:`round3_format` over the nodes ``0..n-1``.
    """
    n = tree.n
    p = STV_FIELD.p
    x = [split_coins(c, repetitions) for c in coins]
    z_totals = [sum(xv[j] for xv in x) % p for j in range(repetitions)]
    # subtree sums, bottom-up
    children = tree.children_map()
    order: List[int] = []
    stack = tree.roots()
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    s: List[List[int]] = [None] * n  # type: ignore[list-item]
    for v in reversed(order):
        sums = x[v]
        kids = children[v]
        if kids:
            sums = list(sums)
            for j in range(repetitions):
                t = sums[j]
                for c in kids:
                    t += s[c][j]
                sums[j] = t % p
        s[v] = sums
    columns: List[List[int]] = []
    for j in range(repetitions):
        columns.append([sv[j] for sv in s])
        columns.append([z_totals[j]] * n)
    return columns


def honest_round3_labels(
    graph: Graph,
    tree: RootedForest,
    coins: Dict[int, BitString],
    repetitions: int,
) -> Dict[int, Label]:
    """The honest prover's round-3 labels (see :func:`honest_round3_columns`)."""
    columns = honest_round3_columns(tree, [coins[v] for v in graph.nodes()], repetitions)
    schemas, payloads = round3_format(repetitions).pack_columns(columns)
    return {
        v: PackedLabel._from_payload(schema, payload)
        for v, (schema, payload) in enumerate(zip(schemas, payloads))
    }


#: sentinel for a missing s/Z field (None never appears as a field value here)
_ABSENT = object()

#: per-label STV payload: one (s_j, Z_j) pair per repetition, _ABSENT where
#: the field is missing.  Z is required of *all* neighbors but s only of
#: children, so absence must stay per-field, not per-label.
StvFields = Tuple[Tuple[object, object], ...]


def stv_label_fields(label: Label, repetitions: int) -> StvFields:
    """The ``(s{j}, Z{j})`` pairs of one round-3 label, ``_ABSENT`` where
    a field is missing."""
    get = label.get
    return tuple(
        (get(key_s, _ABSENT), get(key_z, _ABSENT))
        for key_s, key_z in _round3_keys(repetitions)
    )


def check_node(
    decoded: Optional[DecodedForestView],
    own_coins,
    own_label: Label,
    neighbor_labels: Sequence[Label],
    repetitions: int,
    expected_tree_ports: Optional[Sequence[int]] = None,
) -> bool:
    """The full local check of the spanning-tree verification at one node.

    ``decoded`` is the node's Lemma-2.3 decode of the claimed tree (None
    means the encoding was malformed -> reject); ``own_coins`` is its
    round-2 coins, as for :func:`split_coins`.  ``expected_tree_ports``
    (optional) pins the decoded tree edges to an instance-supplied marked
    subgraph (the standalone task of Lemma 2.5); protocols that let the
    prover *commit* a tree leave it None.
    """
    if decoded is None:
        return False
    if expected_tree_ports is not None:
        decoded_ports = set(decoded.children_ports)
        if decoded.parent_port is not None:
            decoded_ports.add(decoded.parent_port)
        if decoded_ports != set(expected_tree_ports):
            return False
    own_fields = stv_label_fields(own_label, repetitions)
    neighbor_fields = [stv_label_fields(lbl, repetitions) for lbl in neighbor_labels]
    x = split_coins(own_coins, repetitions)
    p = STV_FIELD.p
    children = decoded.children_ports
    is_root = decoded.is_root
    for j in range(repetitions):
        s_v, z_v = own_fields[j]
        if s_v is _ABSENT or z_v is _ABSENT:
            return False
        if not (0 <= s_v < p and 0 <= z_v < p):
            return False
        # global-sum consistency across every graph edge
        for nf in neighbor_fields:
            if nf[j][1] != z_v:  # _ABSENT never equals a field value
                return False
        # subtree-sum recurrence
        total = x[j]
        for port in children:
            s_u = neighbor_fields[port][j][0]
            if s_u is _ABSENT:
                return False
            total = (total + s_u) % p
        if total != s_v:
            return False
        if is_root and s_v != z_v:
            return False
    return True


def run_standalone(
    graph: Graph,
    tree: RootedForest,
    rng: random.Random,
    repetitions: int = 4,
    prover_labels_round3=None,
    prover_labels_round1=None,
) -> Tuple[bool, List[Label], int]:
    """Convenience driver for tests: run the 3-round protocol end to end.

    Returns (accepted, all labels of round 3, proof size in bits).  Custom
    prover callbacks allow adversarial experiments.
    """
    r1 = (
        prover_labels_round1(graph, tree)
        if prover_labels_round1
        else forest_encoding_labels(graph, tree)
    )
    coins = {
        v: BitString.random(rng, repetitions * STV_ELEM_BITS)
        for v in graph.nodes()
    }
    r3 = (
        prover_labels_round3(graph, tree, coins, repetitions)
        if prover_labels_round3
        else honest_round3_labels(graph, tree, coins, repetitions)
    )
    ok = True
    for v in graph.nodes():
        nbrs = graph.neighbors(v)
        decoded = decode_forest_view(r1[v], [r1[u] for u in nbrs])
        if not check_node(
            decoded, coins[v], r3[v], [r3[u] for u in nbrs], repetitions
        ):
            ok = False
    size = max(
        max((l.bit_size() for l in r1.values()), default=0),
        max((l.bit_size() for l in r3.values()), default=0),
    )
    return ok, r3, size
