"""Columnar decide phase: vectorized checker kernels over packed labels.

The verifier's decision is a per-node function of coins plus own/neighbor
labels (Kol-Oshman-Saxena model), evaluated identically at every node --
exactly the shape a data-parallel kernel exploits.  Since the wire-format
refactor every label already has a canonical packed form ``(schema,
payload)``; this module turns one finished transcript into *columns*:

- per prover round, one int64 array per requested field, extracted from
  the payload integers by the same shift/mask arithmetic that
  ``wire_leaf_span`` / ``Label.get`` use (pinned equal by the
  property suite), over all n nodes at once;
- CSR neighbor/port index arrays derived from the :class:`Graph`
  adjacency, so "read the label behind port q" becomes a numpy gather.

A *kernel* (built by :func:`make_stv_kernel` / :func:`make_po_kernel`)
consumes a :class:`ColumnarContext` and returns two boolean arrays:
``ok`` (the vectorized verdict per node) and ``fallback`` (nodes whose
label shapes the kernel does not cover -- those are re-checked by the
ordinary per-view Python path, so a kernel can always punt on a rare
case without ever changing a verdict).  ``Interaction.decide`` merges
the two, so every node gets the verdict the per-view checker gives it.

Kernels run per *host batch*, not per execution: a
:class:`~repro.core.protocol.DecideBatch` groups the pending decides of
many executions (the per-block and per-ear sub-runs of a composite
protocol) by kernel, and :func:`run_kernel` decides each group in one
call over the disjoint union of its members' graphs.  Members may
differ in size: the path-outerplanarity kernel reads every parameter of
a node's own sub-run from per-node arrays.  Each member then gets its
own slice of the ``(ok, fallback)`` arrays.

Every kernel-keyed batch member with at least two nodes and an edge is
decided by its kernel; a batch whose coins the kernel cannot cover
(:class:`Uncoverable`) goes to the per-view checker whole.  numpy is
imported inside :func:`run_kernel`, so a process that never decides a
kernel-keyed batch (an ``lr_sorting`` server, say) never loads it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .labels import Label, LabelSchema, _field_plan

# ---------------------------------------------------------------------------
# sentinels
# ---------------------------------------------------------------------------
#
# Field columns are int64.  Legal field values are non-negative (uints,
# field elements, flags as 0/1, maybe-values), so negative sentinels are
# unambiguous:
#
#   MISSING -- the field (or a sub-label on its path, or the whole round
#              label) is absent: the per-view checkers' _ABSENT/_MISSING.
#   NONE    -- a ``maybe`` field that is present with value None.
#
# Sentinel arithmetic is deliberately tolerant: a garbage product computed
# from a MISSING row only ever feeds conjuncts of nodes that an explicit
# missing-check has already rejected, mirroring the early ``return False``
# of the scalar checkers.

MISSING = -2
NONE = -1

#: "no such slot" sentinel for parent/child port indices (beyond any slot)
BIG = 1 << 60


class Uncoverable(Exception):
    """A coin shape the columnar path cannot represent (a width beyond
    int64).  Raised during extraction; ``run_kernel`` turns it into a
    per-view fallback for the whole batch."""


# ---------------------------------------------------------------------------
# column plans: schema -> (shift, mask) extraction per column
# ---------------------------------------------------------------------------

#: widest leaf an int64 column can hold (values are non-negative)
_MAX_LEAF_BITS = 62


#: a column request: (field path, want_sub, unwrap) -- want_sub asks "is
#: there a present sub-label here" (1 / MISSING) instead of a field value;
#: unwrap applies the wrapped-label "node" descend before walking the path
ColumnSpec = Tuple[tuple, bool, bool]

#: column plans: specs tuple -> {schema: _ColumnPlan}.  Schemas are
#: interned process-wide and never freed, so a plan is built once per
#: process.
_PLANS: Dict[tuple, dict] = {}

#: a plan entry's value kinds (``kind`` of a :class:`_ColumnPlan`)
_CONST, _LEAF, _MAYBE = 0, 1, 2


class _ColumnPlan:
    """One schema's extraction plan for a specs tuple, one entry per
    column: the value ``kind``, the ``shift`` of its lowest bit, its
    value ``mask``, the presence-bit offset ``pbit`` of a maybe leaf
    (relative to ``shift``), and the ``const`` a non-value entry reads
    (1 for a present sub-label, else MISSING).  ``uncover`` marks a
    schema with an entry no int64 column holds (a leaf wider than
    ``_MAX_LEAF_BITS``, or a sub-label read as a value); ``top`` is the
    highest payload bit any entry reads, plus one.  The schema None (no
    label at all) reads MISSING everywhere."""

    __slots__ = ("kind", "shift", "mask", "pbit", "const", "uncover", "top")

    def __init__(self, schema, specs: Sequence["ColumnSpec"]):
        self.kind, self.shift, self.mask, self.pbit, self.const = [], [], [], [], []
        self.uncover = False
        self.top = 0
        for path, want_sub, unwrap in specs:
            field = None
            if schema is not None:
                field = _field_plan(schema, path, "node" if unwrap else None)
            fkind, fshift, width = field or ("missing", 0, 0)
            kind, shift, mask, pbit, const = _CONST, 0, 0, 0, MISSING
            if want_sub or fkind == "missing":
                const = 1 if fkind == "label" else MISSING
            elif fkind in ("uint", "felem", "flag") and width <= _MAX_LEAF_BITS:
                kind, shift, mask = _LEAF, fshift, (1 << width) - 1
                self.top = max(self.top, shift + width)
            elif fkind == "maybe" and width - 1 <= _MAX_LEAF_BITS:
                kind, shift, pbit = _MAYBE, fshift, width - 1
                mask = (1 << pbit) - 1
                self.top = max(self.top, shift + width)
            else:
                self.uncover = True
            self.kind.append(kind)
            self.shift.append(shift)
            self.mask.append(mask)
            self.pbit.append(pbit)
            self.const.append(const)


def extract_columns(np, rows: Sequence[Optional[Label]], specs: Sequence[ColumnSpec]):
    """Extract one int64 column per spec from a row of labels.

    ``rows[i]`` is the label of row ``i`` (None for "no label at all",
    which reads as MISSING everywhere).  Returns ``(columns, uncover)``
    where ``uncover`` flags rows holding a shape the specs cannot decode
    (their column values are MISSING placeholders; the caller must route
    every reader of such a row to the per-view fallback).

    Each row's payload is laid out as little-endian 64-bit words (only
    the bits some column reads), and every (row, column) entry is read by
    one vectorized shift/mask, with the shift and mask of its row's
    schema plan.  Every label hands over its stored payload as is.
    """
    plans = _PLANS.get(specs)
    if plans is None:
        plans = _PLANS.setdefault(specs, {None: _ColumnPlan(None, specs)})
    codes: Dict[Optional[LabelSchema], int] = {None: 0}
    row_plans = [plans[None]]
    row_codes: List[int] = []
    pays: List[int] = []
    for lbl in rows:
        if lbl is None:
            schema, payload = None, 0
        else:
            schema, payload = lbl._schema, lbl._pv
        code = codes.get(schema)
        if code is None:
            plan = plans.get(schema)
            if plan is None:
                plan = plans[schema] = _ColumnPlan(schema, specs)
            code = codes[schema] = len(row_plans)
            row_plans.append(plan)
        row_codes.append(code)
        pays.append(payload)
    n_rows = len(rows)
    code_arr = np.array(row_codes, dtype=np.intp)
    uncover = np.array([plan.uncover for plan in row_plans], dtype=bool)[code_arr]
    # one spare word past the highest bit read: a field that straddles a
    # word boundary reads the next word too
    nbytes = 8 * (max(plan.top for plan in row_plans) // 64 + 2)
    low = (1 << (8 * nbytes)) - 1
    words = np.frombuffer(
        b"".join([(p & low).to_bytes(nbytes, "little") for p in pays]), dtype="<u8"
    ).reshape(n_rows, nbytes // 8)
    # every (row, column) entry at once, each read with its row's plan
    kind = np.array([plan.kind for plan in row_plans], dtype=np.int64)[code_arr]
    shift = np.array([plan.shift for plan in row_plans], dtype=np.int64)[code_arr]
    word = shift >> 6
    off = (shift & 63).astype(np.uint64)
    row = np.arange(n_rows)[:, None]
    one = np.uint64(1)
    raw = (words[row, word] >> off) | (
        (words[row, word + 1] << one) << (np.uint64(63) - off)
    )
    mask = np.array([plan.mask for plan in row_plans], dtype=np.uint64)[code_arr]
    pbit = np.array([plan.pbit for plan in row_plans], dtype=np.uint64)[code_arr]
    const = np.array([plan.const for plan in row_plans], dtype=np.int64)[code_arr]
    mat = np.where(kind == _CONST, const, (raw & mask).astype(np.int64))
    mat[(kind == _MAYBE) & ((raw >> pbit) & one == 0)] = NONE
    return list(np.ascontiguousarray(mat.T)), uncover


# ---------------------------------------------------------------------------
# the columnar context: CSR adjacency + per-round column assembly
# ---------------------------------------------------------------------------


class ColumnarContext:
    """Columns and index arrays of one or more finished executions.

    ``members`` are ``(graph, transcript)`` pairs decided together: their
    nodes are laid out back to back (member ``i`` owns rows
    ``offsets[i]:offsets[i + 1]``), so the context is the disjoint union
    of the member graphs.  Every kernel check is a per-node predicate of
    the node's coins and its own, neighbor and incident-edge labels, so a
    node's verdict over the union is its verdict over its own member.

    ``indptr/nbr/slot_node`` form the CSR view of the adjacency: the
    slots of node ``v`` are ``indptr[v]:indptr[v+1]``, slot ``s`` leads
    to neighbor node ``nbr[s]`` and belongs to node ``slot_node[s]``;
    port ``q`` of ``v`` is slot ``indptr[v] + q`` (ports are sorted
    neighbor order, exactly as ``build_views`` exposes them).

    ``fallback`` accumulates nodes the kernels cannot decide (uncoverable
    label shapes, structural cases a kernel punts on); the decide hook
    re-checks exactly those through the per-view path.
    """

    def __init__(self, np, members):
        self.np = np
        self.members = members
        self.offsets = [0]
        for graph, _ in members:
            self.offsets.append(self.offsets[-1] + graph.n)
        self.n = self.offsets[-1]
        self._prover_rounds = [t.prover_rounds() for _, t in members]
        self._verifier_rounds = [t.verifier_rounds() for _, t in members]
        self.fallback = np.zeros(self.n, dtype=bool)
        self._csr = None
        self._edge_rows: Dict[int, list] = {}
        self._slot_keys: Optional[List[list]] = None

    # -- adjacency --------------------------------------------------------

    def csr(self):
        csr = self._csr
        if csr is None:
            np = self.np
            degs_l: List[int] = []
            flat: List[int] = []
            for (g, _), off in zip(self.members, self.offsets):
                neighbors = g.neighbors
                degs_l += [g.degree(v) for v in range(g.n)]
                flat += [u + off for v in range(g.n) for u in neighbors(v)]
            degs = np.array(degs_l, dtype=np.int64)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(degs, out=indptr[1:])
            nbr = np.array(flat, dtype=np.int64)
            slot_node = np.repeat(np.arange(self.n, dtype=np.int64), degs)
            csr = self._csr = (indptr, nbr, slot_node)
        return csr

    # -- columns ----------------------------------------------------------

    def node_cols(self, ridx: int, specs: Sequence[ColumnSpec]):
        """Per-node columns for prover round ``ridx`` (one array per spec)."""
        rows: List[Optional[Label]] = []
        for (g, _), rounds in zip(self.members, self._prover_rounds):
            if ridx < len(rounds):
                labels = rounds[ridx].labels
                rows += [labels.get(v) for v in range(g.n)]
            else:
                rows += [None] * g.n
        cols, uncover = extract_columns(self.np, rows, specs)
        if uncover.any():
            # an undecodable label is read by its owner and all neighbors
            np = self.np
            _, nbr, slot_node = self.csr()
            self.fallback |= uncover
            self.fallback |= np.bincount(
                slot_node[uncover[nbr]], minlength=self.n
            ).astype(bool)
        return cols

    def edge_rows(self, ridx: int) -> list:
        """Per-slot edge labels of prover round ``ridx`` (member keys)."""
        rows = self._edge_rows.get(ridx)
        if rows is None:
            keys = self._slot_keys
            if keys is None:
                # each member's canonical edge key per slot, shared by rounds
                keys = self._slot_keys = [
                    [
                        (v, u) if v <= u else (u, v)
                        for v in range(g.n)
                        for u in g.neighbors(v)
                    ]
                    for g, _ in self.members
                ]
            rows = []
            for slot_keys, rounds in zip(keys, self._prover_rounds):
                store = rounds[ridx].edge_labels if ridx < len(rounds) else {}
                rows += map(store.get, slot_keys)
            self._edge_rows[ridx] = rows
        return rows

    def edge_cols(self, ridx: int, specs: Sequence[ColumnSpec]):
        """Per-slot columns for the edge labels of prover round ``ridx``."""
        cols, uncover = extract_columns(self.np, self.edge_rows(ridx), specs)
        if uncover.any():
            np = self.np
            _, _, slot_node = self.csr()
            # the same edge label appears once per endpoint slot, so
            # marking each uncovered slot's owner covers both readers
            self.fallback |= np.bincount(
                slot_node[uncover], minlength=self.n
            ).astype(bool)
        return cols

    def coin_cols(self, vidx: int):
        """Per-node coin values of verifier round ``vidx`` as int64."""
        vals = [0] * self.n
        for rounds, off in zip(self._verifier_rounds, self.offsets):
            if vidx >= len(rounds):
                continue
            for v, bits in rounds[vidx].coins.items():
                if bits.width > _MAX_LEAF_BITS:
                    raise Uncoverable(f"coin width {bits.width} beyond int64")
                vals[v + off] = bits.value
        return self.np.array(vals, dtype=self.np.int64)


# ---------------------------------------------------------------------------
# segmented helpers (segments = the CSR slot ranges of each node)
# ---------------------------------------------------------------------------


def seg_any(np, mask, slot_node, n: int):
    """Per-node "any slot satisfies mask" (False on empty segments)."""
    return np.bincount(slot_node[mask], minlength=n).astype(bool)


def seg_count(np, mask, slot_node, n: int):
    return np.bincount(slot_node[mask], minlength=n)


def seg_min_slot(np, mask, slot_node, n: int):
    """Per-node minimum slot index among masked slots (BIG when none)."""
    out = np.full(n, BIG, dtype=np.int64)
    sel = np.nonzero(mask)[0]
    np.minimum.at(out, slot_node[sel], sel)
    return out


def seg_sum(np, mask, slot_node, values, n: int):
    """Per-node int64 sum of ``values`` over masked slots (exact)."""
    out = np.zeros(n, dtype=np.int64)
    sel = np.nonzero(mask)[0]
    np.add.at(out, slot_node[sel], values[sel])
    return out


def seg_pick(np, mask, slot_node, values, n: int):
    """Per-node value of *the* masked slot (callers guarantee at most one
    masked slot per decided node; with several, the last write wins and
    the node is on the fallback path anyway).  MISSING when none."""
    out = np.full(n, MISSING, dtype=np.int64)
    sel = np.nonzero(mask)[0]
    out[slot_node[sel]] = values[sel]
    return out


def pow_mod(np, base, exp, mod: int, max_bits: int):
    """Vectorized pow(base, exp, mod) by square-and-multiply.

    ``exp`` entries are clamped at 0 (MISSING rows feed already-rejected
    conjuncts) and must fit ``max_bits`` bits, which every multiplicity
    field does by construction (width-preserving fuzz included)."""
    result = np.ones_like(base)
    b = base % mod
    e = np.maximum(exp, 0)
    for i in range(max_bits):
        bit = (e >> i) & 1
        result = np.where(bit == 1, result * b % mod, result)
        b = b * b % mod
    return result


# ---------------------------------------------------------------------------
# vectorized Lemma-2.3 forest decode (decode_forest_view over columns)
# ---------------------------------------------------------------------------


def _decode_forest_cols(np, csr, n: int, own):
    """Columnar ``decode_forest_view`` over all nodes at once.

    ``own`` is the ``(c1, c2, parity, is_root)`` node columns.  Callers
    reject (or mark bad) nodes whose own/neighbor fields are MISSING
    before trusting the outputs; on such rows the decode runs on garbage,
    feeding only already-rejected conjuncts.

    Returns ``(ok, parent_slot, child_mask, child_count)``: ``ok[v]``
    False means the scalar decode returns None; ``parent_slot[v]`` is the
    global slot of the decoded parent (BIG for roots); ``child_mask`` is
    per-slot, ``child_count`` per-node.
    """
    indptr, nbr, slot_node = csr
    c1, c2, parity, root = own
    # own parent/child colors by parity (parity 1: parent via c1, children
    # via c2; parity 0: the mirror)
    own_pc = np.where(parity == 1, c1, c2)
    own_cc = np.where(parity == 1, c2, c1)
    s_par = parity[slot_node]
    nb_par = parity[nbr]
    nb_pk = np.where(s_par == 1, c1[nbr], c2[nbr])
    nb_ck = np.where(s_par == 1, c2[nbr], c1[nbr])
    opposite = nb_par != s_par
    cand = opposite & (nb_pk == own_pc[slot_node])
    child_mask = opposite & (nb_ck == own_cc[slot_node])
    cand_count = seg_count(np, cand, slot_node, n)
    child_count = seg_count(np, child_mask, slot_node, n)
    parent_slot = seg_min_slot(np, cand, slot_node, n)
    ps_safe = np.where(parent_slot < BIG, parent_slot, 0)
    parent_is_child = (parent_slot < BIG) & child_mask[ps_safe]
    is_root = root == 1
    ok = np.where(
        is_root,
        cand_count == 0,
        (cand_count == 1) & ~parent_is_child,
    )
    parent_slot = np.where(is_root | ~ok, BIG, parent_slot)
    return ok, parent_slot, child_mask, child_count


# ---------------------------------------------------------------------------
# shared STV field checks (Lemma 2.5 over columns)
# ---------------------------------------------------------------------------


def _stv_reject(
    np, csr, n: int, reps: int, p: int, elem_bits: int,
    coin_vals, s_cols, z_cols, child_mask, is_root_mask, node_reps=None,
):
    """Reject mask of the STV ``check_node`` (sans tree-port pinning).

    ``coin_vals`` are the STV coin slices (already masked by the caller);
    ``child_mask`` is the per-slot decoded-children mask, ``is_root_mask``
    the decoded root flag.  MISSING fields reject exactly where the
    scalar checker's _ABSENT tests do.  ``node_reps``, when given, is
    each node's own repetition count: repetition ``j`` then rejects only
    nodes with ``j < node_reps`` (``reps`` is the largest of them).
    """
    _, nbr, slot_node = csr
    reject = np.zeros(n, dtype=bool)
    emask = (1 << elem_bits) - 1
    for j in range(reps):
        s_v = s_cols[j]
        z_v = z_cols[j]
        bad = (s_v == MISSING) | (z_v == MISSING)
        bad |= (s_v < 0) | (s_v >= p) | (z_v < 0) | (z_v >= p)
        # global-sum consistency across every graph edge (_ABSENT never
        # equals a field value: MISSING neighbors mismatch and reject)
        bad |= seg_any(np, z_v[nbr] != z_v[slot_node], slot_node, n)
        # subtree-sum recurrence over decoded children
        ns = s_v[nbr]
        bad |= seg_any(np, child_mask & (ns == MISSING), slot_node, n)
        contrib = np.where(ns >= 0, ns, 0)
        total = seg_sum(np, child_mask, slot_node, contrib, n)
        x_j = ((coin_vals >> (j * elem_bits)) & emask) % p
        bad |= (x_j + total) % p != s_v
        bad |= is_root_mask & (s_v != z_v)
        reject |= bad if node_reps is None else bad & (node_reps > j)
    return reject


# ---------------------------------------------------------------------------
# kernel: standalone spanning-tree verification
# ---------------------------------------------------------------------------


def make_stv_kernel(params, p: int, elem_bits: int):
    """Columnar checker for :class:`SpanningTreeVerificationProtocol`.

    ``params`` holds one ``(reps, tree_ports)`` pair per member; the
    batch key makes them equal, so the first one speaks for all.
    ``tree_ports`` is the instance's port pinning (dict node -> tuple of
    ports) when the protocol enforces a specific tree, else None --
    matching the ``expected_tree_ports`` argument of the scalar checker.
    """
    reps, tree_ports = params[0]

    _F = (
        (("c1",), False, False),
        (("c2",), False, False),
        (("parity",), False, False),
        (("is_root",), False, False),
    )
    _R3 = tuple(((f"s{j}",), False, False) for j in range(reps)) + tuple(
        ((f"Z{j}",), False, False) for j in range(reps)
    )

    def kernel(ctx: ColumnarContext):
        np = ctx.np
        n = ctx.n
        csr = ctx.csr()
        indptr, nbr, slot_node = csr

        # round-1 forest-encoding labels (STV labels are unwrapped)
        c1, c2, parity, root = ctx.node_cols(0, _F)
        own_bad = (c1 == MISSING) | (c2 == MISSING) | (parity == MISSING) | (
            root == MISSING
        )
        reject = own_bad | seg_any(np, own_bad[nbr], slot_node, n)
        dec_ok, parent_slot, child_mask, _ = _decode_forest_cols(
            np, csr, n, (c1, c2, parity, root)
        )
        reject |= ~dec_ok

        if tree_ports is not None:
            expected = np.zeros(len(nbr), dtype=bool)
            base = indptr
            for v, ports in tree_ports.items():
                off = int(base[v])
                for q in ports:
                    expected[off + q] = True
            slots = np.arange(len(nbr), dtype=np.int64)
            decoded_in = child_mask | (slots == parent_slot[slot_node])
            reject |= seg_any(np, decoded_in != expected, slot_node, n)

        # round-2 sum-check shares
        cols = ctx.node_cols(1, _R3)
        coin_vals = ctx.coin_cols(0)
        reject |= _stv_reject(
            np, csr, n, reps, p, elem_bits, coin_vals,
            cols[:reps], cols[reps:], child_mask, root == 1,
        )
        return ~reject, ctx.fallback

    return kernel


def run_kernel(make_kernel, members):
    """Decide the disjoint union of ``members`` with one columnar kernel.

    ``members`` are the ``(graph, transcript, params)`` triples of
    finished executions that one kernel decides; ``make_kernel`` builds
    that kernel from the ``params`` of the members it decides, in
    member order.  Returns one entry per member: its ``(ok, fallback)``
    numpy bool slices, or None where the kernel does not apply -- the
    caller then decides every node of that member with the per-view
    checker.  Degenerate members (fewer than two nodes, or no edges) are
    always None and never reach the kernel; the others are all None when
    a coin shape is uncoverable.
    """
    import numpy as np  # here, not at module load: see the module docstring

    out: List[Optional[tuple]] = [None] * len(members)
    live = [i for i, (g, _, _) in enumerate(members) if g.n >= 2 and g.m > 0]
    if not live:
        return out
    kernel = make_kernel([members[i][2] for i in live])
    ctx = ColumnarContext(np, [members[i][:2] for i in live])
    try:
        ok, fallback = kernel(ctx)
    except Uncoverable:
        return out
    for i, lo, hi in zip(live, ctx.offsets, ctx.offsets[1:]):
        out[i] = (ok[lo:hi], fallback[lo:hi])
    return out


# ---------------------------------------------------------------------------
# kernel: path-outerplanarity (the decide sweep behind planarity,
# planar_embedding, outerplanarity, treewidth2, series_parallel)
# ---------------------------------------------------------------------------
#
# Columns requested from each round.  Wrapped round labels put the
# protocol fields under a "node" sub (unwrap=True), except the round-1
# "forests" setup which sits *next to* "node" (unwrap=False).

_PO_R1_SPECS = (
    (("commit", "c1"), False, True),
    (("commit", "c2"), False, True),
    (("commit", "parity"), False, True),
    (("commit", "is_root"), False, True),
    (("lr",), True, True),
    (("lr", "idx"), False, True),
    (("lr", "x1bit"), False, True),
    (("lr", "x2bit"), False, True),
    (("lr", "side"), False, True),
    (("lr", "M"), False, True),
)

_PO_R3_SPECS = (
    (("lr",), True, True),
    (("lr", "rb"), False, True),
    (("lr", "r"), False, True),
    (("lr", "rp"), False, True),
    (("lr", "pfx2_r"), False, True),
    (("lr", "sfx1_r"), False, True),
    (("lr", "pfx1_rp"), False, True),
    (("nest", "above"), False, True),
    (("nest", "has_left"), False, True),
    (("nest", "has_right"), False, True),
    (("stv",), True, True),
)

_PO_R5_SPECS = (
    (("lr",), True, True),
    (("lr", "rq0"), False, True),
    (("lr", "rq1"), False, True),
    (("lr", "A0"), False, True),
    (("lr", "A1"), False, True),
    (("lr", "B0"), False, True),
    (("lr", "B1"), False, True),
)

_PO_E1_SPECS = (
    (("inner",), False, False),
    (("I",), False, False),
    (("fwd",), False, False),
    (("ltail",), False, False),
    (("lhead",), False, False),
)

_PO_E3_SPECS = (
    (("jval",), False, False),
    (("name_t",), False, False),
    (("name_h",), False, False),
    (("succ",), False, False),
)


def chain_search(entries, start, own_above, longest_flag_index: int, none) -> bool:
    """Is there an ordering e1..ek of the ``(name, succ, ltail, lhead)``
    ``entries`` with name(e1) = ``start``, succ(e_i) = name(e_{i+1}), only
    e_k longest-marked (ltail for ``longest_flag_index`` 0, else lhead),
    no earlier succ equal to ``none``, and succ(e_k) = ``own_above``?

    A depth-first search trying entries in list order (ascending port
    order -- the search budget depends on it), cut off after 4096 steps.
    The scalar checker passes ``none=None``; the columnar kernel passes
    its NONE sentinel and tests for MISSING itself.  Names and legal succ
    values are non-negative, so the sentinels compare exactly like their
    scalar counterparts and both paths decide by the very same search.
    """
    budget = [4096]
    used = [False] * len(entries)
    flag = 2 if longest_flag_index == 0 else 3
    return _chain_step(entries, used, budget, own_above, flag, none, start, 0)


def _chain_step(entries, used, budget, own_above, flag, none, expected, count) -> bool:
    """One node of :func:`chain_search`: place an entry at ``count``.

    A module-level recursion, not a closure over itself, so a search
    leaves no reference cycle for the cyclic garbage collector.
    """
    if budget[0] <= 0:
        return False
    budget[0] -= 1
    k = len(entries)
    if count == k:
        return True
    for i in range(k):
        entry = entries[i]
        if used[i] or entry[0] != expected:
            continue
        is_last = count + 1 == k
        if is_last:
            if not entry[flag] or entry[1] != own_above:
                continue
        else:
            if entry[flag] or entry[1] == none:
                continue
        used[i] = True
        nxt = entry[1] if not is_last else None
        if _chain_step(entries, used, budget, own_above, flag, none, nxt, count + 1):
            used[i] = False
            return True
        used[i] = False
    return False


def make_po_kernel(pms, stv_p: int, stv_elem_bits: int, n_forests: int = 3):
    """Columnar checker for ``check_path_outerplanarity_node``.

    ``pms`` holds one :class:`PathOuterplanarityParams` per member
    (duck-typed here to keep core/ free of protocol imports): the members
    may differ in size, so every parameter the checker reads -- block
    length, block count, fields, coin slicing, STV repetitions -- is a
    per-node array (each member's value repeated over its nodes, read
    per slot through ``slot_node``).  ``stv_p`` / ``stv_elem_bits`` are
    the STV field constants.  The kernel re-derives every verdict of the
    scalar checker; the only cases it routes to the per-view fallback
    (beyond uncoverable label shapes) are nodes with two or more outer
    edges or nesting entries on one side, whose multiset/chain checks are
    cheaper re-run in Python than vectorized.  ``run_kernel`` passes only
    members with at least two nodes, so no member is the trivial 1-node
    run.
    """
    lrs = [pm.lr for pm in pms]
    # STV columns for the largest repetition count; a node masks the
    # repetitions beyond its own ``t``
    t_max = max(pm.t for pm in pms)
    stv_specs = tuple(((("stv", f"s{j}"), False, True) for j in range(t_max)))
    stv_specs += tuple(((("stv", f"Z{j}"), False, True) for j in range(t_max)))
    r3_specs = _PO_R3_SPECS + stv_specs
    forest_specs = [(("forests",), True, False)]
    for i in range(n_forests):
        key = f"forest{i}"
        forest_specs.append(((("forests", key)), True, False))
        for fname in ("c1", "c2", "parity", "is_root"):
            forest_specs.append(((("forests", key, fname)), False, False))
    r1_specs = _PO_R1_SPECS + tuple(forest_specs)
    n_r1 = len(_PO_R1_SPECS)
    index_width = max(lr.index_width for lr in lrs)

    def kernel(ctx: ColumnarContext):  # noqa: C901
        np = ctx.np
        n = ctx.n
        csr = ctx.csr()
        indptr, nbr, slot_node = csr
        nslots = len(nbr)
        slots = np.arange(nslots, dtype=np.int64)
        fallback = ctx.fallback
        reject = np.zeros(n, dtype=bool)
        sizes = np.diff(ctx.offsets)

        def per_node(values):
            return np.repeat(np.array(values, dtype=np.int64), sizes)

        # per-node parameters (``_s``: the same read per slot)
        L = per_node([lr.L for lr in lrs])
        multi = per_node([lr.n_blocks for lr in lrs]) > 1
        p = per_node([lr.p for lr in lrs])
        fw = per_node([lr.fw for lr in lrs])
        fwm = per_node([lr.fw_mask for lr in lrs])
        p2 = per_node([lr.p2 for lr in lrs])
        fw2 = per_node([lr.fw2 for lr in lrs])
        fw2m = per_node([lr.fw2_mask for lr in lrs])
        t_reps = per_node([pm.t for pm in pms])
        stv_bits = per_node([pm.stv_bits for pm in pms])
        stv_mask = per_node([pm.stv_mask for pm in pms])
        lr_shift = per_node([pm.lr_shift for pm in pms])
        name_mask = per_node([pm.name_mask for pm in pms])
        w_s = per_node([pm.w for pm in pms])[slot_node]
        L_s = L[slot_node]
        p_s = p[slot_node]

        r1 = ctx.node_cols(0, r1_specs)
        cc1, cc2, cpar, croot, lr1_has, idx, x1b, x2b, side, mult = r1[:n_r1]
        fcols = r1[n_r1:]
        r3 = ctx.node_cols(1, r3_specs)
        lr3_has, rb, rcol, rpcol, pfx2, sfx1, pfx1 = r3[:7]
        above, hl, hr, stv_has = r3[7:11]
        s_cols = r3[11 : 11 + t_max]
        z_cols = r3[11 + t_max :]
        r5 = ctx.node_cols(2, _PO_R5_SPECS)
        lr5_has, rq0, rq1, a0c, a1c, b0c, b1c = r5
        e1 = ctx.edge_cols(0, _PO_E1_SPECS)
        inner, ival, fwd, ltail, lhead = e1
        e3 = ctx.edge_cols(1, _PO_E3_SPECS)
        jval, name_t, name_h, succ = e3
        coins0 = ctx.coin_cols(0)
        coins1 = ctx.coin_cols(1)

        # ---- 1. decode the committed path ----
        cbad = (cc1 == MISSING) | (cc2 == MISSING) | (cpar == MISSING) | (
            croot == MISSING
        )
        reject |= cbad | seg_any(np, cbad[nbr], slot_node, n)
        dec_ok, parent_slot, child_mask, child_count = _decode_forest_cols(
            np, csr, n, (cc1, cc2, cpar, croot)
        )
        reject |= ~dec_ok | (child_count > 1)
        left_slot = parent_slot
        right_slot = seg_min_slot(np, child_mask, slot_node, n)
        has_left = left_slot < BIG
        has_right = right_slot < BIG
        left_nb = nbr[np.where(has_left, left_slot, 0)]
        right_nb = nbr[np.where(has_right, right_slot, 0)]

        # ---- 2. spanning-tree verification of the commitment ----
        sbad = stv_has == MISSING
        reject |= sbad | seg_any(np, sbad[nbr], slot_node, n)
        reject |= _stv_reject(
            np, csr, n, t_max, stv_p, stv_elem_bits,
            coins0 & stv_mask, s_cols, z_cols, child_mask, croot == 1, t_reps,
        )

        # ---- 3. port kinds (path + claimed orientations) ----
        is_left = slots == left_slot[slot_node]
        is_right = slots == right_slot[slot_node]
        nonpath = ~(is_left | is_right)
        reject |= seg_any(np, nonpath & (fwd == MISSING), slot_node, n)
        has_np = seg_any(np, nonpath, slot_node, n)
        own_none = fcols[0] == MISSING
        for i in range(n_forests):
            own_none |= fcols[1 + 5 * i] == MISSING
        sim_none = own_none | seg_any(np, own_none[nbr], slot_node, n)
        # accountability: first forest claiming the edge wins (ordered)
        acc = np.full(nslots, -1, dtype=np.int64)
        for i in range(n_forests):
            fc1, fc2, fpar, froot = fcols[2 + 5 * i : 6 + 5 * i]
            enc_bad = (fc1 == MISSING) | (fc2 == MISSING) | (fpar == MISSING) | (
                froot == MISSING
            )
            f_bad = enc_bad | seg_any(np, enc_bad[nbr], slot_node, n)
            f_ok, f_ps, f_ch, _ = _decode_forest_cols(
                np, csr, n, (fc1, fc2, fpar, froot)
            )
            valid = (~f_bad & f_ok)[slot_node]
            is_par = valid & (slots == f_ps[slot_node])
            is_chd = valid & f_ch & ~is_par
            undecided = acc == -1
            acc = np.where(undecided & is_par, 1, acc)
            acc = np.where(undecided & is_chd, 0, acc)
        reject |= has_np & sim_none
        reject |= seg_any(np, nonpath & (acc == -1), slot_node, n)
        tail = ((fwd == 1) & (acc == 1)) | ((fwd == 0) & (acc == 0))
        is_out = nonpath & tail
        is_in = nonpath & ~tail
        io = is_out | is_in

        # ---- 4. LR sorting over the committed path ----
        # ``multi`` gates the predicates of runs with several blocks
        # (B > 1): the consecutive-numbers proof, the position streams
        # and the outer-block sessions
        reject |= (lr1_has == MISSING) | (lr3_has == MISSING)
        reject |= multi & (lr5_has == MISSING)
        coin2 = coins0 >> lr_shift
        # A. index structure
        reject |= (idx == MISSING) | (idx < 1) | (idx > 2 * L - 1)
        reject |= ~has_left & (idx != 1)
        r_idx = idx[right_nb]
        reject |= has_right & (r_idx == MISSING)
        reject |= has_right & np.where(r_idx == 1, idx != L, r_idx != idx + 1)
        reject |= has_left & (idx > 1) & (idx[left_nb] != idx - 1)
        sbr = has_right & (r_idx == idx + 1)
        sbl = has_left & (idx > 1)
        lo = idx <= L
        # B. consecutive-numbers proof
        bad = (x1b == MISSING) | (x2b == MISSING) | (side == MISSING)
        bad |= lo & (side == 2) & ~((x1b == 1) & (x2b == 0))
        bad |= lo & (side == 1) & ~((x1b == 0) & (x2b == 1))
        bad |= lo & (side == 0) & (x1b != x2b)
        bad |= (idx == L) & (side == 0)
        mB = lo & sbr & (idx + 1 <= L)
        r_side = side[right_nb]
        bad |= mB & (r_side == MISSING)
        bad |= mB & ((side == 1) | (side == 2)) & (r_side != 2)
        mB = lo & sbl & (idx - 1 <= L)
        l_side = side[left_nb]
        bad |= mB & (l_side == MISSING)
        bad |= mB & ((side == 0) | (side == 1)) & (l_side != 0)
        bad |= (idx > L) & ((x1b != 0) | (x2b != 0))
        # C. position streams over F_p
        bad |= (
            (rcol == MISSING) | (rpcol == MISSING) | (pfx2 == MISSING)
            | (sfx1 == MISSING) | (pfx1 == MISSING)
        )
        bad |= has_left & ((rcol[left_nb] != rcol) | (rpcol[left_nb] != rpcol))
        bad |= has_right & ((rcol[right_nb] != rcol) | (rpcol[right_nb] != rpcol))
        raw2 = coin2 >> fw
        bad |= ~has_left & (rcol != (raw2 & fwm) % p)
        bad |= ~has_left & (rpcol != ((raw2 >> fw) & fwm) % p)
        u2 = lo & (x2b == 1)
        u1 = lo & (x1b == 1)
        f2v = np.where(u2, (idx - rcol) % p, 1)
        f1r = np.where(u1, (idx - rcol) % p, 1)
        f1rp = np.where(u1, (idx - rpcol) % p, 1)
        npfx2 = pfx2[left_nb]
        npfx1 = pfx1[left_nb]
        bad |= sbl & ((npfx2 == MISSING) | (npfx1 == MISSING))
        bad |= sbl & ((pfx2 != npfx2 * f2v % p) | (pfx1 != npfx1 * f1rp % p))
        bad |= ~sbl & ((pfx2 != f2v % p) | (pfx1 != f1rp % p))
        nsfx = sfx1[right_nb]
        bad |= sbr & ((nsfx == MISSING) | (sfx1 != nsfx * f1r % p))
        bad |= ~sbr & (sfx1 != f1r % p)
        bad |= (idx == 1) & has_left & (npfx2 != sfx1)
        reject |= multi & bad
        # D. inner-block edges + r_b distribution (every B)
        reject |= rb == MISSING
        reject |= (idx == 1) & (rb != (coin2 & fwm) % p)
        reject |= sbl & (rb[left_nb] != rb)
        reject |= seg_any(np, io & (inner == MISSING), slot_node, n)
        outer = io & (inner == 0)
        # a single block has no outer edges
        reject |= ~multi & seg_any(np, outer, slot_node, n)
        innr = io & (inner == 1)
        nb_idx = idx[nbr]
        nb_rb = rb[nbr]
        dbad = innr & ((nb_idx == MISSING) | (nb_rb == MISSING))
        dbad |= innr & is_out & ~(idx[slot_node] < nb_idx)
        dbad |= innr & is_in & ~(nb_idx < idx[slot_node])
        dbad |= innr & (nb_rb != rb[slot_node])
        reject |= seg_any(np, dbad, slot_node, n)
        # E. outer-block commitments
        ebad = outer & ((ival == MISSING) | (jval == MISSING))
        ebad |= outer & ((ival < 1) | (ival > L_s) | (jval < 0) | (jval >= p_s))
        bad = seg_any(np, ebad, slot_node, n)
        out_o = outer & is_out
        in_o = outer & is_in
        co0 = seg_count(np, out_o, slot_node, n)
        co1 = seg_count(np, in_o, slot_node, n)
        iv0 = seg_pick(np, out_o, slot_node, ival, n)
        jv0 = seg_pick(np, out_o, slot_node, jval, n)
        iv1 = seg_pick(np, in_o, slot_node, ival, n)
        jv1 = seg_pick(np, in_o, slot_node, jval, n)
        bad |= (co0 == 1) & (co1 == 1) & (iv0 == iv1)
        # session streams over F_p2
        bad |= (
            (rq0 == MISSING) | (rq1 == MISSING) | (a0c == MISSING)
            | (a1c == MISSING) | (b0c == MISSING) | (b1c == MISSING)
        )
        bad |= (idx == 1) & (rq0 != (coins1 & fw2m) % p2)
        bad |= (idx == 1) & (rq1 != ((coins1 >> fw2) & fw2m) % p2)
        bad |= sbl & ((rq0[left_nb] != rq0) | (rq1[left_nb] != rq1))
        ca0 = np.where(co0 == 1, ((iv0 - 1) * p + jv0 - rq0) % p2, 1)
        ca1 = np.where(co1 == 1, ((iv1 - 1) * p + jv1 - rq1) % p2, 1)
        # nodes with several outer edges on a side: the scalar
        # dict-collapse (same index, same value merges; same index,
        # different value rejects) and cross-side index disjointness run
        # as a tight loop over just those nodes, overwriting their
        # contribution terms
        multi_e = np.nonzero(multi & ((co0 > 1) | (co1 > 1)))[0]
        for v in multi_e.tolist():
            c0d: Dict[int, int] = {}
            c1d: Dict[int, int] = {}
            bad_v = False
            for s in range(int(indptr[v]), int(indptr[v + 1])):
                if out_o[s]:
                    store = c0d
                elif in_o[s]:
                    store = c1d
                else:
                    continue
                i_, j_ = int(ival[s]), int(jval[s])
                if i_ in store and store[i_] != j_:
                    bad_v = True
                    break
                store[i_] = j_
            if not bad_v and set(c0d) & set(c1d):
                bad_v = True
            if bad_v:
                reject[v] = True
                continue
            p_v, p2_v = int(p[v]), int(p2[v])
            rq0v, rq1v = int(rq0[v]), int(rq1[v])
            acc0 = 1
            for i_, j_ in c0d.items():
                acc0 = acc0 * (((i_ - 1) * p_v + j_ - rq0v) % p2_v) % p2_v
            acc1 = 1
            for i_, j_ in c1d.items():
                acc1 = acc1 * (((i_ - 1) * p_v + j_ - rq1v) % p2_v) % p2_v
            ca0[v] = acc0
            ca1[v] = acc1
        bad |= lo & (mult == MISSING)
        phi_prev = np.where(idx == 1, 1, pfx1[left_nb])
        bad |= lo & (idx > 1) & (phi_prev == MISSING)
        term_rq = np.where(x1b == 1, rq1, rq0)
        tbase = ((idx - 1) * p + phi_prev - term_rq) % p2
        term = pow_mod(np, tbase, mult, p2, index_width)
        cb1 = np.where(lo & (x1b == 1), term, 1)
        cb0 = np.where(lo & (x1b != 1), term, 1)
        ra0, ra1 = a0c[right_nb], a1c[right_nb]
        rb0, rb1 = b0c[right_nb], b1c[right_nb]
        bad |= sbr & (
            (ra0 == MISSING) | (ra1 == MISSING) | (rb0 == MISSING) | (rb1 == MISSING)
        )
        na0 = np.where(sbr, ra0, 1)
        na1 = np.where(sbr, ra1, 1)
        nb0 = np.where(sbr, rb0, 1)
        nb1 = np.where(sbr, rb1, 1)
        bad |= (a0c != na0 * ca0 % p2) | (a1c != na1 * ca1 % p2)
        bad |= (b0c != nb0 * cb0 % p2) | (b1c != nb1 * cb1 % p2)
        bad |= (idx == 1) & ((a0c != b0c) | (a1c != b1c))
        reject |= multi & bad

        # ---- 5. nesting verification ----
        own_name = (coins0 >> stv_bits) & name_mask
        reject |= (above == MISSING) | (hl == MISSING) | (hr == MISSING)
        nbad = io & (
            (ltail == MISSING) | (lhead == MISSING) | (name_t == MISSING)
            | (name_h == MISSING) | (succ == MISSING)
        )
        reject |= seg_any(np, nbad, slot_node, n)
        reject |= seg_any(
            np, is_out & (name_t != own_name[slot_node]), slot_node, n
        )
        reject |= seg_any(
            np, is_in & (name_h != own_name[slot_node]), slot_node, n
        )
        name = (name_t << w_s) | name_h
        cr = seg_count(np, is_out, slot_node, n)
        cl = seg_count(np, is_in, slot_node, n)
        reject |= ~has_right & (cr > 0)
        reject |= ~has_left & (cl > 0)
        reject |= (hl == 1) != (cl > 0)
        reject |= (hr == 1) != (cr > 0)
        # a single entry must be the longest mark and close the chain;
        # longer chains run the scalar ordering search per node below
        one_r = cr == 1
        one_l = cl == 1
        reject |= one_r & (seg_pick(np, is_out, slot_node, ltail, n) != 1)
        reject |= one_l & (seg_pick(np, is_in, slot_node, lhead, n) != 1)
        r_above = np.where(has_right, above[right_nb], MISSING)
        l_above = np.where(has_left, above[left_nb], MISSING)
        reject |= one_r & (
            (r_above == MISSING)
            | (seg_pick(np, is_out, slot_node, name, n) != r_above)
            | (seg_pick(np, is_out, slot_node, succ, n) != above)
        )
        reject |= one_l & (
            (l_above == MISSING)
            | (seg_pick(np, is_in, slot_node, name, n) != l_above)
            | (seg_pick(np, is_in, slot_node, succ, n) != above)
        )
        # no right edges, but a right path neighbor: the above values
        # agree unless an edge ends exactly at the neighbor (its has_left)
        r_hl = np.where(has_right, hl[right_nb], MISSING)
        m0 = (cr == 0) & has_right
        reject |= m0 & (r_hl == MISSING)
        reject |= m0 & (r_hl == 0) & ((r_above == MISSING) | (r_above != above))
        # nodes with several nesting entries on a side: run the scalar
        # mark counts + recursive chain search over just those nodes
        # (entries gathered in ascending port order, matching the search
        # budget of the per-view checker)
        multi_n = np.nonzero((cr > 1) | (cl > 1))[0]
        for v in multi_n.tolist():
            own_ab = int(above[v])
            for flag_idx, count, smask, start in (
                (0, int(cr[v]), is_out, int(r_above[v])),
                (1, int(cl[v]), is_in, int(l_above[v])),
            ):
                if count <= 1:
                    continue
                entries = [
                    (int(name[s]), int(succ[s]), bool(ltail[s]), bool(lhead[s]))
                    for s in range(int(indptr[v]), int(indptr[v + 1]))
                    if smask[s]
                ]
                marks = 2 if flag_idx == 0 else 3
                other = 3 if flag_idx == 0 else 2
                if sum(1 for e in entries if e[marks]) != 1:
                    reject[v] = True
                elif any(not e[marks] and not e[other] for e in entries):
                    reject[v] = True
                elif start == MISSING or not chain_search(
                    entries, start, own_ab, flag_idx, NONE
                ):
                    reject[v] = True

        return ~reject, fallback

    return kernel
