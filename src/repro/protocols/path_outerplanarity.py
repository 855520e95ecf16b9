"""Section 5: path-outerplanarity in 5 rounds, O(log log n) bits (Thm 1.2).

Three stages run in parallel inside the same 5 interaction rounds:

*Committing to a path* (rounds 1-3).  The prover commits to a Hamiltonian
path P via the Lemma-2.3 forest encoding (rooted at the left end), and
proves it spans via the Lemma-2.5 spanning-tree verification amplified by
``t`` parallel repetitions.  Each node additionally checks it has at most
one child (a path, not a tree).

*LR-sorting* (rounds 1-5).  The prover orients every non-path edge: the
edge's 1-bit ``fwd`` flag means "the accountable endpoint (the child in
the lowest forest of the Lemma-2.4 arboricity partition that covers the
edge) precedes the other endpoint".  The Section-4 LR-sorting machinery
then certifies that all claimed orientations point left-to-right; its
block structure is laid over the *committed* path, so block leaders are
the nodes whose round-1 label says ``idx == 1`` (coin widths in verifier
rounds legally depend on earlier prover rounds).

*Nesting verification* (rounds 1-3).  Every non-path edge is marked as
longest-tail-right / longest-head-left; every node draws a random name
fragment s_v; the prover assigns each edge its name (s_tail, s_head), its
successor's name, and every node the name of the innermost edge strictly
above it.  The local conditions (1)-(5) of Section 5 then pin the whole
nesting structure, rejecting any crossing pair w.h.p.

Everything is in the node-label-only model: edge labels ride on their
accountable endpoints (Lemma 2.4), and the transcript's proof size counts
the folded node labels.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.labels import EMPTY_LABEL, BitString, Label, uint_width
from ..core.network import Edge, Graph, norm_edge
from ..core.protocol import DecodeCache, DIPProtocol, Interaction, ProtocolError
from ..core.transcript import RunResult
from ..core.views import NodeView
from ..graphs.outerplanar import find_path_outerplanar_witness
from ..graphs.spanning import bfs_spanning_tree, hamiltonian_path_forest, RootedForest
from ..primitives.edge_labels import EdgeLabelSimulation, N_FORESTS
from ..primitives.forest_encoding import (
    DecodedForestView,
    decode_forest_fields,
    forest_encoding_labels,
    forest_label_fields,
)
from ..core.columnar import make_po_kernel
from ..primitives.spanning_tree_verification import (
    STV_ELEM_BITS,
    STV_FIELD,
    honest_round3_labels as stv_round3,
    check_node_fields as stv_check_fields,
    stv_label_fields,
)
from .instances import PathOuterplanarInstance
from .lr_sorting import (
    IN,
    OUT,
    PATH_LEFT,
    PATH_RIGHT,
    HonestLRSortingProver,
    LRNodeSlice,
    LRParams,
    lr_check_node,
)


class _LRShim:
    """Duck-typed LRSortingInstance over a *claimed* (possibly fake) path."""

    def __init__(self, graph: Graph, path: List[int], orientation):
        self.graph = graph
        self.path = path
        self.orientation = orientation

    def position(self):
        return {v: i for i, v in enumerate(self.path)}


class PathOuterplanarityParams:
    """Derived sizes shared by prover and verifier."""

    def __init__(self, n: int, c: int = 2):
        self.n = n
        self.c = c
        self.lr = LRParams(n, c)
        #: STV parallel repetitions (soundness (1/17)^t)
        self.t = max(2, uint_width(self.lr.L))
        #: random-name width (soundness ~ deg^2 / 2^w per node)
        self.w = max(4, c * uint_width(self.lr.L))
        self.stv_bits = self.t * STV_ELEM_BITS
        #: precomputed coin-slicing constants (hot in every node check)
        self.stv_mask = (1 << self.stv_bits) - 1
        self.name_mask = (1 << self.w) - 1
        self.lr_shift = self.stv_bits + self.w

    @property
    def name_width(self) -> int:
        return self.w

    def lr_coin2(self, raw: int, width: int) -> Tuple[int, int]:
        """Strip the STV + name prefix off a node's round-2 coins."""
        shift = self.lr_shift
        return raw >> shift, max(0, width - shift)


# ---------------------------------------------------------------------------
# prover
# ---------------------------------------------------------------------------


class PathOuterplanarityProver:
    """Base class; adversaries override the witness or label hooks."""

    def __init__(self, instance: PathOuterplanarInstance):
        self.instance = instance
        self.params: Optional[PathOuterplanarityParams] = None
        self.sim: Optional[EdgeLabelSimulation] = None

    def bind(self, params, sim) -> "PathOuterplanarityProver":
        self.params = params
        self.sim = sim
        return self

    def claimed_path(self) -> Optional[List[int]]:
        raise NotImplementedError

    def round1(self):
        raise NotImplementedError

    def round3(self, coins):
        raise NotImplementedError

    def round5(self, coins):
        raise NotImplementedError


class HonestPathOuterplanarityProver(PathOuterplanarityProver):
    """Honest prover; degrades gracefully on no-instances (best effort)."""

    def claimed_path(self) -> Optional[List[int]]:
        if self.instance.witness_path is not None:
            return list(self.instance.witness_path)
        return find_path_outerplanar_witness(self.instance.graph)

    # -- setup -------------------------------------------------------------

    def _setup(self):
        g = self.instance.graph
        path = self.claimed_path()
        if path is not None and len(path) == g.n:
            self.path = path
            self.commit_forest = hamiltonian_path_forest(path, g.n)
        else:
            # fallback: commit a BFS tree; the <=1-child check rejects it
            self.commit_forest = bfs_spanning_tree(g, 0)
            order = [0]
            kids = self.commit_forest.children_map()
            stack = list(reversed(kids[0]))
            while stack:
                v = stack.pop()
                order.append(v)
                stack.extend(reversed(kids[v]))
            self.path = order
        self.pos = {v: i for i, v in enumerate(self.path)}
        path_pairs = {
            norm_edge(self.path[i], self.path[i + 1])
            for i in range(len(self.path) - 1)
        }
        all_edges = g.edge_set()
        self.path_edges = {e for e in path_pairs if e in all_edges}
        self.non_path = [e for e in g.edges() if e not in self.path_edges]
        self.orientation: Dict[Edge, Tuple[int, int]] = {}
        for u, v in self.non_path:
            t, h = (u, v) if self.pos[u] < self.pos[v] else (v, u)
            self.orientation[(u, v)] = (t, h)
        self.lr_prover = HonestLRSortingProver(
            _LRShim(g, self.path, self.orientation)
        ).bind(self.params.lr)
        self._setup_nesting()

    def _setup_nesting(self):
        """Successor edges, above(), and longest marks under the claim."""
        pos = self.pos
        intervals = {
            e: (pos[t], pos[h]) for e, (t, h) in self.orientation.items()
        }
        self.longest_tail: Dict[Edge, bool] = {}
        self.longest_head: Dict[Edge, bool] = {}
        by_tail: Dict[int, List[Edge]] = {}
        by_head: Dict[int, List[Edge]] = {}
        for e, (t, h) in self.orientation.items():
            by_tail.setdefault(t, []).append(e)
            by_head.setdefault(h, []).append(e)
        for t, edges in by_tail.items():
            best = max(edges, key=lambda e: intervals[e][1])
            for e in edges:
                self.longest_tail[e] = e == best
        for h, edges in by_head.items():
            best = min(edges, key=lambda e: intervals[e][0])
            for e in edges:
                self.longest_head[e] = e == best
        # successor: innermost properly-containing interval.  A stack sweep
        # over the sorted intervals is exact on laminar (yes-instance)
        # data and produces well-formed best-effort values otherwise.
        items = sorted(intervals.items(), key=lambda kv: (kv[1][0], -kv[1][1]))
        self.successor: Dict[Edge, Optional[Edge]] = {}
        stack: List[Tuple[Edge, Tuple[int, int]]] = []
        for e, (a, b) in items:
            while stack and stack[-1][1][1] < b:
                stack.pop()
            self.successor[e] = stack[-1][0] if stack else None
            stack.append((e, (a, b)))
        # above(w): innermost edge strictly spanning position of w, by a
        # left-to-right sweep over positions
        self.above: Dict[int, Optional[Edge]] = {}
        starts: Dict[int, List[Tuple[Edge, Tuple[int, int]]]] = {}
        for e, (a, b) in items:
            starts.setdefault(a, []).append((e, (a, b)))
        stack = []
        for q, v in enumerate(self.path):
            while stack and stack[-1][1][1] <= q:
                stack.pop()
            self.above[v] = stack[-1][0] if stack else None
            for item in starts.get(q, ()):  # outermost first (sorted above)
                stack.append(item)

    # -- rounds --------------------------------------------------------------

    def round1(self):
        self._setup()
        pm = self.params
        g = self.instance.graph
        commit_labels = _safe_forest_encoding(g, self.commit_forest)
        lr_nodes, lr_edges = self.lr_prover.round1()
        node_fields = {
            v: {"commit": commit_labels[v], "lr": lr_nodes.get(v, {})}
            for v in g.nodes()
        }
        edge_fields: Dict[Edge, dict] = {}
        for e in self.non_path:
            t, h = self.orientation[e]
            accountable = self._accountable(e)
            fields = dict(lr_edges.get(e, {"inner": True}))
            fields["fwd"] = accountable == t
            fields["ltail"] = self.longest_tail[e]
            fields["lhead"] = self.longest_head[e]
            edge_fields[e] = fields
        return node_fields, edge_fields

    def _accountable(self, e: Edge) -> int:
        if self.sim is not None and norm_edge(*e) in self.sim.assignment:
            return self.sim.assignment[norm_edge(*e)][1]
        return e[0]

    def round3(self, coins):
        pm = self.params
        g = self.instance.graph
        # STV sums over the committed structure
        stv_coins = {
            v: BitString(coins[v].value & ((1 << pm.stv_bits) - 1), pm.stv_bits)
            for v in g.nodes()
        }
        stv_labels = stv_round3(g, self.commit_forest, stv_coins, pm.t)
        # node names drawn by the verifier
        names = {
            v: (coins[v].value >> pm.stv_bits) & ((1 << pm.w) - 1)
            for v in g.nodes()
        }
        self.names = names
        # LR sub-round with re-based coins
        lr_coins = {
            v: BitString(*pm.lr_coin2(coins[v].value, coins[v].width))
            for v in g.nodes()
        }
        lr_nodes, lr_edges = self.lr_prover.round3(lr_coins)

        def edge_name(e: Optional[Edge]) -> Optional[int]:
            if e is None:
                return None
            t, h = self.orientation[e]
            return (names[t] << pm.w) | names[h]

        has_left = {v: False for v in g.nodes()}
        has_right = {v: False for v in g.nodes()}
        for e, (t, h) in self.orientation.items():
            has_right[t] = True
            has_left[h] = True
        node_fields = {}
        for v in g.nodes():
            node_fields[v] = {
                "stv": stv_labels[v],
                "lr": lr_nodes.get(v, {}),
                "nest": {
                    "above": edge_name(self.above[v]),
                    "has_left": has_left[v],
                    "has_right": has_right[v],
                },
            }
        edge_fields = {}
        for e in self.non_path:
            t, h = self.orientation[e]
            fields = dict(lr_edges.get(e, {}))
            fields["name_t"] = names[t]
            fields["name_h"] = names[h]
            fields["succ"] = edge_name(self.successor[e])
            edge_fields[e] = fields
        return node_fields, edge_fields

    def round5(self, coins):
        lr_nodes = self.lr_prover.round5(coins)
        return {v: {"lr": f} for v, f in lr_nodes.items()}


def _safe_forest_encoding(graph: Graph, forest: RootedForest) -> Dict[int, Label]:
    """Forest encoding that degrades to empty labels if coloring overflows
    (can only happen on non-planar no-instances; empty labels reject)."""
    try:
        return forest_encoding_labels(graph, forest)
    except ValueError:
        return {v: Label() for v in graph.nodes()}


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------


class PathOuterplanarityProtocol(DIPProtocol):
    """Theorem 1.2."""

    name = "path-outerplanarity"
    designed_rounds = 5

    def __init__(self, c: int = 2):
        self.c = c

    def honest_prover(self, instance) -> PathOuterplanarityProver:
        return HonestPathOuterplanarityProver(instance)

    # -- label formats -------------------------------------------------------

    def _r1_node(self, pm, fields) -> Label:
        commit = fields.get("commit")
        if not isinstance(commit, Label):
            commit = Label()
        lr = self._lr_r1_node(pm, fields.get("lr") or {})
        if lr is None:
            lr = Label()
        return Label._trusted(
            {
                "commit": ("label", commit, commit._size),
                "lr": ("label", lr, lr._size),
            },
            commit._size + lr._size,
        )

    def _lr_r1_node(self, pm, f) -> Optional[Label]:
        if not f:
            return None
        iw = pm.lr.index_width
        idx = f["idx"]
        if idx < 0 or idx.bit_length() > iw:
            raise ValueError(f"idx={idx} does not fit in {iw} bits")
        fields = {"idx": ("uint", idx, iw)}
        size = iw
        if pm.lr.n_blocks > 1:
            for key, width in (("x1bit", 1), ("x2bit", 1), ("side", 2)):
                value = f.get(key, 0)
                if value < 0 or value.bit_length() > width:
                    raise ValueError(f"{key}={value} does not fit in {width} bits")
                fields[key] = ("uint", value, width)
                size += width
            if "M" in f:
                m = f["M"]
                if m < 0 or m.bit_length() > iw:
                    raise ValueError(f"M={m} does not fit in {iw} bits")
                fields["M"] = ("uint", m, iw)
                size += iw
        return Label._trusted(fields, size)

    def _r1_edge(self, pm, f) -> Label:
        inner = bool(f.get("inner", True))
        fields = {"inner": ("flag", inner, 1)}
        size = 1
        if not inner:
            iw = pm.lr.index_width
            i_val = f["I"]
            if i_val < 0 or i_val.bit_length() > iw:
                raise ValueError(f"I={i_val} does not fit in {iw} bits")
            fields["I"] = ("uint", i_val, iw)
            size += iw
        fields["fwd"] = ("flag", bool(f.get("fwd", False)), 1)
        fields["ltail"] = ("flag", bool(f.get("ltail", False)), 1)
        fields["lhead"] = ("flag", bool(f.get("lhead", False)), 1)
        return Label._trusted(fields, size + 3)

    _R3_MULTI_KEYS = ("r", "rp", "pfx2_r", "sfx1_r", "pfx1_rp")

    def _r3_node(self, pm, f) -> Label:
        plr = pm.lr
        stv = f.get("stv")
        if not isinstance(stv, Label):
            stv = Label()
        lr = f.get("lr") or {}
        if lr:
            p, ew = plr.p, plr.fw
            keys = ("rb",) + self._R3_MULTI_KEYS if plr.n_blocks > 1 else ("rb",)
            lf = {}
            for key in keys:
                value = lr[key]
                if not 0 <= value < p:
                    raise ValueError(f"{key}={value} is not an element of F_{p}")
                lf[key] = ("felem", value, ew)
            lr_lbl = Label._trusted(lf, ew * len(lf))
        else:
            lr_lbl = Label()
        nest = f.get("nest") or {}
        above = nest.get("above")
        if above is None:
            af = ("maybe", None, 1)
        else:
            above = int(above)
            w2 = 2 * pm.w
            if above < 0 or above.bit_length() > w2:
                raise ValueError(f"above={above} does not fit in {w2} bits")
            af = ("maybe", above, 1 + w2)
        nest_lbl = Label._trusted(
            {
                "above": af,
                "has_left": ("flag", bool(nest.get("has_left", False)), 1),
                "has_right": ("flag", bool(nest.get("has_right", False)), 1),
            },
            af[2] + 2,
        )
        return Label._trusted(
            {
                "stv": ("label", stv, stv._size),
                "lr": ("label", lr_lbl, lr_lbl._size),
                "nest": ("label", nest_lbl, nest_lbl._size),
            },
            stv._size + lr_lbl._size + nest_lbl._size,
        )

    def _r3_edge(self, pm, f) -> Label:
        plr = pm.lr
        w = pm.w
        fields = {}
        size = 0
        if "jval" in f:
            jval = f["jval"]
            if not 0 <= jval < plr.p:
                raise ValueError(f"jval={jval} is not an element of F_{plr.p}")
            fields["jval"] = ("felem", jval, plr.fw)
            size += plr.fw
        for key in ("name_t", "name_h"):
            value = f[key]
            if value < 0 or value.bit_length() > w:
                raise ValueError(f"{key}={value} does not fit in {w} bits")
            fields[key] = ("uint", value, w)
            size += w
        succ = f.get("succ")
        if succ is None:
            fields["succ"] = ("maybe", None, 1)
            size += 1
        else:
            succ = int(succ)
            w2 = 2 * w
            if succ < 0 or succ.bit_length() > w2:
                raise ValueError(f"succ={succ} does not fit in {w2} bits")
            fields["succ"] = ("maybe", succ, 1 + w2)
            size += 1 + w2
        return Label._trusted(fields, size)

    def _r5_node(self, pm, f) -> Label:
        lr = f.get("lr") or {}
        if lr:
            p2, ew2 = pm.lr.p2, pm.lr.fw2
            lf = {}
            for key in ("rq0", "rq1", "A0", "A1", "B0", "B1"):
                value = lr[key]
                if not 0 <= value < p2:
                    raise ValueError(f"{key}={value} is not an element of F_{p2}")
                lf[key] = ("felem", value, ew2)
            lr_lbl = Label._trusted(lf, 6 * ew2)
        else:
            lr_lbl = Label()
        return Label._trusted({"lr": ("label", lr_lbl, lr_lbl._size)}, lr_lbl._size)

    # -- execution -------------------------------------------------------------

    def execute(self, instance, prover=None, rng=None) -> RunResult:
        g = instance.graph
        pm = PathOuterplanarityParams(g.n, self.c)
        sim = _safe_simulation(g)
        prover = (prover or self.honest_prover(instance)).bind(pm, sim)
        interaction = Interaction(g, rng)

        emitted_setup = [False]

        def emit(node_labels, edge_labels):
            if sim is not None:
                folded = sim.fold_round(
                    {norm_edge(*e): l for e, l in edge_labels.items()
                     if norm_edge(*e) in sim.assignment}
                )
                setup = None
                if not emitted_setup[0]:
                    setup = sim.setup_labels()
                    emitted_setup[0] = True
                merged = {}
                for v in g.nodes():
                    node = node_labels.get(v)
                    if node is None:
                        node = EMPTY_LABEL
                    edges = folded[v]
                    fields = {
                        "node": ("label", node, node._size),
                        "edges": ("label", edges, edges._size),
                    }
                    size = node._size + edges._size
                    if setup is not None:
                        forests = setup[v]
                        fields["forests"] = ("label", forests, forests._size)
                        size += forests._size
                    merged[v] = Label._trusted(fields, size)
                node_labels = merged
            interaction.prover_round(node_labels, edge_labels)

        # round 1
        n1, e1 = prover.round1()
        try:
            labels1 = {v: self._r1_node(pm, f) for v, f in n1.items()}
            elabels1 = {e: self._r1_edge(pm, f) for e, f in e1.items()}
        except (ValueError, KeyError) as exc:
            raise ProtocolError(f"malformed round-1 message: {exc}") from exc
        emit(labels1, elabels1)

        # round 2 coins: widths depend on round-1 claims (all local)
        widths = {}
        for v in g.nodes():
            w = pm.stv_bits + pm.w
            lr1 = labels1.get(v, EMPTY_LABEL).get("lr")
            if lr1 is not None and lr1.get("idx") == 1:
                w += pm.lr.fw
            commit = labels1.get(v, EMPTY_LABEL).get("commit")
            if commit is not None and commit.get("is_root"):
                w += 2 * pm.lr.fw
            widths[v] = w
        coins2 = interaction.verifier_round(widths)

        # round 3
        n3, e3 = prover.round3(coins2)
        try:
            labels3 = {v: self._r3_node(pm, f) for v, f in n3.items()}
            elabels3 = {e: self._r3_edge(pm, f) for e, f in e3.items()}
        except (ValueError, KeyError) as exc:
            raise ProtocolError(f"malformed round-3 message: {exc}") from exc
        emit(labels3, elabels3)

        # round 4 coins: LR session points for claimed block leaders
        widths4 = {}
        if pm.lr.n_blocks > 1:
            for v in g.nodes():
                lr1 = labels1.get(v, EMPTY_LABEL).get("lr")
                if lr1 is not None and lr1.get("idx") == 1:
                    widths4[v] = 2 * pm.lr.fw2
        coins4 = interaction.verifier_round(widths4)

        # round 5
        n5 = prover.round5(coins4) if pm.lr.n_blocks > 1 else {}
        try:
            labels5 = {v: self._r5_node(pm, f) for v, f in n5.items()}
        except (ValueError, KeyError) as exc:
            raise ProtocolError(f"malformed round-5 message: {exc}") from exc
        emit(labels5, {})

        checker = _make_checker(pm)
        return interaction.decide(
            checker,
            inputs={},
            protocol_name=self.name,
            meta={"params": pm},
            columnar=make_po_kernel(pm, STV_FIELD.p, STV_ELEM_BITS, N_FORESTS),
        )


def _safe_simulation(graph: Graph) -> Optional[EdgeLabelSimulation]:
    try:
        return EdgeLabelSimulation(graph)
    except ValueError:
        # arboricity > 3 (certainly non-planar): partial coverage -- edges
        # beyond three forests stay unaccountable, and verifiers reject them
        return _PartialSimulation(graph)


class _PartialSimulation(EdgeLabelSimulation):
    """Best-effort 3-forest cover for graphs of arboricity > 3."""

    def __init__(self, graph: Graph):
        from ..graphs.spanning import spanning_forest, forest_partition_assignment

        self.graph = graph
        remaining = graph.copy()
        forests = []
        for _ in range(N_FORESTS):
            forest = spanning_forest(remaining)
            forests.append(forest)
            for u, p in forest.parent.items():
                remaining.remove_edge(u, p)
        self.forests = forests
        self.assignment = {}
        for fi, forest in enumerate(forests):
            for child, parent in forest.parent.items():
                self.assignment[norm_edge(child, parent)] = (fi, child)


# ---------------------------------------------------------------------------
# the local decision
# ---------------------------------------------------------------------------


def _make_checker(pm: PathOuterplanarityParams):
    def check(view: NodeView) -> bool:
        return check_path_outerplanarity_node(pm, view)

    return check


def _sub(label: Label, name: str) -> Optional[Label]:
    value = label.get(name)
    return value if isinstance(value, Label) else None


def _unwrap(label: Label) -> Label:
    inner = label.get("node")
    return inner if isinstance(inner, Label) else label


# ---------------------------------------------------------------------------
# per-label extraction helpers (pure in the label object, hence memoizable
# by the decode cache: a round-transcript label is shared between its owner
# and all deg neighbors, so caching by id(label) turns deg+1 decodes into 1)
# ---------------------------------------------------------------------------

#: sentinel for an absent field / absent sub-label where None is a legal value
_MISSING = object()

_FOREST_KEYS = tuple(f"forest{i}" for i in range(N_FORESTS))


def _commit_fields(wrapped: Label):
    """Lemma-2.3 fields of the round-1 ``commit`` sub; None when the sub is
    missing or its fields are malformed (both verdicts coincide: reject)."""
    commit = _sub(_unwrap(wrapped), "commit")
    if commit is None:
        return None
    return forest_label_fields(commit)


def _forest_enc_fields(wrapped: Label):
    """Extraction of the round-1 ``forests`` setup of one node.

    None when the setup sub itself is absent.  Otherwise one entry per
    forest: the forest's field tuple, None when its encoding fields are
    malformed (that forest alone decodes to None), or ``_MISSING`` when
    the ``forest{i}`` sub is absent (the *whole* simulation decode fails,
    matching the stricter original behaviour)."""
    setup = _sub(wrapped, "forests")
    if setup is None:
        return None
    out = []
    for key in _FOREST_KEYS:
        enc = _sub(setup, key)
        out.append(_MISSING if enc is None else forest_label_fields(enc))
    return tuple(out)


def _stv_fields(wrapped: Label, t: int):
    """STV field pairs of the round-3 ``stv`` sub; None when absent."""
    stv = _sub(_unwrap(wrapped), "stv")
    if stv is None:
        return None
    return stv_label_fields(stv, t)


def _lr_fields(wrapped: Label) -> Optional[Label]:
    """The ``lr`` sub of a (possibly wrapped) round label."""
    return _sub(_unwrap(wrapped), "lr")


def _nest_fields(wrapped: Label):
    """``(above, has_left, has_right)`` of the round-3 ``nest`` sub.

    None when the sub is absent; ``_MISSING`` marks individual absent
    fields ("above" may legitimately hold None, so absence needs a
    sentinel)."""
    nest = _sub(_unwrap(wrapped), "nest")
    if nest is None:
        return None
    get = nest.get
    return (
        get("above", _MISSING),
        get("has_left", _MISSING),
        get("has_right", _MISSING),
    )


def _e1_nest_fields(label: Label):
    """``(ltail, lhead)`` of a round-1 edge label; ``_MISSING`` if absent."""
    get = label.get
    return (get("ltail", _MISSING), get("lhead", _MISSING))


def _e3_nest_fields(label: Label):
    """``(name_t, name_h, succ)`` of a round-3 edge label."""
    get = label.get
    return (get("name_t", _MISSING), get("name_h", _MISSING), get("succ", _MISSING))


def check_path_outerplanarity_node(  # noqa: C901
    pm: PathOuterplanarityParams, view: NodeView
) -> bool:
    if pm.n == 1:
        return True
    # One decode cache per decide sweep (set on the view by
    # Interaction.decide); with the cache disabled each node gets a private
    # empty cache, which reproduces the uncached decode behaviour exactly.
    cache = view.decode_cache
    if cache is None:
        cache = DecodeCache()
    m_commit = cache.sub("po_commit")
    m_stv = cache.sub(f"po_stv{pm.t}")

    own1 = view.own_labels[0]
    own3 = view.own_labels[1]
    own5 = view.own_labels[2]
    nbr1 = view.neighbor_labels[0]
    nbr3 = view.neighbor_labels[1]
    nbr5 = view.neighbor_labels[2]

    # ---- 1. decode the committed path ----
    # raw memo-dict lookups (uncounted; see the lr_* kinds): _MISSING
    # memoizes a malformed decode, since None is not a stable dict value
    # to test against here
    k = id(own1)
    commit = m_commit.get(k)
    if commit is None:
        commit = m_commit[k] = _commit_fields(own1) or _MISSING
    if commit is _MISSING:
        return False
    nbr_commits = []
    for lbl in nbr1:
        k = id(lbl)
        c = m_commit.get(k)
        if c is None:
            c = m_commit[k] = _commit_fields(lbl) or _MISSING
        if c is _MISSING:
            return False
        nbr_commits.append(c)
    decoded = decode_forest_fields(commit, nbr_commits)
    if decoded is None or len(decoded.children_ports) > 1:
        return False
    left_port = decoded.parent_port
    right_port = decoded.children_ports[0] if decoded.children_ports else None

    # ---- 2. spanning-tree verification of the commitment ----
    t_reps = pm.t
    k = id(own3)
    stv_own = m_stv.get(k)
    if stv_own is None:
        stv_own = m_stv[k] = _stv_fields(own3, t_reps) or _MISSING
    if stv_own is _MISSING:
        return False
    stv_neighbors = []
    for lbl in nbr3:
        k = id(lbl)
        s = m_stv.get(k)
        if s is None:
            s = m_stv[k] = _stv_fields(lbl, t_reps) or _MISSING
        if s is _MISSING:
            return False
        stv_neighbors.append(s)
    stv_coins = view.coins[0].value & pm.stv_mask
    if not stv_check_fields(decoded, stv_coins, stv_own, stv_neighbors, pm.t):
        return False

    # ---- 3. derive port kinds (path + claimed orientations) ----
    # the forest decode is only consulted for non-path ports, so defer it:
    # path-internal nodes (the common case) never pay for it
    forest_views: object = _MISSING
    kinds: List[str] = []
    edge1 = view.edge_labels[0]
    for port in range(view.degree):
        if port == left_port:
            kinds.append(PATH_LEFT)
            continue
        if port == right_port:
            kinds.append(PATH_RIGHT)
            continue
        e1 = edge1[port]
        fwd = e1.get("fwd", _MISSING)
        if fwd is _MISSING:
            return False
        if forest_views is _MISSING:
            forest_views = _decode_simulation_forests(view, cache, own1, nbr1)
        accountable_is_me = _is_accountable(forest_views, port)
        if accountable_is_me is None:
            return False  # edge not covered by the arboricity partition
        i_am_tail = (fwd and accountable_is_me) or (not fwd and not accountable_is_me)
        kinds.append(OUT if i_am_tail else IN)

    # ---- 4. the LR-sorting stage over the committed path ----
    # Raw memo-dict access (uncounted, like the lr_* kinds inside
    # lr_check_node): these are the most frequent reads of the sweep.  A
    # missing/non-Label ``lr`` sub is memoized as EMPTY_LABEL -- the
    # EMPTY_LABEL object itself can never be a transcript sub-label, so
    # the identity test below is equivalent to the None check.
    m_lr = cache.sub("po_lr")

    def flr(lbl: Label, _m=m_lr):
        k = id(lbl)
        t = _m.get(k)
        if t is None:
            t = _m[k] = _lr_fields(lbl) or EMPTY_LABEL
        return t

    lr1 = flr(own1)
    lr3 = flr(own3)
    lr5 = flr(own5)
    if lr1 is EMPTY_LABEL or lr3 is EMPTY_LABEL:
        return False
    if pm.lr.n_blocks > 1 and lr5 is EMPTY_LABEL:
        return False
    lr_nbrs = [
        [flr(l) for l in nbr1],
        [flr(l) for l in nbr3],
        [flr(l) for l in nbr5],
    ]
    coin2 = view.coins[0].value >> pm.lr_shift
    slice_ = LRNodeSlice(
        tuple(kinds),
        [lr1, lr3, lr5],
        lr_nbrs,
        view.edge_labels,
        coin2,
        view.coins[1].value,
        view.decode_cache,
    )
    if not lr_check_node(pm.lr, slice_):
        return False

    # ---- 5. nesting verification ----
    return _check_nesting(pm, view, kinds, left_port, right_port, cache)


def _decode_simulation_forests(view: NodeView, cache, own1: Label, nbr1):
    """Decode the Lemma-2.4 forest encodings from the round-1 setup."""
    cget = cache.get
    memo = cache.sub("po_forests")
    setup = cget(memo, id(own1), _forest_enc_fields, own1)
    if setup is None:
        return None
    nbr_setups = []
    for lbl in nbr1:
        s = cget(memo, id(lbl), _forest_enc_fields, lbl)
        if s is None:
            return None
        nbr_setups.append(s)
    out = []
    for i in range(N_FORESTS):
        own_enc = setup[i]
        if own_enc is _MISSING:
            return None
        bad = own_enc is None
        encs = []
        for s in nbr_setups:
            e = s[i]
            if e is _MISSING:
                return None
            if e is None:
                bad = True
            encs.append(e)
        out.append(None if bad else decode_forest_fields(own_enc, encs))
    return out


def _is_accountable(forest_views, port: int) -> Optional[bool]:
    """True if this node is the accountable (child) endpoint of the edge
    behind ``port``; None if no forest covers the edge."""
    if forest_views is None:
        return None
    for fv in forest_views:
        if fv is None:
            continue
        if fv.parent_port == port:
            return True
        if port in fv.children_ports:
            return False
    return None


def _check_nesting(  # noqa: C901
    pm: PathOuterplanarityParams,
    view: NodeView,
    kinds: Sequence[str],
    left_port: Optional[int],
    right_port: Optional[int],
    cache: DecodeCache,
) -> bool:
    w = pm.w
    own_name = (view.coins[0].value >> pm.stv_bits) & pm.name_mask
    cget = cache.get
    m_nest = cache.sub("po_nest")
    nbr3 = view.neighbor_labels[1]

    def nest_of(port: int):
        lbl = nbr3[port]
        return cget(m_nest, id(lbl), _nest_fields, lbl)

    def above_of(port: Optional[int]):
        """above() of a neighbor node; 'missing' on malformed labels."""
        if port is None:
            return "missing"
        info = nest_of(port)
        if info is None or info[0] is _MISSING:
            return "missing"
        return info[0]

    own3 = view.own_labels[1]
    own_info = cget(m_nest, id(own3), _nest_fields, own3)
    if own_info is None:
        return False
    own_above, own_has_left, own_has_right = own_info
    if own_above is _MISSING or own_has_left is _MISSING or own_has_right is _MISSING:
        return False

    rights: List[Tuple[int, Optional[int], bool, bool]] = []
    lefts: List[Tuple[int, Optional[int], bool, bool]] = []
    edge1 = view.edge_labels[0]
    edge3 = view.edge_labels[1]
    # edge labels are shared by both endpoints: memoize their extracted
    # nesting fields so each edge is read once per sweep (raw, uncounted)
    m_e1 = cache.sub("po_e1")
    m_e3 = cache.sub("po_e3")
    for port, kind in enumerate(kinds):
        if kind not in (OUT, IN):
            continue
        e1 = edge1[port]
        k1 = id(e1)
        t1 = m_e1.get(k1)
        if t1 is None:
            t1 = m_e1[k1] = _e1_nest_fields(e1)
        ltail, lhead = t1
        if ltail is _MISSING or lhead is _MISSING:
            return False
        e3 = edge3[port]
        k3 = id(e3)
        t3 = m_e3.get(k3)
        if t3 is None:
            t3 = m_e3[k3] = _e3_nest_fields(e3)
        name_t, name_h, succ = t3
        if name_t is _MISSING or name_h is _MISSING or succ is _MISSING:
            return False
        name = (name_t << w) | name_h
        # own coin must appear on the right side of the name
        if kind == OUT and name_t != own_name:
            return False
        if kind == IN and name_h != own_name:
            return False
        entry = (name, succ, bool(ltail), bool(lhead))
        (rights if kind == OUT else lefts).append(entry)

    # endpoints of the path cannot have edges beyond them
    if right_port is None and rights:
        return False
    if left_port is None and lefts:
        return False
    # the advertised has_left / has_right bits must be truthful
    if own_has_left != bool(lefts) or own_has_right != bool(rights):
        return False
    # exactly one longest mark per side; unmarked edges marked on the other end
    if rights:
        if sum(1 for e in rights if e[2]) != 1:
            return False
        if any(not e[2] and not e[3] for e in rights):
            return False
    if lefts:
        if sum(1 for e in lefts if e[3]) != 1:
            return False
        if any(not e[3] and not e[2] for e in lefts):
            return False

    # chain conditions (2)-(5)
    def chain_ok(entries, start_above, longest_flag_index) -> bool:
        """Is there an ordering e1..ek with name(e1)=start_above,
        succ(e_i)=name(e_{i+1}), e_k longest-marked, succ(e_k)=own_above?"""
        if start_above == "missing":
            return False
        k = len(entries)
        used = [False] * k
        budget = [4096]

        def rec(expected, count) -> bool:
            if budget[0] <= 0:
                return False
            budget[0] -= 1
            if count == k:
                return True
            for i in range(k):
                if used[i] or entries[i][0] != expected:
                    continue
                is_last = count + 1 == k
                marked = entries[i][2] if longest_flag_index == 0 else entries[i][3]
                if is_last:
                    if not marked or entries[i][1] != own_above:
                        continue
                else:
                    if marked or entries[i][1] is None:
                        continue
                used[i] = True
                nxt = entries[i][1] if not is_last else None
                if rec(nxt, count + 1):
                    used[i] = False
                    return True
                used[i] = False
            return False

        return rec(start_above, 0)

    # right-side consistency toward the right path neighbor (condition 4):
    # with right edges, the chain starts at above(u); without, the above
    # values must agree unless an edge ends exactly at u (u.has_left, in
    # which case u's own condition-5 check covers the boundary)
    if rights:
        if not chain_ok(rights, above_of(right_port), 0):
            return False
    elif right_port is not None:
        u_info = nest_of(right_port)
        if u_info is None or u_info[1] is _MISSING:
            return False
        if not u_info[1]:
            if above_of(right_port) == "missing" or above_of(right_port) != own_above:
                return False
    # left-side consistency (condition 5): the chain of left edges starts
    # at above(w) of the left path neighbor
    if lefts and not chain_ok(lefts, above_of(left_port), 1):
        return False
    return True
