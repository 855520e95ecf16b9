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

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..core.labels import (
    EMPTY_LABEL,
    OMIT,
    BitString,
    Label,
    LabelFormat,
    LabelSchema,
    PackedLabel,
    read_rows,
    uint_width,
    wrapper_schema,
)
from ..core.network import Edge, Graph, norm_edge
from ..core.protocol import (
    DecideBatch,
    DIPProtocol,
    Interaction,
    PendingDecide,
    ProtocolError,
)
from ..core.transcript import RunResult
from ..core.views import NodeView
from ..graphs.outerplanar import find_path_outerplanar_witness
from ..graphs.spanning import bfs_spanning_tree, hamiltonian_path_forest, RootedForest
from ..primitives.edge_labels import FOREST_KEYS, EdgeLabelSimulation, N_FORESTS
from ..primitives.forest_encoding import (
    FOREST_FORMAT,
    ForestColumns,
    decode_forest_view,
    forest_encoding_columns,
)
from ..core.columnar import chain_search, make_po_kernel
from ..primitives.spanning_tree_verification import (
    STV_ELEM_BITS,
    STV_FIELD,
    check_node as stv_check_node,
    honest_round3_columns,
    round3_format,
)
from .instances import IN, OUT, PATH_LEFT, PATH_RIGHT, PathOuterplanarInstance
from .lr_sorting import (
    EDGE_FIELDS,
    NODE_FIELDS,
    HonestLRSortingProver,
    LRParams,
    _ABSENT,
    lr_check_node,
    lr_formats,
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


@dataclass
class RoundColumns:
    """One prover message as value columns.

    ``nodes`` maps each node sub-label to its columns (field name -> one
    value per node ``0..n-1``), or to None for a 0-bit sub-label at every
    node; ``edges`` lists the labelled edges and ``edge_columns`` holds
    their columns the same way (one value per listed edge).
    """

    nodes: Dict[str, Optional[Dict[str, list]]]
    edges: Sequence[Edge] = ()
    edge_columns: Optional[Dict[str, list]] = None


class PathOuterplanarityProver:
    """Base class; adversaries override the witness or round hooks.

    A staged run (:func:`run_staged`) calls :meth:`setup` first, encodes
    the forest it returns together with every other job's, and hands the
    encoding columns to :meth:`round1`.  Each round hook returns its
    message as :class:`RoundColumns`.
    """

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

    def setup(self) -> RootedForest:
        """Fix the claim; return the forest that round 1 commits."""
        raise NotImplementedError

    def round1(self, commit: Optional[ForestColumns]) -> RoundColumns:
        raise NotImplementedError

    def round3(self, coins) -> RoundColumns:
        raise NotImplementedError

    def round5(self, coins) -> Optional[RoundColumns]:
        raise NotImplementedError

    def release(self) -> None:
        """Drop the round state once the last round is sent."""


class HonestPathOuterplanarityProver(PathOuterplanarityProver):
    """Honest prover; degrades gracefully on no-instances (best effort)."""

    #: the per-run state :meth:`release` drops (``path`` stays: composite
    #: protocols check the committed path after the run)
    _ROUND_STATE = (
        "commit_forest", "pos", "path_edges", "non_path", "orientation",
        "lr_prover", "longest_tail", "longest_head", "successor", "above",
    )

    def claimed_path(self) -> Optional[List[int]]:
        if self.instance.witness_path is not None:
            return list(self.instance.witness_path)
        return find_path_outerplanar_witness(self.instance.graph)

    # -- setup -------------------------------------------------------------

    def setup(self) -> RootedForest:
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
        return self.commit_forest

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

    def round1(self, commit):
        lr = self.lr_prover.round1()
        edges = self.non_path  # the LR edges: orientation follows this order
        sim = self.sim
        accountable = sim.assignment if sim is not None else {}
        if commit is not None:
            commit = dict(zip(FOREST_FORMAT.names, commit))
        return RoundColumns(
            {"commit": commit, "lr": lr.nodes},
            edges,
            {
                **lr.edge_columns,
                "fwd": [
                    accountable.get(e, (0, e[0]))[1] == self.orientation[e][0]
                    for e in edges
                ],
                "ltail": [self.longest_tail[e] for e in edges],
                "lhead": [self.longest_head[e] for e in edges],
            },
        )

    def round3(self, coins):
        pm = self.params
        n = self.instance.graph.n
        raw = [coins[v].value for v in range(n)]
        # STV sums over the committed structure
        stv = honest_round3_columns(
            self.commit_forest, [c & pm.stv_mask for c in raw], pm.t
        )
        # node names drawn by the verifier
        names = [(c >> pm.stv_bits) & pm.name_mask for c in raw]
        # LR sub-round with re-based coins
        lr_coins = {
            v: BitString(*pm.lr_coin2(coins[v].value, coins[v].width))
            for v in range(n)
        }
        lr = self.lr_prover.round3(lr_coins)
        jval = dict(zip(lr.edges, lr.edge_columns.get("jval", ())))
        w = pm.w
        orientation = self.orientation

        def edge_name(e: Optional[Edge]) -> Optional[int]:
            if e is None:
                return None
            t, h = orientation[e]
            return (names[t] << w) | names[h]

        has_left = [False] * n
        has_right = [False] * n
        for t, h in orientation.values():
            has_right[t] = True
            has_left[h] = True
        edges = self.non_path
        ends = [orientation[e] for e in edges]
        return RoundColumns(
            {
                "stv": dict(zip(round3_format(pm.t).names, stv)),
                "lr": lr.nodes,
                "nest": {
                    "above": [edge_name(self.above[v]) for v in range(n)],
                    "has_left": has_left,
                    "has_right": has_right,
                },
            },
            edges,
            {
                "jval": [jval.get(e, OMIT) for e in edges],
                "name_t": [names[t] for t, _ in ends],
                "name_h": [names[h] for _, h in ends],
                "succ": [edge_name(self.successor[e]) for e in edges],
            },
        )

    def round5(self, coins):
        return RoundColumns({"lr": self.lr_prover.round5(coins).nodes})

    def release(self) -> None:
        for name in self._ROUND_STATE:
            self.__dict__.pop(name, None)


# ---------------------------------------------------------------------------
# label formats
# ---------------------------------------------------------------------------

_EMIT_KEYS = ("node", "edges")
_EMIT_SETUP_KEYS = ("node", "edges", "forests")
_EMPTY_SCHEMA = EMPTY_LABEL.pack()[0]


class _POFormats:
    """The born-packed label layouts of one parameter set, and each
    round's node sub-labels as ``(name, format)`` pairs in wire order.
    The ``lr`` sub-labels are LR sorting's node layouts."""

    def __init__(self, iw: int, multi_block: bool, p: int, p2: int, w: int, t: int):
        lr = lr_formats(iw, multi_block, p, p2)
        self.lr1, self.lr3, self.lr5 = lr.node1, lr.node3, lr.node5
        self.e1 = LabelFormat(
            (
                ("inner", "flag", None),
                ("I", "uint", iw),
                ("fwd", "flag", None),
                ("ltail", "flag", None),
                ("lhead", "flag", None),
            ),
            optional=("I",),
        )
        self.nest = LabelFormat(
            (
                ("above", "maybe", 2 * w),
                ("has_left", "flag", None),
                ("has_right", "flag", None),
            )
        )
        self.e3 = LabelFormat(
            (
                ("jval", "felem", p),
                ("name_t", "uint", w),
                ("name_h", "uint", w),
                ("succ", "maybe", 2 * w),
            ),
            optional=("jval",),
        )
        self.node1 = (("commit", FOREST_FORMAT), ("lr", self.lr1))
        self.node3 = (("stv", round3_format(t)), ("lr", self.lr3), ("nest", self.nest))
        self.node5 = (("lr", self.lr5),)


@lru_cache(maxsize=256)
def _formats(iw: int, multi_block: bool, p: int, p2: int, w: int, t: int) -> _POFormats:
    return _POFormats(iw, multi_block, p, p2, w, t)


def _po_formats(pm: "PathOuterplanarityParams") -> _POFormats:
    plr = pm.lr
    multi = plr.n_blocks > 1
    return _formats(plr.index_width, multi, plr.p, plr.p2 if multi else 0, pm.w, pm.t)


def _pack_nodes(rc: RoundColumns, node_formats) -> List[Optional[Tuple[list, list]]]:
    """Each node sub-label's ``(schemas, payloads)`` columns (None: 0-bit).

    Raises the ``ValueError`` a label-by-label pass in node order would
    hit first: the lowest failing node, and its first failing sub-label.
    """
    parts: List[Optional[Tuple[list, list]]] = []
    errors = []
    for pos, (key, fmt) in enumerate(node_formats):
        cols = rc.nodes.get(key)
        if cols is None:
            parts.append(None)
            continue
        try:
            parts.append(fmt.pack_columns([cols[name] for name in fmt.names]))
        except ValueError as exc:
            errors.append((getattr(exc, "row", -1), pos, exc))
    if errors:
        raise min(errors, key=lambda e: e[:2])[2]
    return parts


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

    # -- execution -------------------------------------------------------------

    def execute(self, instance, prover=None, rng=None) -> RunResult:
        batch = DecideBatch()
        (sim,) = batch_simulations([instance.graph])
        pending = self.start(instance, prover, rng, batch, sim)
        batch.run()
        return pending.result

    def start(self, instance, prover, rng, batch, sim) -> PendingDecide:
        """Run the five rounds alone and queue the decide sweep on ``batch``."""
        (pending,) = run_staged([self.job(instance, prover, rng, batch, sim)])
        return pending

    def job(
        self,
        instance,
        prover,
        rng: Optional[random.Random],
        batch: DecideBatch,
        sim: EdgeLabelSimulation,
    ) -> "StagedJob":
        """The five rounds on ``instance`` as a :func:`run_staged` job.

        ``sim`` is the graph's Lemma-2.4 simulation (from
        :func:`batch_simulations`); the job ends by queueing its decide
        sweep on ``batch``.
        """
        g = instance.graph
        pm = PathOuterplanarityParams(g.n, self.c)
        prover = (prover or self.honest_prover(instance)).bind(pm, sim)
        return self._rounds(pm, prover, Interaction(g, rng), batch, sim)

    def _rounds(self, pm, prover, interaction, batch, sim) -> "StagedJob":
        g = interaction.graph
        fmts = _po_formats(pm)
        commit = yield (g, prover.setup())

        # round 1
        r1 = prover.round1(commit)
        _emit(interaction, sim, 1, r1, fmts.node1, fmts.e1, sim.setup_labels())
        yield

        # round 2 coins: widths depend on round-1 claims (all local)
        lr1 = r1.nodes.get("lr")
        leaders = [i == 1 for i in lr1["idx"]] if lr1 is not None else [False] * g.n
        commit = r1.nodes.get("commit")
        roots = commit["is_root"] if commit is not None else [False] * g.n
        base = pm.stv_bits + pm.w
        fw = pm.lr.fw
        coins2 = interaction.verifier_round(
            {
                v: base + (fw if lead else 0) + (2 * fw if root else 0)
                for v, (lead, root) in enumerate(zip(leaders, roots))
            }
        )
        del r1, commit
        yield

        # round 3
        _emit(interaction, sim, 3, prover.round3(coins2), fmts.node3, fmts.e3)
        yield

        # round 4 coins: LR session points for claimed block leaders
        widths4 = {}
        if pm.lr.n_blocks > 1:
            widths4 = {v: 2 * pm.lr.fw2 for v, lead in enumerate(leaders) if lead}
        coins4 = interaction.verifier_round(widths4)
        yield

        # round 5 (LR sessions exist only with several blocks)
        r5 = prover.round5(coins4) if pm.lr.n_blocks > 1 else None
        _emit(interaction, sim, 5, r5, fmts.node5, None)
        prover.release()
        return batch.add(
            interaction,
            _make_checker(pm),
            key=("po", pm.c),
            make_kernel=partial(
                make_po_kernel,
                stv_p=STV_FIELD.p, stv_elem_bits=STV_ELEM_BITS, n_forests=N_FORESTS,
            ),
            kernel_params=pm,
            inputs={},
            protocol_name=self.name,
            meta={"params": pm},
        )


def _emit(interaction, sim, round_no, rc, node_formats, edge_format, setup=None) -> None:
    """Pack one prover message and send it, Lemma-2.4 folded.

    Every node's label is one ``(node, edges[, forests])`` wrapper built
    as one payload concatenation under one interned schema: its node
    sub-labels, the fold of the edge labels it is accountable for, and
    (round 1) its share of the setup forests.  ``rc`` None sends 0-bit
    node parts.
    """
    n = interaction.graph.n
    try:
        parts = _pack_nodes(rc, node_formats) if rc is not None else []
        edges = rc.edges if rc is not None else ()
        edge_labels = {}
        if edges:
            cols = rc.edge_columns
            e_schemas, e_payloads = edge_format.pack_columns(
                [cols[name] for name in edge_format.names]
            )
            edge_labels = {
                e: PackedLabel._from_payload(schema, payload)
                for e, schema, payload in zip(edges, e_schemas, e_payloads)
            }
            fold = sim.fold_columns(edges, e_schemas, e_payloads)
        else:
            fold = ([_EMPTY_SCHEMA] * n, [0] * n)
    except (ValueError, KeyError) as exc:
        raise ProtocolError(f"malformed round-{round_no} message: {exc}") from exc
    node_keys = tuple(key for key, _ in node_formats) if rc is not None else ()
    schema_cols = [
        part[0] if part is not None else [_EMPTY_SCHEMA] * n for part in parts
    ]
    payload_cols = [part[1] if part is not None else [0] * n for part in parts]
    schema_cols.append(fold[0])
    payload_cols.append(fold[1])
    names = _EMIT_KEYS
    if setup is not None:
        names = _EMIT_SETUP_KEYS
        schemas, payloads = zip(*(setup[v].pack() for v in range(n)))
        schema_cols.append(schemas)
        payload_cols.append(payloads)
    k = len(parts)
    # the wrapper schema of each distinct combination of sub-label schemas
    wrappers: Dict[tuple, LabelSchema] = {}
    labels = {}
    for v, (schemas, payloads) in enumerate(zip(zip(*schema_cols), zip(*payload_cols))):
        schema = wrappers.get(schemas)
        if schema is None:
            node = wrapper_schema(node_keys, schemas[:k])
            schema = wrappers[schemas] = wrapper_schema(names, (node,) + schemas[k:])
        acc = 0
        for sub, payload in zip(schemas, payloads):
            acc = (acc << sub.total_width) | payload
        labels[v] = PackedLabel._from_payload(schema, acc)
    interaction.prover_round(labels, edge_labels)


# ---------------------------------------------------------------------------
# staged execution: a host's sub-runs, round by round
# ---------------------------------------------------------------------------

#: a sub-run as a generator: its first yield is the ``(graph, forest)``
#: whose Lemma-2.3 encoding round 1 commits (it is sent that encoding's
#: columns, or None), every later yield ends one round, and it returns
#: its queued :class:`PendingDecide`
StagedJob = Generator[object, object, PendingDecide]


def run_staged(jobs: Sequence[StagedJob]) -> List[PendingDecide]:
    """Run a host's sub-runs (:meth:`PathOuterplanarityProtocol.job`,
    :meth:`SpanningTreeVerificationProtocol.job`) round by round.

    First every job fixes its claim, and all the forests their round 1
    commits are encoded in one union pass (:func:`forest_encoding_columns`).
    Then round 1 runs for every job, then round 2 for every job, and so
    on, always in job order.  Every sub-run draws its coins from its own
    ``rng``, so the schedule changes no coin, no label and no verdict;
    and the k-th message of any kind is emitted in the same order as when
    the jobs run one after another.  Returns the jobs' queued decides.
    """
    jobs = list(jobs)
    sends = forest_encoding_columns([next(job) for job in jobs])
    results: List[Optional[PendingDecide]] = [None] * len(jobs)
    live = range(len(jobs))
    while live:
        still = []
        for i in live:
            try:
                jobs[i].send(sends[i])
            except StopIteration as stop:
                results[i] = stop.value
            else:
                still.append(i)
            sends[i] = None
        live = still
    return results


def batch_simulations(graphs: Sequence[Graph]) -> List[EdgeLabelSimulation]:
    """The Lemma-2.4 simulations of ``graphs``, one union pass for all.

    The precomputation is prover-independent, so the sub-runs of one
    host execution share a single :meth:`EdgeLabelSimulation.disjoint`
    pass.  When that raises (some graph has arboricity > 3, which only
    no-instances do), every graph gets its own :func:`_safe_simulation`.
    """
    if len(graphs) > 1:
        try:
            return EdgeLabelSimulation.disjoint(graphs)
        except ValueError:
            pass
    return [_safe_simulation(g) for g in graphs]


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
        from ..graphs.spanning import peel_forests

        self.graph = graph
        self.forests, _ = peel_forests(graph, N_FORESTS)
        self.assignment = {}
        for fi, forest in enumerate(self.forests):
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


def _node_sub(label: Label, name: str) -> Optional[Label]:
    """The ``name`` node sub-label of a (possibly wrapped) round label."""
    return _sub(_unwrap(label), name)


#: sentinel for an absent field where None is a legal value
_MISSING = object()


def _lr_rows(labels: Sequence[Label], names: Tuple[str, ...]) -> list:
    """The ``names`` rows of the ``lr`` subs of (possibly wrapped) round
    labels; a missing sub reads as EMPTY_LABEL."""
    subs = [_node_sub(lbl, "lr") for lbl in labels]
    return read_rows([EMPTY_LABEL if lr is None else lr for lr in subs], names, _ABSENT)


def check_path_outerplanarity_node(
    pm: PathOuterplanarityParams, view: NodeView
) -> bool:
    if pm.n == 1:
        return True
    own1 = view.own_labels[0]
    own3 = view.own_labels[1]
    nbr1 = view.neighbor_labels[0]
    nbr3 = view.neighbor_labels[1]

    # ---- 1. decode the committed path ----
    commits = [_node_sub(lbl, "commit") for lbl in (own1, *nbr1)]
    if any(c is None for c in commits):
        return False
    decoded = decode_forest_view(commits[0], commits[1:])
    if decoded is None or len(decoded.children_ports) > 1:
        return False
    left_port = decoded.parent_port
    right_port = decoded.children_ports[0] if decoded.children_ports else None

    # ---- 2. spanning-tree verification of the commitment ----
    stvs = [_node_sub(lbl, "stv") for lbl in (own3, *nbr3)]
    if any(s is None for s in stvs):
        return False
    stv_coins = view.coins[0].value & pm.stv_mask
    if not stv_check_node(decoded, stv_coins, stvs[0], stvs[1:], pm.t):
        return False

    # ---- 3. derive port kinds (path + claimed orientations) ----
    # the forest decode is only consulted for non-path ports, so defer it:
    # path-internal nodes (the common case) never pay for it
    forest_views: object = _MISSING
    kinds: List[str] = []
    out_ports: List[int] = []
    in_ports: List[int] = []
    edge1 = view.edge_labels[0]
    for port in range(view.degree):
        if port == left_port:
            kinds.append(PATH_LEFT)
            continue
        if port == right_port:
            kinds.append(PATH_RIGHT)
            continue
        fwd = edge1[port].get("fwd", _MISSING)
        if fwd is _MISSING:
            return False
        if forest_views is _MISSING:
            forest_views = _decode_simulation_forests(own1, nbr1)
        accountable_is_me = _is_accountable(forest_views, port)
        if accountable_is_me is None:
            return False  # edge not covered by the arboricity partition
        i_am_tail = (fwd and accountable_is_me) or (not fwd and not accountable_is_me)
        kinds.append(OUT if i_am_tail else IN)
        (out_ports if i_am_tail else in_ports).append(port)

    # ---- 4. the LR-sorting stage over the committed path ----
    # A missing ``lr`` sub reads as an empty one: the owner's all-absent
    # row makes lr_check_node reject it.
    own, rows = [], []
    for i, names in enumerate(NODE_FIELDS):
        own_row, *nbr_rows = _lr_rows([view.own_labels[i], *view.neighbor_labels[i]], names)
        own.append(own_row)
        rows.append(nbr_rows)
    edges = [read_rows(view.edge_labels[i], names, _ABSENT) for i, names in enumerate(EDGE_FIELDS)]
    ports = range(view.degree)
    coin2 = view.coins[0].value >> pm.lr_shift
    roles = (left_port, right_port, out_ports, in_ports)
    if not lr_check_node(
        pm.lr, roles, own, ports, rows, ports, edges, coin2,
        view.coins[1].value,
    ):
        return False

    # ---- 5. nesting verification ----
    return _check_nesting(pm, view, kinds, left_port, right_port)


def _decode_simulation_forests(own1: Label, nbr1: Sequence[Label]):
    """Decode the Lemma-2.4 forest encodings from the round-1 setup.

    None when a ``forests`` setup or any of its ``forest{i}`` subs is
    absent at the node or a neighbor; otherwise one decode per forest
    (None for a forest whose encoding is malformed)."""
    setups = [_sub(lbl, "forests") for lbl in (own1, *nbr1)]
    if any(s is None for s in setups):
        return None
    out = []
    for key in FOREST_KEYS:
        encs = [_sub(s, key) for s in setups]
        if any(e is None for e in encs):
            return None
        out.append(decode_forest_view(encs[0], encs[1:]))
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
) -> bool:
    w = pm.w
    own_name = (view.coins[0].value >> pm.stv_bits) & pm.name_mask
    nbr3 = view.neighbor_labels[1]

    def nest_field(port: Optional[int], name: str):
        """A field of a neighbor's ``nest`` sub; _MISSING when absent."""
        if port is None:
            return _MISSING
        nest = _node_sub(nbr3[port], "nest")
        return _MISSING if nest is None else nest.get(name, _MISSING)

    own_nest = _node_sub(view.own_labels[1], "nest")
    if own_nest is None:
        return False
    own_above = own_nest.get("above", _MISSING)
    own_has_left = own_nest.get("has_left", _MISSING)
    own_has_right = own_nest.get("has_right", _MISSING)
    if own_above is _MISSING or own_has_left is _MISSING or own_has_right is _MISSING:
        return False

    rights: List[Tuple[int, Optional[int], bool, bool]] = []
    lefts: List[Tuple[int, Optional[int], bool, bool]] = []
    edge1 = view.edge_labels[0]
    edge3 = view.edge_labels[1]
    for port, kind in enumerate(kinds):
        if kind not in (OUT, IN):
            continue
        e1, e3 = edge1[port], edge3[port]
        fields = (
            e1.get("ltail", _MISSING), e1.get("lhead", _MISSING),
            e3.get("name_t", _MISSING), e3.get("name_h", _MISSING),
            e3.get("succ", _MISSING),
        )
        if any(f is _MISSING for f in fields):
            return False
        ltail, lhead, name_t, name_h, succ = fields
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

    # chain conditions (2)-(5): is there an ordering e1..ek with
    # name(e1)=start_above, succ(e_i)=name(e_{i+1}), e_k longest-marked,
    # succ(e_k)=own_above?
    def chain_ok(entries, start_above, longest_flag_index) -> bool:
        if start_above is _MISSING:
            return False
        return chain_search(entries, start_above, own_above, longest_flag_index, None)

    # right-side consistency toward the right path neighbor (condition 4):
    # with right edges, the chain starts at above(u); without, the above
    # values must agree unless an edge ends exactly at u (u.has_left, in
    # which case u's own condition-5 check covers the boundary)
    if rights:
        if not chain_ok(rights, nest_field(right_port, "above"), 0):
            return False
    elif right_port is not None:
        u_has_left = nest_field(right_port, "has_left")
        if u_has_left is _MISSING:
            return False
        # own_above is present, so a missing above(u) never equals it
        if not u_has_left and nest_field(right_port, "above") != own_above:
            return False
    # left-side consistency (condition 5): the chain of left edges starts
    # at above(w) of the left path neighbor
    if lefts and not chain_ok(lefts, nest_field(left_port, "above"), 1):
        return False
    return True
