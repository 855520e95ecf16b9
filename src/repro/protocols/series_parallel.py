"""Theorem 1.6: series-parallel graphs in 5 rounds, O(log log n) bits.

Section 8's protocol over Eppstein's nested ear decompositions:

1. *Sub-ear stage*: the prover partitions V into the sub-ears P'_i
   (interiors of the ears, plus the full first ear), marks the connecting
   edges, and proves each sub-ear is a simple path (degree-<=2 checks +
   the Lemma-2.5 protocol per sub-ear).
2. *Condition (1) stage*: each sub-ear's leftmost node draws a nonce; the
   prover distributes (ear, pred_ear) pairs so that every ear's endpoints
   provably lie in its parent ear.
3. *Condition (3) stage*: per ear P_i, the ears attached to it act as
   virtual chords of an auxiliary path graph A_i, and the
   path-outerplanarity machinery (Theorem 1.2) certifies they are properly
   nested within P_i.  Virtual chord labels ride on the attached ear's
   interior nodes (constant overhead per node).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.labels import uint_width
from ..core.network import Graph, norm_edge
from ..core.protocol import DecideBatch, DIPProtocol, PendingDecide
from ..graphs.series_parallel import Ear, nested_ear_decomposition
from ..graphs.spanning import RootedForest
from ..primitives.edge_labels import EdgeLabelSimulation
from .composition import CompositeRunResult, SubRun, combine
from .instances import (
    PathOuterplanarInstance,
    SeriesParallelInstance,
    SpanningSubgraphInstance,
)
from .path_outerplanarity import (
    HonestPathOuterplanarityProver,
    PathOuterplanarityProtocol,
    StagedJob,
    batch_simulations,
    run_staged,
)
from .spanning_tree import STVProver, SpanningTreeVerificationProtocol


class SeriesParallelProver:
    """Hook: the nested ear decomposition to commit."""

    def __init__(self, instance: SeriesParallelInstance):
        self.instance = instance

    def decomposition(self) -> Optional[List[Ear]]:
        return nested_ear_decomposition(self.instance.graph)

    def sub_prover(self, sub_instance: PathOuterplanarInstance):
        return HonestPathOuterplanarityProver(sub_instance)


class SeriesParallelProtocol(DIPProtocol):
    """Theorem 1.6."""

    name = "series-parallel"
    designed_rounds = 5

    def __init__(self, c: int = 2, stv_repetitions: int = 6):
        self.c = c
        self.stv_repetitions = stv_repetitions
        self.sub_protocol = PathOuterplanarityProtocol(c)

    def honest_prover(self, instance) -> SeriesParallelProver:
        return SeriesParallelProver(instance)

    def execute(
        self,
        instance: SeriesParallelInstance,
        prover: Optional[SeriesParallelProver] = None,
        rng: Optional[random.Random] = None,
    ) -> CompositeRunResult:
        rng = rng or random.Random()
        plan = self.plan(instance, prover)
        batch = DecideBatch()
        pending = run_staged(
            self.jobs(plan, rng, batch, batch_simulations(plan.nesting_graphs()))
        )
        batch.run()
        return self.finish(plan, pending)

    def plan(
        self,
        instance: SeriesParallelInstance,
        prover: Optional[SeriesParallelProver] = None,
    ) -> "EarPlan":
        """Everything that needs no coins: the committed decomposition
        and the per-ear nesting instances (stage 3), whose graphs a
        caller may simulate in one batch with other hosts' graphs."""
        g = instance.graph
        prover = prover or self.honest_prover(instance)
        plan = EarPlan(g, prover)
        if g.n <= 2:
            plan.early = combine(self.name, g.n, [], host_ok=True)
            return plan
        if not g.is_connected():
            plan.early = combine(
                self.name, g.n, [], host_ok=False,
                host_rejecting=list(g.nodes()),
            )
            return plan
        ears = plan.ears = prover.decomposition()
        if ears is None:
            # the prover cannot exhibit a nested ear decomposition; in the
            # real protocol every commitment fails some structural check
            plan.early = combine(
                self.name, g.n, [], host_ok=False,
                host_rejecting=list(g.nodes()),
            )
            return plan
        plan.sub_ears = [
            list(ear.path) if j == 0 else list(ear.interior)
            for j, ear in enumerate(ears)
        ]
        # owner sub-ear of every node: labels of an ear's endpoint nodes
        # (which live on the parent's path) are deferred to the adjacent
        # interior nodes, exactly like the paper's cut-node deferral, so
        # that high-multiplicity attachment points stay O(log log n)
        owner: Dict[int, int] = {}
        for j, q in enumerate(plan.sub_ears):
            for v in q:
                owner.setdefault(v, j)
        attached_to: Dict[int, List[Tuple[int, Ear]]] = {}
        for j, e in enumerate(ears):
            if j > 0:
                attached_to.setdefault(e.parent, []).append((j, e))
        for i, parent_ear in enumerate(ears):
            attached = attached_to.get(i)
            if not attached:
                continue
            path = parent_ear.path
            index = {v: k for k, v in enumerate(path)}
            aux = Graph(len(path))
            for k in range(len(path) - 1):
                aux.add_edge(k, k + 1)
            chord_carriers: Dict[Tuple[int, int], Tuple[int, ...]] = {}
            ok_attach = True
            for j, e in attached:
                u, v = e.endpoints
                if u not in index or v not in index:
                    ok_attach = False
                    continue
                a, b = sorted((index[u], index[v]))
                if b - a <= 1:
                    continue  # spans a path edge or a single node: trivial
                if not aux.has_edge(a, b):
                    aux.add_edge(a, b)
                if (a, b) not in chord_carriers:
                    # the virtual chord's labels ride on the ear's interior
                    chord_carriers[(a, b)] = tuple(e.interior) or (u,)
            node_map: Dict[int, Tuple[int, ...]] = {}
            for k, v in enumerate(path):
                if owner.get(v) == i or i == 0:
                    node_map[k] = (v,)
                else:
                    # an endpoint borrowed from the parent's path: defer
                    # its labels to the adjacent interior node(s)
                    targets = []
                    for kk in (k - 1, k + 1):
                        if 0 <= kk < len(path) and owner.get(path[kk]) == i:
                            targets.append(path[kk])
                    node_map[k] = tuple(targets) or (v,)
            plan.nesting.append(
                _EarNesting(i, path, aux, chord_carriers, ok_attach, node_map)
            )
        return plan

    def jobs(
        self,
        plan: "EarPlan",
        rng: random.Random,
        batch: DecideBatch,
        sims: Sequence[Optional[EdgeLabelSimulation]],
    ) -> List[StagedJob]:
        """Every sub-run of ``plan`` as a :func:`run_staged` job, in
        protocol order; ``sims`` align with ``plan.nesting_graphs()``.
        The host rng is drawn from here, before any job runs."""
        if plan.early is not None:
            return []
        g = plan.graph
        prover = plan.prover
        sub_ears = plan.sub_ears
        jobs: List[StagedJob] = []

        # -- stage 1: sub-ears are simple paths -----------------------------
        covered = [v for q in sub_ears for v in q]
        if sorted(covered) != list(g.nodes()):
            plan.host_ok = False
        for j, q in enumerate(sub_ears):
            if len(q) <= 1:
                continue
            nodes = set(q)
            sub, index = g.subgraph(nodes)
            marked = frozenset(
                norm_edge(index[q[i]], index[q[i + 1]]) for i in range(len(q) - 1)
            )
            forest = RootedForest(
                sub.n,
                {index[q[i + 1]]: index[q[i]] for i in range(len(q) - 1)},
            )
            stv = SpanningTreeVerificationProtocol(
                self.stv_repetitions, enforce_instance_edges=False
            )
            jobs.append(
                stv.job(
                    SpanningSubgraphInstance(sub, marked),
                    STVProver(sub, forest),
                    random.Random(rng.getrandbits(64)),
                    batch,
                )
            )
            inverse = {i: v for v, i in index.items()}
            plan.pending.append(
                (f"subear-{j}-stv", {i: (inverse[i],) for i in range(sub.n)}, None, None)
            )

        # -- stage 2: condition (1) via ear nonces ---------------------------
        if not _ear_nonce_stage(g, plan.ears, sub_ears, rng):
            plan.host_ok = False

        # -- stage 3: condition (3) via per-ear nesting ----------------------
        for nest, sim in zip(plan.nesting, sims):
            path = nest.path
            if not nest.ok_attach:
                plan.host_ok = False
                plan.rejecting.extend(path)
            sub_instance = PathOuterplanarInstance(
                nest.aux, witness_path=list(range(len(path)))
            )
            sub_prover = prover.sub_prover(sub_instance)
            jobs.append(
                self.sub_protocol.job(
                    sub_instance,
                    sub_prover,
                    random.Random(rng.getrandbits(64)),
                    batch,
                    sim,
                )
            )
            plan.pending.append(
                (
                    f"ear-{nest.ear}-nesting", nest.node_map, nest.chord_carriers,
                    (sub_prover, path),
                )
            )
        return jobs

    def finish(self, plan: "EarPlan", pending: Sequence[PendingDecide]) -> CompositeRunResult:
        """The composite verdict, once the jobs have run (``pending``: their
        queued decides, in order) and their batch has decided them."""
        if plan.early is not None:
            return plan.early
        g = plan.graph
        sub_runs = []
        for (name, node_map, edge_map, nesting), run in zip(plan.pending, pending):
            if nesting is not None:
                # the sub-run must have committed the parent ear's path
                sub_prover, path = nesting
                if getattr(sub_prover, "path", None) != list(range(len(path))):
                    plan.host_ok = False
                    plan.rejecting.extend(path)
            sub_runs.append(SubRun(name, run.result, node_map, edge_map=edge_map))
        w = max(4, self.c * uint_width(max(2, g.n.bit_length())))
        stage_bits = {v: 2 * w + 3 for v in g.nodes()}
        return combine(
            self.name,
            g.n,
            sub_runs,
            host_ok=plan.host_ok,
            host_rejecting=plan.rejecting,
            extra_bits=[stage_bits],
            meta={"n_ears": len(plan.ears)},
        )


@dataclass
class _EarNesting:
    """Stage 3 for one parent ear: the auxiliary path graph A_i whose
    virtual chords are the ears attached to it."""

    ear: int
    path: List[int]
    aux: Graph
    chord_carriers: Dict[Tuple[int, int], Tuple[int, ...]]
    ok_attach: bool
    node_map: Dict[int, Tuple[int, ...]]


@dataclass
class EarPlan:
    """One series-parallel execution between ``plan``, ``start`` and
    ``finish``: the coin-free structure, then the queued sub-runs."""

    graph: Graph
    prover: SeriesParallelProver
    #: the verdict of a run that ends before any sub-run
    early: Optional[CompositeRunResult] = None
    ears: Optional[List[Ear]] = None
    sub_ears: List[List[int]] = field(default_factory=list)
    nesting: List[_EarNesting] = field(default_factory=list)
    #: (name, node_map, edge_map, nesting) per sub-run, in job order;
    #: ``nesting`` is a stage-3 sub-run's (prover, parent ear path)
    pending: list = field(default_factory=list)
    host_ok: bool = True
    rejecting: List[int] = field(default_factory=list)

    def nesting_graphs(self) -> List[Graph]:
        return [nest.aux for nest in self.nesting]


def _ear_nonce_stage(
    g: Graph, ears: List[Ear], sub_ears: List[List[int]], rng: random.Random
) -> bool:
    """Condition (1): every ear's endpoints lie in its parent ear.

    Also enforces condition (1)'s parent ordering, before any parent is
    indexed: ``ears[0]`` is the root (parent -1) and every later ear
    ``j`` names a parent in ``[0, j)``.  An ear attached to no ear would
    otherwise escape the per-ear nesting stage entirely.

    Nonces r_Q per sub-ear; node labels (ear, pred_ear); the connecting
    edges tie a sub-ear's pred_ear to the actual nonce of the parent's
    sub-ear.  Passes for any committed decomposition satisfying (1)-(2);
    planted violations are exercised in the test suite.
    """
    nonce = {j: rng.getrandbits(16) for j in range(len(ears))}
    owner: Dict[int, int] = {}
    for j, q in enumerate(sub_ears):
        for v in q:
            if v in owner:
                return False
            owner[v] = j
    if len(owner) != g.n:
        return False
    if ears[0].parent != -1:
        return False
    paths = [set(ear.path) for ear in ears]
    for j, ear in enumerate(ears):
        if j == 0:
            continue
        u, v = ear.endpoints
        parent = ear.parent
        if not 0 <= parent < j:
            return False
        if u not in paths[parent] or v not in paths[parent]:
            return False
        # connecting edges must be real graph edges to the sub-ear ends
        if ear.interior:
            if not g.has_edge(u, ear.interior[0]):
                return False
            if not g.has_edge(ear.interior[-1], v):
                return False
        else:
            if not g.has_edge(u, v):
                return False
    return True
