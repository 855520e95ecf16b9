"""Batched composite sub-runs decide exactly like sub-runs run alone.

``outerplanarity``, ``series_parallel`` and ``treewidth2`` hand all their
path-outerplanarity and spanning-tree sub-runs to one staged batch per
host execution: one Lemma-2.4 simulation pass over the disjoint union of
the block / ear graphs, one Lemma-2.3 pass for every forest the sub-runs
commit, every round built for all sub-runs before the next
(``run_staged``), and one kernel call per host batch (every
path-outerplanarity sub-run, whatever its size).  This module
pins that batch against running every sub-run alone -- its own
simulation (``_safe_simulation``), its own forest encoding, all its
rounds before the next sub-run starts, and its own kernel call, the
per-sub-run execution the batch replaces:

- for every sub-run: the schema and wire bytes of every node and edge
  label, every coin, and the rejecting nodes; plus the host verdict;
- honest runs, ``fuzz_r1/r3/r5``, and hand-written liars / no-instances
  (those of ``test_composite_protocols.py`` and
  ``test_decomposition_stages.py``, and a block of arboricity 4 that
  sends the union simulation to its per-graph fallback);
- with the kernels; with every node on the per-view checker (the
  ``per_view_decide`` fake), the plain per-node reference; and on the
  per-view checker with every row field read through ``Label.get``
  (plus the ``label_get_rows`` fake) instead of a shift/mask plan;
  ``planar_embedding`` (batches of one) is the control.

More pins: a batch in which one member carries an uncoverable label
sends only that member's nodes to the per-view checker; honest
``outerplanarity`` / ``treewidth2`` runs decide every sub-run node by
kernel, none by fallback; a host whose blocks span L = 2..6, one and
several LR blocks, makes exactly one path-outerplanarity kernel call,
and its kernel verdicts equal the per-view verdicts node by node under
honest, fuzzed and lying provers (as do the liars above), as does the
series-parallel fuzz coverage matrix; and a sub-run whose prover sends an
out-of-width value fails its staged host with the error it raises alone.
"""

import random

import pytest

from repro.analysis.fuzz_coverage import fuzz_coverage
from repro.core import columnar, protocol
from repro.core.labels import Label
from repro.core.network import Graph, complete_graph, cycle_graph
from repro.core.protocol import DecideBatch, LabelTap, run_context
from repro.core.transcript import VerifierRound
from repro.graphs.generators import (
    corrupt_rotation,
    random_nonplanar,
    random_planar_embedding_instance,
    wheel_graph,
)
from repro.obs import metrics
from repro.protocols import outerplanarity, path_outerplanarity, series_parallel, treewidth2
from repro.protocols.outerplanarity import OuterplanarityProtocol, OuterplanarityProver
from repro.protocols.instances import (
    OuterplanarInstance,
    PathOuterplanarInstance,
    PlanarEmbeddingInstance,
    SeriesParallelInstance,
    Treewidth2Instance,
)
from repro.runtime import get_task
from repro.runtime.registry import FUZZ_ROUNDS

from test_born_packed import _WideProver
from test_decomposition_stages import _K4ParentLiar

TASKS = ("outerplanarity", "series_parallel", "treewidth2", "planar_embedding")
#: n=256 runs in the slow tier; 16 and 64 already hold many-block hosts
NS = (16, 64, pytest.param(256, marks=pytest.mark.slow))
ADVERSARIES = (None, "fuzz_r1", "fuzz_r3", "fuzz_r5")
#: mode -> the fakes it applies
MODES = {
    "kernels": (),
    "per_view": ("per_view_decide",),
    "per_view_label_get": ("per_view_decide", "label_get_rows"),
}


@pytest.fixture(params=sorted(MODES))
def mode(request):
    for fake in MODES[request.param]:
        request.getfixturevalue(fake)
    return request.param


def _run_alone(mp: pytest.MonkeyPatch) -> None:
    """Patch the batch away: every sub-run simulates, runs its rounds and
    decides alone, one sub-run after the other."""

    def simulations(graphs):
        return [path_outerplanarity._safe_simulation(g) for g in graphs]

    staged = path_outerplanarity.run_staged

    def one_by_one(jobs):
        return [staged([job])[0] for job in jobs]

    for module in (path_outerplanarity, outerplanarity, series_parallel, treewidth2):
        mp.setattr(module, "batch_simulations", simulations)
        mp.setattr(module, "run_staged", one_by_one)

    def run(self):
        pending, self._pending = self._pending, []
        for p in pending:
            ia = p.interaction
            (out,) = protocol.run_columnar_kernel(
                p.make_kernel, [(ia.graph, ia.transcript, p.kernel_params)]
            )
            p.result = ia.decide(p.check, kernel_out=out, **p.kwargs)

    mp.setattr(DecideBatch, "run", run)


def _wire(label):
    schema, payload = label.pack()
    return schema.desc, label.wire_bytes(), payload


def _fingerprint(result) -> list:
    """Host verdict, then per sub-run: transcript wire form + rejecting."""
    out = [("host", result.accepted, tuple(result.rejecting_nodes))]
    for sub in result.sub_runs:
        rounds = []
        for rnd in sub.result.transcript.rounds:
            if isinstance(rnd, VerifierRound):
                rounds.append(
                    sorted((v, c.width, c.value) for v, c in rnd.coins.items())
                )
            else:
                rounds.append(
                    (
                        sorted((v, _wire(l)) for v, l in rnd.labels.items()),
                        sorted((e, _wire(l)) for e, l in rnd.edge_labels.items()),
                    )
                )
        out.append((sub.name, rounds, tuple(sub.result.rejecting_nodes)))
    return out


def _host_run(task, instance, make_prover, seed):
    prover = make_prover(instance) if make_prover is not None else None
    with run_context(tap=getattr(prover, "tap", None)):
        return get_task(task).protocol(c=2).execute(
            instance, prover=prover, rng=random.Random(seed)
        )


def _assert_batch_matches_alone(task, make_instance, make_prover, seed=7):
    batched = _host_run(task, make_instance(), make_prover, seed)
    with pytest.MonkeyPatch.context() as mp:
        _run_alone(mp)
        alone = _host_run(task, make_instance(), make_prover, seed)
    assert len(batched.sub_runs) == len(alone.sub_runs)
    assert _fingerprint(batched) == _fingerprint(alone)
    return batched


@pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a or "honest")
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("task", TASKS)
def test_batch_matches_sub_runs_alone(task, n, adversary, mode):
    spec = get_task(task)
    make_prover = None
    if adversary is not None:
        factory = spec.adversaries[adversary]

        def make_prover(instance):
            return factory(instance, random.Random(n))

    result = _assert_batch_matches_alone(
        task, lambda: spec.yes_factory(n, random.Random(n + 1)), make_prover
    )
    if adversary is None:
        assert result.accepted


def _glued(*graphs: Graph) -> Graph:
    """Glue graphs into a chain of blocks: each shares one node with the
    previous (its node 0 is the previous graph's last node)."""
    edges, base = [], 0
    for g in graphs:
        edges += [(u + base, v + base) for u, v in g.edges()]
        base += g.n - 1
    return Graph(base + 1, edges)


def _planar_embedding_liar(n):
    rng = random.Random(n)
    while True:
        g, rot = random_planar_embedding_instance(n, rng)
        bad = corrupt_rotation(g, rot, rng)
        if bad is not None:
            return PlanarEmbeddingInstance(g, bad)


class _LyingTreewidth2Prover:
    """Every block commits the K4 parent liar's decomposition."""

    def __init__(self, instance):
        self.instance = instance

    def block_prover(self, sub_instance):
        return _K4ParentLiar(sub_instance)


def _no_instance(task):
    return lambda n: get_task(task).no_factory(n, random.Random(n))


def _with_arboricity4_block(n):
    """A 5-cycle, then K8 (4 forests: no Lemma-2.4 simulation), then
    ``n // 4`` 4-cycles."""
    return _glued(cycle_graph(5), complete_graph(8), *[cycle_graph(4)] * (n // 4))


#: (task, instance factory of n, prover factory or None)
LIARS = {
    "op-no-instance": ("outerplanarity", _no_instance("outerplanarity"), None),
    "op-wheel": ("outerplanarity", lambda n: OuterplanarInstance(wheel_graph(n)), None),
    "op-nonplanar": (
        "outerplanarity",
        lambda n: OuterplanarInstance(random_nonplanar(n, random.Random(n))),
        None,
    ),
    "op-arboricity4-block": (
        "outerplanarity",
        lambda n: OuterplanarInstance(_with_arboricity4_block(n)),
        None,
    ),
    "sp-no-instance": ("series_parallel", _no_instance("series_parallel"), None),
    "sp-k4-parent-liar": (
        "series_parallel",
        lambda n: SeriesParallelInstance(complete_graph(4)),
        _K4ParentLiar,
    ),
    "tw2-no-instance": ("treewidth2", _no_instance("treewidth2"), None),
    "tw2-arboricity4-block": (
        "treewidth2",
        lambda n: Treewidth2Instance(_with_arboricity4_block(n)),
        None,
    ),
    "tw2-lying-block-prover": (
        "treewidth2",
        lambda n: Treewidth2Instance(complete_graph(4)),
        _LyingTreewidth2Prover,
    ),
    "pe-corrupted-rotation": ("planar_embedding", _planar_embedding_liar, None),
}


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("liar", sorted(LIARS))
def test_liars_batch_matches_sub_runs_alone(liar, n, mode):
    task, make_instance, make_prover = LIARS[liar]
    result = _assert_batch_matches_alone(task, lambda: make_instance(n), make_prover)
    assert not result.accepted


# -- an uncoverable label stays inside its member ---------------------------


class _UncoverableOnce(LabelTap):
    """Replace node 0's round-1 label in the third 5-node sub-run with a
    label whose ``lr.idx`` is 70 bits wide: a shape no column holds."""

    def __init__(self):
        self.seen = 0
        self.graph = None

    def on_prover_round(self, interaction, msg_index, labels, edge_labels):
        if msg_index != 0 or interaction.graph.n != 5:
            return
        self.seen += 1
        if self.seen == 3:
            self.graph = interaction.graph
            lr = Label().uint("idx", 1, 70)  # wider than an int64 column
            labels[0] = Label().sub("node", Label().sub("lr", lr))


def test_uncoverable_member_alone_reaches_the_per_view_checker(monkeypatch):
    host = _glued(*[cycle_graph(5)] * 8)  # eight 5-node blocks, one batch
    built, checked = [], []
    real_build = protocol.build_views
    real_check = path_outerplanarity.check_path_outerplanarity_node

    def build(graph, *args, **kwargs):
        built.append(graph)
        return real_build(graph, *args, **kwargs)

    def check(pm, view):
        checked.append(view)
        return real_check(pm, view)

    monkeypatch.setattr(protocol, "build_views", build)
    monkeypatch.setattr(path_outerplanarity, "check_path_outerplanarity_node", check)
    tap = _UncoverableOnce()
    with metrics.enabled_metrics() as reg:
        with run_context(tap=tap):
            result = outerplanarity.OuterplanarityProtocol(c=2).execute(
                OuterplanarInstance(host), rng=random.Random(3)
            )
        fallback = reg.counter("repro_vector_fallback_nodes_total").value()
        decided = reg.counter("repro_vector_decide_nodes_total").value()
    assert tap.graph is not None and not result.accepted
    # the tampered member alone builds views; the row's reader set is the
    # owner and its two cycle neighbors
    assert built == [tap.graph]
    assert len(checked) == fallback == 3
    # every other node of the batch, and the host STV, decided by kernel
    assert decided == 8 * 5 - 3 + host.n


# -- coverage: one kernel decides every sub-run node of a host ---------------


@pytest.mark.parametrize("task", ["outerplanarity", "treewidth2"])
def test_honest_composites_decide_batched_classes_by_kernel(task):
    spec = get_task(task)
    instance = spec.yes_factory(256, random.Random(5))
    with metrics.enabled_metrics() as reg:
        result = spec.protocol(c=2).execute(instance, rng=random.Random(6))
        fallback = reg.counter("repro_vector_fallback_nodes_total").value()
        decided = reg.counter("repro_vector_decide_nodes_total").value()
    assert result.accepted
    sizes = [len(sub.node_map) for sub in result.sub_runs]
    assert fallback == 0
    assert decided == sum(sizes)
    # the smallest sub-runs (triangle blocks, two-node ears) among them
    assert min(sizes) <= 3


def _po_kernel_calls(monkeypatch) -> list:
    """Record the member count of every path-outerplanarity kernel call."""
    calls = []
    real = protocol.run_columnar_kernel

    def counting(make_kernel, members):
        if getattr(make_kernel, "func", None) is columnar.make_po_kernel:
            calls.append(len(members))
        return real(make_kernel, members)

    monkeypatch.setattr(protocol, "run_columnar_kernel", counting)
    return calls


#: glued cycles with chords: L = 2 (3, 4 nodes) up to L = 6 (40 nodes),
#: one block (3, 5 nodes) and several (4, 7, 8, 16, 20, 40 nodes)
MIXED_BLOCKS = (3, 4, 5, 7, 8, 16, 20, 40)


def _chorded_cycle(k: int) -> Graph:
    """A k-cycle with the nested chords (0, 2) and (0, k // 2)."""
    g = cycle_graph(k)
    for j in {2, k // 2}:
        if 2 <= j <= k - 2 and not g.has_edge(0, j):
            g.add_edge(0, j)
    return g


def _mixed_host() -> OuterplanarInstance:
    return OuterplanarInstance(_glued(*[_chorded_cycle(k) for k in MIXED_BLOCKS]))


def test_composite_host_makes_one_po_kernel_call(monkeypatch):
    calls = _po_kernel_calls(monkeypatch)
    result = OuterplanarityProtocol(c=2).execute(_mixed_host(), rng=random.Random(2))
    assert result.accepted
    po_runs = [s for s in result.sub_runs if s.result.protocol_name == "path-outerplanarity"]
    params = {s.result.meta["params"].lr.L for s in po_runs}
    assert params == {2, 3, 4, 5, 6}
    assert calls == [len(po_runs)] == [len(MIXED_BLOCKS)]


def _verdicts(result) -> list:
    """Host verdict, then every sub-run's rejecting nodes."""
    return [(result.accepted, tuple(result.rejecting_nodes))] + [
        (sub.name, tuple(sub.result.rejecting_nodes)) for sub in result.sub_runs
    ]


def _kernel_vs_per_view(task, make_instance, make_prover, seed, request):
    """The run's verdicts with the kernels, then with the per-view path only."""
    with metrics.enabled_metrics() as reg:
        kernel = _host_run(task, make_instance(), make_prover, seed)
        decided = reg.counter("repro_vector_decide_nodes_total").value()
    request.getfixturevalue("per_view_decide")
    per_view = _host_run(task, make_instance(), make_prover, seed)
    assert _verdicts(kernel) == _verdicts(per_view)
    return kernel, decided


@pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a or "honest")
@pytest.mark.parametrize("seed", range(6))  # fuzz_r1 rejects at seed 5
def test_mixed_block_host_kernel_verdicts_equal_per_view(adversary, seed, request):
    make_prover = None
    if adversary is not None:
        factory = get_task("outerplanarity").adversaries[adversary]

        def make_prover(instance):
            return factory(instance, random.Random(seed))

    result, decided = _kernel_vs_per_view(
        "outerplanarity", _mixed_host, make_prover, seed, request
    )
    assert decided > 0
    if adversary is None:
        assert result.accepted


@pytest.mark.parametrize("liar", sorted(LIARS))
def test_liars_kernel_verdicts_equal_per_view(liar, request):
    task, make_instance, make_prover = LIARS[liar]
    result, _ = _kernel_vs_per_view(
        task, lambda: make_instance(64), make_prover, 7, request
    )
    assert not result.accepted


def test_series_parallel_fuzz_matrix_equal_per_view(request):
    """Series-parallel hosts decide every block and ear sub-run in one
    path-outerplanarity kernel call; the fuzz coverage matrix (``repro
    fuzz --task series_parallel --round all --n 64 --trials 8 --seed 3``)
    is byte-identical to the one the per-view checker alone reports."""

    def matrix():
        return fuzz_coverage(
            "series_parallel", rounds=list(FUZZ_ROUNDS), n=64, trials=8, seed=3
        ).to_json(indent=2)

    kernels = matrix()
    request.getfixturevalue("per_view_decide")
    assert matrix() == kernels


# -- an out-of-width value fails the staged host like the sub-run alone ------


class _WideBlockProver(OuterplanarityProver):
    """Honest, except the third block's prover pushes ``target`` out of
    its width (``_WideProver``)."""

    def __init__(self, instance, target):
        super().__init__(instance)
        self.target = target
        self.blocks = 0

    def sub_prover(self, sub_instance):
        self.blocks += 1
        if self.blocks == 3:
            return _WideProver(sub_instance, self.target)
        return super().sub_prover(sub_instance)


def _raised(run) -> str:
    with pytest.raises(protocol.ProtocolError) as err:
        run()
    assert isinstance(err.value.__cause__, ValueError)
    return str(err.value)


@pytest.mark.parametrize("target", ["idx", "I", "rb", "above", "succ", "A0"])
def test_out_of_width_sub_run_fails_the_staged_host_as_alone(target):
    host = _glued(*[cycle_graph(6)] * 5)  # five 6-node blocks, one chord each
    instance = OuterplanarInstance(host)

    def host_run():
        prover = _WideBlockProver(instance, target)
        OuterplanarityProtocol(c=2).execute(instance, prover=prover, rng=random.Random(4))

    staged = _raised(host_run)
    with pytest.MonkeyPatch.context() as mp:
        _run_alone(mp)
        assert _raised(host_run) == staged
    # ... and the text is the one a sub-run of that shape raises by itself
    block = PathOuterplanarInstance(cycle_graph(6), witness_path=list(range(6)))
    assert staged == _raised(
        lambda: path_outerplanarity.PathOuterplanarityProtocol(c=2).execute(
            block, prover=_WideProver(block, target), rng=random.Random(4)
        )
    )
