"""Columnar decide path: extraction equivalence, gating, and mixed sizes.

The vectorized kernels of ``core/columnar.py`` are only allowed to exist
because the column extraction is *provably* the same decode the per-view
path performs:

1. for every label the builders can produce, the shift/mask extraction
   plan yields the same field values as the per-field decode, field by
   field, on both chained-builder and wire-decoded rows (Hypothesis
   drives this over random nested labels);
2. the leaf shifts agree with :func:`wire_leaf_span` -- the columns read
   exactly the bits the mutation engine reports as the field's wire span
   -- and the column plans and the row plans of ``read_rows``, both built
   by the one field-plan builder, agree on every uint/felem/flag leaf;
3. a degenerate member (one node, or no edge) never reaches a kernel,
   every other member does (there is no size floor), and numpy is only
   imported once a kernel runs;
4. one path-outerplanarity kernel over sub-runs of different sizes
   (block lengths, block counts, STV repetitions) gives every node the
   verdict of its sub-run's own kernel and of the per-view checker.

Byte-identity of full batch reports between the kernels and the
per-view checker is pinned by ``test_wire_differential.py``; this module
covers the layer below.
"""

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st  # noqa: F401  (strategy re-export)

from repro.core import columnar
from repro.core.columnar import (
    MISSING,
    NONE,
    extract_columns,
    run_kernel,
)
from repro.core.labels import (
    EMPTY_LABEL,
    Label,
    PackedLabel,
    _field_plan,
    _row_plan,
    wire_leaf_span,
)
from repro.core.network import Graph
from repro.core.protocol import DecideBatch, run_context
from repro.core.transcript import Transcript
from repro.core.views import build_views
from repro.obs import metrics
from repro.protocols.path_outerplanarity import batch_simulations
from repro.runtime.registry import get_task
from repro.runtime.runner import BatchRunner

from test_wire_format import labels, _rebuild

# -- expected-value oracle --------------------------------------------------


def _specs_and_expected(lbl):
    """Every leaf/sub path of ``lbl`` as column specs, with the value the
    per-view decode yields."""
    specs = []
    expected = []

    def walk(node, prefix):
        for name, kind, value, width in node.fields():
            path = prefix + (name,)
            specs.append((path, kind == "label", False))
            if kind == "label":
                expected.append(1)
                walk(value, path)
            elif kind == "flag":
                expected.append(1 if value else 0)
            else:  # uint / felem / maybe
                expected.append(NONE if value is None else int(value))

    walk(lbl, ())
    # absent paths read as MISSING in both query modes
    specs.append((("__absent__",), False, False))
    expected.append(MISSING)
    specs.append((("__absent__",), True, False))
    expected.append(MISSING)
    return tuple(specs), expected


def _check_extraction(lbl):
    specs, expected = _specs_and_expected(lbl)
    built_row = _rebuild(lbl)  # appended field by field
    schema, payload = lbl.pack()
    wire_row = PackedLabel._from_payload(schema, payload)
    rows = [built_row, wire_row, None]
    cols, uncover = extract_columns(np, rows, specs)
    assert len(cols) == len(specs)
    for j, want in enumerate(expected):
        assert cols[j][0] == want, (specs[j], "built")
        assert cols[j][1] == want, (specs[j], "wire")
        assert cols[j][2] == MISSING, (specs[j], "absent row")
    assert not uncover.any()


class TestExtractionProperty:
    @given(labels())
    @settings(max_examples=150, deadline=None)
    def test_columnar_matches_decode_field_by_field(self, lbl):
        _check_extraction(lbl)

    @given(labels())
    @settings(max_examples=100, deadline=None)
    def test_leaf_shifts_agree_with_wire_leaf_span(self, lbl):
        """The field plans read exactly the bits wire_leaf_span reports
        (for a maybe: the presence bit plus the value bits)."""
        schema, _ = lbl.pack()
        total = schema.total_width
        for path, kind, value, width in lbl.walk():
            offset, span_width = wire_leaf_span(lbl, path)
            assert span_width == width
            assert _field_plan(schema, tuple(path)) == (kind, total - offset - width, width)
        for name, kind, _, _ in lbl.fields():
            if kind == "label":  # a sub-label read as a value has no int64 form
                assert columnar._ColumnPlan(schema, (((name,), False, False),)).uncover

    @given(labels())
    @settings(max_examples=100, deadline=None)
    def test_column_and_row_plans_agree(self, lbl):
        """The columnar kernels and :func:`read_rows` read every
        uint/felem/flag leaf with one shift, mask and kind, top-level
        fields and the fields of each sub-label alike."""
        schema, _ = lbl.pack()
        groups = [(None, lbl)] + [
            (name, value) for name, kind, value, _ in lbl.fields() if kind == "label"
        ]
        for within, node in groups:
            names = tuple(node.names())
            kinds = [kind for _, kind, _, _ in node.fields()]
            prefix = (within,) if within is not None else ()
            col = columnar._ColumnPlan(
                schema, tuple((prefix + (name,), False, False) for name in names)
            )
            _, steps = _row_plan(schema, names, within)
            for i, kind in enumerate(kinds):
                if kind not in ("uint", "felem", "flag"):
                    continue
                assert col.kind[i] == columnar._LEAF
                assert steps[i] == (col.shift[i], col.mask[i], kind == "flag")


class TestFieldPlan:
    """The one schema walk, on a fixed layout: ``a`` (3 bits), then the
    sub-label ``node`` holding ``x`` (4 bits) and the flag ``f``."""

    @staticmethod
    def schema():
        node = Label().uint("x", 5, 4).flag("f", True)
        return Label().uint("a", 2, 3).sub("node", node).pack()[0]

    def test_within_starts_the_walk_in_the_sub_label(self):
        schema = self.schema()
        assert _field_plan(schema, ("x",), "node") == ("uint", 1, 4)
        assert _field_plan(schema, ("f",), "node") == ("flag", 0, 1)
        assert _field_plan(schema, ("node", "x")) == _field_plan(schema, ("x",), "node")
        # ``node`` has no ``a``: a within read does not fall back to the top
        assert _field_plan(schema, ("a",), "node") is None

    def test_within_that_is_no_sub_label_walks_from_the_top(self):
        schema = self.schema()
        assert _field_plan(schema, ("a",), "a") == ("uint", 5, 3)
        assert _field_plan(schema, ("a",), "edge") == ("uint", 5, 3)
        assert _field_plan(schema, ("x",), "edge") is None

    def test_missing_names_and_paths_through_a_leaf(self):
        schema = self.schema()
        assert _field_plan(schema, ("zz",)) is None
        assert _field_plan(schema, ("node", "zz")) is None
        assert _field_plan(schema, ("a", "x")) is None
        assert _field_plan(schema, ()) is None

    def test_a_sub_label_itself_is_a_label_kinded_field(self):
        schema = self.schema()
        assert _field_plan(schema, ("node",)) == ("label", 0, 5)
        assert _row_plan(schema, ("node", "a"), None) == (False, (None, (5, 7, False)))
        assert _row_plan(schema, ("x", "f", "a"), "node") == (
            True,
            ((1, 15, False), (0, 1, True), False),
        )


# -- gates ------------------------------------------------------------------


class TestGates:
    def test_degenerate_members_never_reach_the_kernel(self):
        calls = []

        def make_kernel(params):
            calls.append(params)
            return lambda ctx: calls.append(ctx)

        # one node, and no edges at any size
        assert run_kernel(make_kernel, [(Graph(1), None, None)]) == [None]
        assert run_kernel(make_kernel, [(Graph(64), None, None)]) == [None]
        assert run_kernel(
            make_kernel, [(Graph(1), None, None), (Graph(64), None, None)]
        ) == [None, None]
        # neither the kernel nor its factory ran
        assert calls == []

    def test_two_node_member_reaches_the_kernel(self):
        """The smallest member that is not degenerate, a single edge, is
        handed to the kernel: no size floor holds members back."""
        t = Transcript()
        t.add_prover_round({v: EMPTY_LABEL for v in range(2)})
        g = Graph(2, [(0, 1)])
        seen = []

        def make_kernel(params):
            seen.append(params)

            def kernel(ctx):
                seen.append(ctx.n)
                ok = ctx.np.ones(ctx.n, dtype=bool)
                return ok, ctx.fallback

            return kernel

        members = [(Graph(1), t, "skip"), (g, t, "edge"), (g, t, "edge2")]
        out = run_kernel(make_kernel, members)
        assert seen == [["edge", "edge2"], 4]
        assert out[0] is None
        for ok, fallback in out[1:]:
            assert ok.tolist() == [True, True]
            assert fallback.tolist() == [False, False]

    def test_numpy_is_imported_only_once_a_kernel_runs(self):
        """``lr_sorting`` has no kernel: a process that only runs it never
        loads numpy (it would add ~10 MB to a ``repro serve`` process);
        a kernel-keyed task loads it on its first decide."""
        script = (
            "import sys\n"
            "from repro.runtime import get_task\n"
            "from repro.runtime.runner import BatchRunner\n"
            "def run(task):\n"
            "    spec = get_task(task)\n"
            "    BatchRunner(spec.protocol(), spec.yes_factory).run(1, 16, seed=3)\n"
            "    return 'numpy' in sys.modules\n"
            "print(run('lr_sorting'), run('planarity'))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.split() == ["False", "True"]


# -- the per-view checker is observationally the kernels ---------------------


@pytest.mark.parametrize("task", ["planarity", "treewidth2"])
def test_batch_identical_on_the_per_view_checker(task, request):
    """A whole batch report is the same when the per-view checker decides
    every node (the ``per_view_decide`` fake) as with the kernels."""
    spec = get_task(task)

    def run():
        runner = BatchRunner(spec.protocol(), spec.yes_factory)
        return runner.run(2, 40, seed=3).canonical_json()

    kernels = run()
    request.getfixturevalue("per_view_decide")
    assert run() == kernels


# -- one path-outerplanarity kernel over sub-runs of every size --------------

#: L = 2 (3, 4 nodes) up to L = 6 (40 nodes); one block (3, 5 nodes) and
#: several (4, 7, 8, 16, 20, 40 nodes); STV repetitions t = 2 and t = 3
MIXED_SIZES = (3, 4, 5, 7, 8, 16, 20, 40)


def _po_pending(adversary, seed, no_instance=False):
    """Finished path-outerplanarity runs of every ``MIXED_SIZES`` size,
    their decide sweeps queued (not run) on one batch.  A no-instance
    needs two crossing chords, so the 3-node member stays a yes-instance."""
    spec = get_task("path_outerplanarity")
    proto = spec.protocol(c=2)
    batch = DecideBatch()
    for k, n in enumerate(MIXED_SIZES):
        factory = spec.no_factory if no_instance and n >= 4 else spec.yes_factory
        instance = factory(n, random.Random(seed * 1000 + n))
        prover = None
        if adversary is not None:
            prover = spec.adversaries[adversary](instance, random.Random(seed + k))
        (sim,) = batch_simulations([instance.graph])
        with run_context(tap=getattr(prover, "tap", None)):
            proto.start(instance, prover, random.Random(seed * 100 + k), batch, sim)
    return batch._pending


@pytest.mark.parametrize("no_instance", [False, True], ids=["yes", "no"])
@pytest.mark.parametrize("adversary", [None, "fuzz_r1", "fuzz_r3", "fuzz_r5"])
@pytest.mark.parametrize("seed", range(3))
def test_one_po_kernel_over_mixed_sizes_matches_each_alone_and_per_view(
    seed, adversary, no_instance
):
    """One ``make_po_kernel`` call over sub-runs with different L, block
    counts and STV repetitions gives every member the slices its own
    kernel gives it, and every kernel-decided node the per-view verdict."""
    pending = _po_pending(adversary, seed, no_instance)
    pms = [p.kernel_params for p in pending]
    assert {pm.lr.L for pm in pms} == {2, 3, 4, 5, 6}
    assert {pm.lr.n_blocks > 1 for pm in pms} == {False, True}
    assert {pm.t for pm in pms} == {2, 3}
    members = [
        (p.interaction.graph, p.interaction.transcript, p.kernel_params)
        for p in pending
    ]
    merged = run_kernel(pending[0].make_kernel, members)
    for p, member, out in zip(pending, members, merged):
        (alone,) = run_kernel(p.make_kernel, [member])
        ok, fallback = out
        assert (ok == alone[0]).all() and (fallback == alone[1]).all()
        per_view = p.interaction.decide(p.check, **p.kwargs)
        rejecting = set(per_view.rejecting_nodes)
        for v in range(member[0].n):
            if not fallback[v]:
                assert bool(ok[v]) == (v not in rejecting), (member[0].n, v)
        if adversary is None and not no_instance:
            assert per_view.accepted and not fallback.any()


# -- observability ----------------------------------------------------------


class TestMetricsCounters:
    def test_vector_counters_accumulate(self):
        spec = get_task("planarity")
        with metrics.enabled_metrics() as reg:
            BatchRunner(spec.protocol(), spec.yes_factory).run(1, 48, seed=2)
            decided = reg.counter("repro_vector_decide_nodes_total").value()
            fallback = reg.counter("repro_vector_fallback_nodes_total").value()
        assert decided > 0
        assert fallback >= 0

    @pytest.mark.parametrize(
        "task,fake", [("lr_sorting", None), ("planarity", "per_view_decide")]
    )
    def test_counters_silent_without_a_kernel(self, task, fake, request):
        """Nodes the per-view checker decides are never counted as kernel
        nodes: ``lr_sorting`` has no kernel, and under the
        ``per_view_decide`` fake no kernel decides anything."""
        if fake is not None:
            request.getfixturevalue(fake)
        spec = get_task(task)
        with metrics.enabled_metrics() as reg:
            BatchRunner(spec.protocol(), spec.yes_factory).run(1, 48, seed=2)
            assert reg.counter("repro_vector_decide_nodes_total").value() == 0
            assert reg.counter("repro_vector_fallback_nodes_total").value() == 0


# -- view aliasing regression (satellite: immutable shared rows) ------------


class TestViewAliasingPinned:
    def test_shared_rows_and_inputs_are_immutable(self):
        g = Graph(3, [(0, 1), (1, 2)])
        t = Transcript()
        t.add_prover_round({v: EMPTY_LABEL for v in range(3)})
        views = build_views(g, t, shared_inputs={0: {"a": 1}, 1: {}, 2: {}})
        # all-empty edge rows of equal degree are one shared tuple ...
        assert views[0].edge_labels[0] is views[2].edge_labels[0]
        # ... and neither they nor the shared-input copies are writable
        with pytest.raises(TypeError):
            views[0].edge_labels[0][0] = None
        with pytest.raises(TypeError):
            views[1].neighbor_inputs[0]["a"] = 2
        assert views[1].neighbor_inputs[0]["a"] == 1
