"""Columnar decide path: extraction equivalence, gating, and fallback.

The vectorized kernels of ``core/columnar.py`` are only allowed to exist
because the column extraction is *provably* the same decode the per-view
path performs:

1. for every label the builders can produce, the shift/mask extraction
   plan yields the same field values as ``PackedLabel``/tree decode,
   field by field, on both packed and generic-builder (tree) rows
   (Hypothesis drives this over random nested labels);
2. the leaf shifts agree with :func:`wire_leaf_span` -- the columns read
   exactly the bits the mutation engine reports as the field's wire span;
3. every gate (escape hatch, missing numpy, size floor) degrades to the
   per-view path without changing a single verdict.

Byte-identity of full batch reports across vector on/off is pinned by
``test_wire_differential.py``; this module covers the layer below.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st  # noqa: F401  (strategy re-export)

from repro.core import columnar
from repro.core.columnar import (
    MISSING,
    NONE,
    extract_columns,
    numpy_available,
    run_kernel,
    vector_decide_disabled,
    vector_min_nodes,
)
from repro.core.labels import EMPTY_LABEL, BitString, PackedLabel, wire_leaf_span
from repro.core.network import Graph, path_graph
from repro.core.transcript import Transcript
from repro.core.views import build_views
from repro.obs import metrics
from repro.runtime.registry import get_task
from repro.runtime.runner import BatchRunner

from test_wire_format import labels, _rebuild

np = columnar._numpy()

needs_numpy = pytest.mark.skipif(np is None, reason="numpy not installed")


# -- expected-value oracle --------------------------------------------------


def _specs_and_expected(lbl):
    """Every leaf/sub path of ``lbl`` as column specs, with the value the
    per-view decode yields (and whether the leaf is uncoverable)."""
    specs = []
    expected = []  # (column value, contributes to the row's uncover flag)

    def walk(node, prefix):
        for name, kind, value, width in node.fields():
            path = prefix + (name,)
            if kind == "label":
                specs.append((path, True, False))
                expected.append((1, False))
                walk(value, path)
            elif kind in ("uint", "felem"):
                specs.append((path, False, False))
                expected.append((int(value), False))
            elif kind == "flag":
                specs.append((path, False, False))
                expected.append((1 if value else 0, False))
            elif kind == "maybe":
                specs.append((path, False, False))
                if value is None:
                    expected.append((NONE, False))
                elif isinstance(value, BitString):
                    expected.append((MISSING, True))
                else:
                    expected.append((int(value), False))
            else:  # bits: BitString-valued, no int64 form
                specs.append((path, False, False))
                expected.append((MISSING, True))

    walk(lbl, ())
    # absent paths read as MISSING in both query modes
    specs.append((("__absent__",), False, False))
    expected.append((MISSING, False))
    specs.append((("__absent__",), True, False))
    expected.append((MISSING, False))
    return tuple(specs), expected


def _check_extraction(lbl):
    specs, expected = _specs_and_expected(lbl)
    # a fresh structural copy stays tree-backed (pack() would seal the
    # original to its wire form, taking the packed-plan path instead)
    tree_row = _rebuild(lbl)
    schema, payload = lbl.pack()
    wire_row = PackedLabel._from_payload(schema, payload)
    rows = [tree_row, wire_row, None]
    cols, uncover = extract_columns(np, rows, specs)
    assert len(cols) == len(specs)
    for j, (want, _) in enumerate(expected):
        assert cols[j][0] == want, (specs[j], "tree")
        assert cols[j][1] == want, (specs[j], "wire")
        assert cols[j][2] == MISSING, (specs[j], "absent row")
    want_bad = any(bad for _, bad in expected)
    assert bool(uncover[0]) == want_bad
    assert bool(uncover[1]) == want_bad
    assert not uncover[2]


@needs_numpy
class TestExtractionProperty:
    @given(labels())
    @settings(max_examples=150, deadline=None)
    def test_columnar_matches_decode_field_by_field(self, lbl):
        _check_extraction(lbl)

    @given(labels())
    @settings(max_examples=100, deadline=None)
    def test_leaf_shifts_agree_with_wire_leaf_span(self, lbl):
        """The columns read exactly the bits wire_leaf_span reports."""
        schema, _ = lbl.pack()
        total = schema.total_width
        for path, kind, value, width in lbl.walk():
            spec = columnar._resolve_spec(schema, tuple(path), False, False)
            offset, span_width = wire_leaf_span(lbl, path)
            if kind in ("uint", "felem", "flag"):
                assert spec == ("leaf", total - offset - width, (1 << width) - 1)
                assert span_width == width
            elif kind == "maybe" and not isinstance(value, BitString):
                # span covers presence bit + value bits, like the spec
                assert spec == ("maybe", total - offset - span_width, span_width)
            else:  # bits: BitString-valued, per-row fallback
                assert spec == ("uncover",)


# -- gates ------------------------------------------------------------------


class TestGates:
    def test_hatch_flag_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISABLE_VECTOR_DECIDE", raising=False)
        assert not vector_decide_disabled()
        monkeypatch.setenv("REPRO_DISABLE_VECTOR_DECIDE", "0")
        assert not vector_decide_disabled()
        monkeypatch.setenv("REPRO_DISABLE_VECTOR_DECIDE", "1")
        assert vector_decide_disabled()

    def test_min_nodes_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_VECTOR_MIN_NODES", raising=False)
        assert vector_min_nodes() == columnar.DEFAULT_MIN_NODES
        monkeypatch.setenv("REPRO_VECTOR_MIN_NODES", "7")
        assert vector_min_nodes() == 7
        monkeypatch.setenv("REPRO_VECTOR_MIN_NODES", "junk")
        assert vector_min_nodes() == columnar.DEFAULT_MIN_NODES

    def test_run_kernel_gates_fire_before_the_kernel(self, monkeypatch):
        calls = []

        def kernel(ctx):
            calls.append(ctx)

        g = path_graph(4)
        monkeypatch.setenv("REPRO_DISABLE_VECTOR_DECIDE", "1")
        assert run_kernel(kernel, [(g, None)]) == [None]
        monkeypatch.delenv("REPRO_DISABLE_VECTOR_DECIDE", raising=False)
        monkeypatch.delenv("REPRO_VECTOR_MIN_NODES", raising=False)
        # below the size floor, and the degenerate edgeless case (an
        # edgeless member adds nothing to its class union either)
        assert run_kernel(kernel, [(g, None)]) == [None]
        assert run_kernel(kernel, [(Graph(64), None)]) == [None]
        assert run_kernel(kernel, [(g, None), (Graph(64), None)]) == [None, None]
        assert calls == []

    def test_run_kernel_without_numpy(self, monkeypatch):
        monkeypatch.setattr(columnar, "_NP", None)
        monkeypatch.setattr(columnar, "_NP_CHECKED", True)
        monkeypatch.delenv("REPRO_DISABLE_VECTOR_DECIDE", raising=False)
        assert not numpy_available()
        g = path_graph(64)
        assert run_kernel(lambda ctx: None, [(g, None)]) == [None]


# -- fallback equivalence ---------------------------------------------------


class TestNumpyAbsentFallback:
    def test_batch_identical_without_numpy(self, monkeypatch):
        """The pure-Python fallback is observationally the vector path."""
        monkeypatch.delenv("REPRO_DISABLE_VECTOR_DECIDE", raising=False)
        spec = get_task("planarity")

        def run():
            runner = BatchRunner(spec.protocol(), spec.yes_factory)
            return runner.run(2, 40, seed=3).canonical_json()

        with_np = run()
        monkeypatch.setattr(columnar, "_NP", None)
        monkeypatch.setattr(columnar, "_NP_CHECKED", True)
        assert run() == with_np

    def test_batch_identical_with_hatch(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISABLE_VECTOR_DECIDE", raising=False)
        spec = get_task("treewidth2")

        def run():
            runner = BatchRunner(spec.protocol(), spec.yes_factory)
            return runner.run(2, 40, seed=3).canonical_json()

        vector = run()
        monkeypatch.setenv("REPRO_DISABLE_VECTOR_DECIDE", "1")
        assert run() == vector


# -- observability ----------------------------------------------------------


@needs_numpy
class TestMetricsCounters:
    def test_vector_counters_accumulate(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISABLE_VECTOR_DECIDE", raising=False)
        spec = get_task("planarity")
        with metrics.enabled_metrics() as reg:
            BatchRunner(spec.protocol(), spec.yes_factory).run(1, 48, seed=2)
            decided = reg.counter("repro_vector_decide_nodes_total").value()
            fallback = reg.counter("repro_vector_fallback_nodes_total").value()
        assert decided > 0
        assert fallback >= 0

    def test_counters_silent_with_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_VECTOR_DECIDE", "1")
        spec = get_task("planarity")
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
