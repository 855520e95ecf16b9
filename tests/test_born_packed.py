"""Born-packed label formats equal the chained builder's labels.

The fixed layouts the columnar kernels read -- Lemma-2.3 forest
encodings, the Lemma-2.4 setup and fold wrappers, the STV round-3
labels, and every path-outerplanarity node, edge and wrapper format --
are built as :class:`PackedLabel` at birth.  They may only exist
because, for the values a prover can send, each one is the very label
the chained ``Label()`` builder makes from the same values, field by
field:

1. equal under ``==`` (both ways), ``hash``, ``pack()``, ``wire_bytes()``,
   ``bit_size()``, ``walk()`` and per-field ``get()`` / ``[]`` / ``in``,
   for n in {2, 4, 16, 64, 1024}, both ``maybe`` states and every
   optional field present or left out;
2. an out-of-width value raises the same ``ValueError`` from both
   builders, and the protocol turns it into a ``ProtocolError``;
3. a schema-indexed ``get()`` of a sub-label agrees with the full field
   decode and returns the same child object every time (the per-view
   decode caches key on that identity).
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import EMPTY_LABEL, OMIT, Label, PackedLabel, nest_labels
from repro.core.network import Graph
from repro.core.protocol import ProtocolError
from repro.primitives.edge_labels import EDGE_KEYS, FOREST_KEYS, _SimulationSlice
from repro.primitives.forest_encoding import COLOR_BITS, FOREST_FORMAT
from repro.primitives.spanning_tree_verification import STV_FIELD, round3_format
from repro.protocols.path_outerplanarity import (
    HonestPathOuterplanarityProver,
    PathOuterplanarityParams,
    PathOuterplanarityProtocol,
    RoundColumns,
    _emit,
    _pack_nodes,
    _po_formats,
)
from repro.runtime.registry import get_task
from repro.runtime.seeds import SeedSequence

NS = (2, 4, 16, 64, 1024)
PROTO = PathOuterplanarityProtocol()
PARAMS = {n: PathOuterplanarityParams(n) for n in NS}


# -- the equivalence oracle ---------------------------------------------------


def assert_same(packed, tree):
    """``packed`` (born packed) is ``tree`` (chained builder) in every view."""
    assert type(packed) is PackedLabel and isinstance(tree, Label)
    assert packed == tree and tree == packed
    assert hash(packed) == hash(tree)
    assert packed.bit_size() == tree.bit_size()
    assert list(packed.names()) == list(tree.names())
    assert list(packed.walk()) == list(tree.walk())
    for name, kind, value, width in tree.fields():
        assert name in packed
        got = packed.get(name)
        assert got is packed.get(name) or kind != "label"
        if kind == "label":
            assert_same(got, value)
            assert packed[name] is got
        else:
            assert got == value and type(got) is type(value)
            assert packed[name] == value
    assert "__absent__" not in packed
    assert packed.get("__absent__", 7) == 7
    with pytest.raises(KeyError):
        packed["__absent__"]
    assert packed.pack() == tree.pack()
    assert packed.wire_bytes() == tree.wire_bytes()
    assert pickle.loads(pickle.dumps(packed)) == tree


def same_error(born, generic):
    """Both builders raise ValueError, with the same message."""
    with pytest.raises(ValueError) as a:
        born()
    with pytest.raises(ValueError) as b:
        generic()
    assert str(a.value) == str(b.value)


# -- value strategies -----------------------------------------------------------


def uints(width):
    return st.integers(0, (1 << width) - 1)


def felems(p):
    return st.integers(0, p - 1)


@st.composite
def forest_values(draw):
    return (
        draw(uints(COLOR_BITS)),
        draw(uints(COLOR_BITS)),
        draw(uints(1)),
        draw(st.booleans()),
    )


def forest_tree(values):
    c1, c2, parity, is_root = values
    return (
        Label()
        .uint("c1", c1, COLOR_BITS)
        .uint("c2", c2, COLOR_BITS)
        .uint("parity", parity, 1)
        .flag("is_root", is_root)
    )


@st.composite
def lr1_fields(draw, pm):
    iw = pm.lr.index_width
    f = {"idx": draw(uints(iw))}
    if pm.lr.n_blocks > 1:
        for key, width in (("x1bit", 1), ("x2bit", 1), ("side", 2)):
            f[key] = draw(uints(width))
        f["M"] = draw(st.one_of(st.just(OMIT), uints(iw)))  # both optional states
    return f


def lr1_tree(pm, f):
    iw = pm.lr.index_width
    lbl = Label().uint("idx", f["idx"], iw)
    if pm.lr.n_blocks > 1:
        for key, width in (("x1bit", 1), ("x2bit", 1), ("side", 2)):
            lbl.uint(key, f[key], width)
        if f["M"] is not OMIT:
            lbl.uint("M", f["M"], iw)
    return lbl


@st.composite
def e1_fields(draw, pm):
    f = {key: draw(st.booleans()) for key in ("inner", "fwd", "ltail", "lhead")}
    f["I"] = OMIT if f["inner"] else draw(uints(pm.lr.index_width))
    return f


def e1_tree(pm, f):
    lbl = Label().flag("inner", f["inner"])
    if f["I"] is not OMIT:
        lbl.uint("I", f["I"], pm.lr.index_width)
    for key in ("fwd", "ltail", "lhead"):
        lbl.flag(key, f[key])
    return lbl


def lr3_keys(pm):
    keys = ("rb",)
    if pm.lr.n_blocks > 1:
        keys += ("r", "rp", "pfx2_r", "sfx1_r", "pfx1_rp")
    return keys


@st.composite
def r3_fields(draw, pm):
    t = pm.t
    stv = [draw(felems(STV_FIELD.p)) for _ in range(2 * t)]
    lr = {}
    if draw(st.booleans()):  # the lr sub-label present, or 0-bit
        lr = {key: draw(felems(pm.lr.p)) for key in lr3_keys(pm)}
    nest = {
        "above": draw(st.one_of(st.none(), uints(2 * pm.w))),  # both maybe states
        "has_left": draw(st.booleans()),
        "has_right": draw(st.booleans()),
    }
    return stv, lr, nest


def stv_tree(t, values):
    lbl = Label()
    for j in range(t):
        lbl.field_elem(f"s{j}", values[2 * j], STV_FIELD.p)
        lbl.field_elem(f"Z{j}", values[2 * j + 1], STV_FIELD.p)
    return lbl


def r3_tree(pm, stv, lr, nest):
    lr_lbl = Label()
    for key in lr3_keys(pm) if lr else ():
        lr_lbl.field_elem(key, lr[key], pm.lr.p)
    nest_lbl = (
        Label()
        .maybe("above", nest["above"], 2 * pm.w)
        .flag("has_left", nest["has_left"])
        .flag("has_right", nest["has_right"])
    )
    return (
        Label()
        .sub("stv", stv_tree(pm.t, stv))
        .sub("lr", lr_lbl)
        .sub("nest", nest_lbl)
    )


@st.composite
def e3_fields(draw, pm):
    return {
        "jval": draw(st.one_of(st.just(OMIT), felems(pm.lr.p))),
        "name_t": draw(uints(pm.w)),
        "name_h": draw(uints(pm.w)),
        "succ": draw(st.one_of(st.none(), uints(2 * pm.w))),  # both maybe states
    }


def e3_tree(pm, f):
    lbl = Label()
    if f["jval"] is not OMIT:
        lbl.field_elem("jval", f["jval"], pm.lr.p)
    lbl.uint("name_t", f["name_t"], pm.w)
    lbl.uint("name_h", f["name_h"], pm.w)
    lbl.maybe("succ", f["succ"], 2 * pm.w)
    return lbl


def values(fmt, f):
    """A field dict as the format's value sequence."""
    return [f[name] for name in fmt.names]


def one_row(**subs):
    """A one-node round: each sub-label's field dict (``{}``: 0-bit)."""
    return RoundColumns(
        {key: {name: [v] for name, v in f.items()} or None for key, f in subs.items()}
    )


class _Capture:
    """The interaction :func:`_emit` sends to: it keeps the labels."""

    def __init__(self, n):
        self.graph = Graph(n, [(0, 1)] if n == 2 else [])

    def prover_round(self, labels, edge_labels):
        self.labels, self.edge_labels = labels, edge_labels


def emitted(node_formats, rc):
    """The one-node graph's round label, as the protocol sends it."""
    out = _Capture(1)
    _emit(out, None, 1, rc, node_formats, None)
    return out.labels[0]


def sent_tree(node_tree):
    """The chained-builder form of a sent label with no edges and no setup."""
    return Label().sub("node", node_tree).sub("edges", Label())


R5_KEYS = ("rq0", "rq1", "A0", "A1", "B0", "B1")


def r5_tree(pm, lr):
    lr_lbl = Label()
    for key in R5_KEYS if lr else ():
        lr_lbl.field_elem(key, lr[key], pm.lr.p2)
    return Label().sub("lr", lr_lbl)


ns = st.sampled_from(NS)


# -- 1. equivalence, format by format ------------------------------------------


class TestFormatsEqualGenericTrees:
    @given(forest_values())
    @settings(max_examples=60, deadline=None)
    def test_forest_encoding(self, values):
        assert_same(FOREST_FORMAT.pack(values), forest_tree(values))

    @given(ns, st.data())
    @settings(max_examples=60, deadline=None)
    def test_stv_round3(self, n, data):
        t = PARAMS[n].t
        values = data.draw(st.lists(felems(STV_FIELD.p), min_size=2 * t, max_size=2 * t))
        assert_same(round3_format(t).pack(values), stv_tree(t, values))

    @given(st.lists(forest_values(), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_setup_wrapper(self, forests):
        born = nest_labels(FOREST_KEYS, [FOREST_FORMAT.pack(v) for v in forests])
        tree = Label()
        for key, values in zip(FOREST_KEYS, forests):
            tree.sub(key, forest_tree(values))
        assert_same(born, tree)

    @given(ns, st.data())
    @settings(max_examples=80, deadline=None)
    def test_fold_wrapper(self, n, data):
        pm = PARAMS[n]
        fmts = _po_formats(pm)
        order = data.draw(st.permutations(range(3)))
        count = data.draw(st.integers(0, 3))
        edges = [data.draw(e1_fields(pm)) for _ in range(count)]
        names = tuple(EDGE_KEYS[i] for i in order[:count])
        born = nest_labels(names, [fmts.e1.pack(values(fmts.e1, f)) for f in edges])
        tree = Label()
        for name, f in zip(names, edges):
            tree.sub(name, e1_tree(pm, f))
        assert_same(born, tree)

    @given(ns, st.data())
    @settings(max_examples=80, deadline=None)
    def test_r1_node(self, n, data):
        pm = PARAMS[n]
        commit = data.draw(forest_values())
        lr = data.draw(st.one_of(st.just({}), lr1_fields(pm)))
        born = emitted(
            _po_formats(pm).node1,
            one_row(commit=dict(zip(FOREST_FORMAT.names, commit)), lr=lr),
        )
        tree = (
            Label()
            .sub("commit", forest_tree(commit))
            .sub("lr", lr1_tree(pm, lr) if lr else Label())
        )
        assert_same(born, sent_tree(tree))

    @given(ns, st.data())
    @settings(max_examples=80, deadline=None)
    def test_r1_edge(self, n, data):
        pm = PARAMS[n]
        f = data.draw(e1_fields(pm))
        fmt = _po_formats(pm).e1
        assert_same(fmt.pack(values(fmt, f)), e1_tree(pm, f))

    @given(ns, st.data())
    @settings(max_examples=80, deadline=None)
    def test_r3_node(self, n, data):
        pm = PARAMS[n]
        stv, lr, nest = data.draw(r3_fields(pm))
        stv_fields = dict(zip(round3_format(pm.t).names, stv))
        born = emitted(_po_formats(pm).node3, one_row(stv=stv_fields, lr=lr, nest=nest))
        assert_same(born, sent_tree(r3_tree(pm, stv, lr, nest)))

    @given(ns, st.data())
    @settings(max_examples=80, deadline=None)
    def test_r3_edge(self, n, data):
        pm = PARAMS[n]
        f = data.draw(e3_fields(pm))
        fmt = _po_formats(pm).e3
        assert_same(fmt.pack(values(fmt, f)), e3_tree(pm, f))

    @given(st.sampled_from(NS[1:]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_r5_node(self, n, data):
        pm = PARAMS[n]  # round 5 exists only with several blocks (n >= 4)
        lr = {}
        if data.draw(st.booleans()):
            lr = {key: data.draw(felems(pm.lr.p2)) for key in R5_KEYS}
        born = emitted(_po_formats(pm).node5, one_row(lr=lr))
        assert_same(born, sent_tree(r5_tree(pm, lr)))

    @given(ns, st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_emit_wrapper(self, n, with_setup, data):
        pm = PARAMS[n]
        fmts = _po_formats(pm)
        lrs = [data.draw(lr1_fields(pm)) for _ in range(2)]
        commits = [data.draw(forest_values()) for _ in range(2)]
        edge = data.draw(e1_fields(pm))
        forests = [data.draw(forest_values()) for _ in FOREST_KEYS]
        # a two-node graph whose one edge is node 0's to carry (forest 1)
        out = _Capture(2)
        sim = _SimulationSlice(out.graph, {(0, 1): (1, 0)}, {})
        rc = RoundColumns(
            {
                "commit": {
                    name: [c[i] for c in commits]
                    for i, name in enumerate(FOREST_FORMAT.names)
                },
                "lr": {key: [f[key] for f in lrs] for key in lrs[0]},
            },
            [(0, 1)],
            {key: [edge[key]] for key in edge},
        )
        setup = nest_labels(FOREST_KEYS, [FOREST_FORMAT.pack(v) for v in forests])
        _emit(out, sim, 1, rc, fmts.node1, fmts.e1, {0: setup, 1: setup} if with_setup else None)
        assert_same(out.edge_labels[(0, 1)], e1_tree(pm, edge))
        for v in (0, 1):
            node_tree = (
                Label()
                .sub("commit", forest_tree(commits[v]))
                .sub("lr", lr1_tree(pm, lrs[v]))
            )
            edges_tree = Label()
            if v == 0:
                edges_tree.sub(EDGE_KEYS[1], e1_tree(pm, edge))
            tree = Label().sub("node", node_tree).sub("edges", edges_tree)
            if with_setup:
                setup_tree = Label()
                for key, forest in zip(FOREST_KEYS, forests):
                    setup_tree.sub(key, forest_tree(forest))
                tree.sub("forests", setup_tree)
            assert_same(out.labels[v], tree)

    def test_empty_label_is_the_empty_tree(self):
        assert_same(EMPTY_LABEL, Label())
        assert_same(nest_labels((), ()), Label())


# -- 2. out-of-width values -----------------------------------------------------


def too_wide(width):
    return st.one_of(st.integers(1 << width, 1 << (width + 8)), st.just(-1))


def not_in_field(p):
    return st.one_of(st.integers(p, 4 * p), st.just(-1))


class TestOutOfWidth:
    @given(ns, st.data())
    @settings(max_examples=60, deadline=None)
    def test_lr1_fields(self, n, data):
        pm = PARAMS[n]
        fmts = _po_formats(pm)
        f = data.draw(lr1_fields(pm))
        keys = ["idx"]
        if pm.lr.n_blocks > 1:
            keys += ["x1bit", "x2bit", "side", "M"]
        key = data.draw(st.sampled_from(keys))
        width = {"x1bit": 1, "x2bit": 1, "side": 2}.get(key, pm.lr.index_width)
        f[key] = data.draw(too_wide(width))
        same_error(lambda: fmts.lr1.pack(values(fmts.lr1, f)), lambda: lr1_tree(pm, f))

    @given(ns, st.data())
    @settings(max_examples=40, deadline=None)
    def test_r1_edge_index(self, n, data):
        pm = PARAMS[n]
        f = data.draw(e1_fields(pm))
        f.update(inner=False, I=data.draw(too_wide(pm.lr.index_width)))
        fmt = _po_formats(pm).e1
        same_error(lambda: fmt.pack(values(fmt, f)), lambda: e1_tree(pm, f))

    @given(ns, st.data())
    @settings(max_examples=60, deadline=None)
    def test_r3_node_fields(self, n, data):
        pm = PARAMS[n]
        fmts = _po_formats(pm)
        stv, lr, nest = data.draw(r3_fields(pm))
        if data.draw(st.booleans()):
            lr = {key: 0 for key in lr3_keys(pm)}
            lr[data.draw(st.sampled_from(lr3_keys(pm)))] = data.draw(not_in_field(pm.lr.p))
        else:
            nest["above"] = data.draw(too_wide(2 * pm.w))
        rc = one_row(stv=dict(zip(round3_format(pm.t).names, stv)), lr=lr, nest=nest)
        same_error(lambda: _pack_nodes(rc, fmts.node3), lambda: r3_tree(pm, stv, lr, nest))

    @given(ns, st.data())
    @settings(max_examples=60, deadline=None)
    def test_r3_edge_fields(self, n, data):
        pm = PARAMS[n]
        f = data.draw(e3_fields(pm))
        key = data.draw(st.sampled_from(("jval", "name_t", "name_h", "succ")))
        if key == "jval":
            f[key] = data.draw(not_in_field(pm.lr.p))
        else:
            f[key] = data.draw(too_wide(pm.w if key != "succ" else 2 * pm.w))
        fmt = _po_formats(pm).e3
        same_error(lambda: fmt.pack(values(fmt, f)), lambda: e3_tree(pm, f))

    @given(st.sampled_from(NS[1:]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_r5_fields(self, n, data):
        pm = PARAMS[n]
        lr = {key: 0 for key in R5_KEYS}
        lr[data.draw(st.sampled_from(R5_KEYS))] = data.draw(not_in_field(pm.lr.p2))
        same_error(
            lambda: _pack_nodes(one_row(lr=lr), _po_formats(pm).node5),
            lambda: r5_tree(pm, lr),
        )

    @given(ns, st.data())
    @settings(max_examples=40, deadline=None)
    def test_stv_and_forest(self, n, data):
        t = PARAMS[n].t
        values = [0] * (2 * t)
        values[data.draw(st.integers(0, 2 * t - 1))] = data.draw(not_in_field(STV_FIELD.p))
        same_error(lambda: round3_format(t).pack(values), lambda: stv_tree(t, values))
        forest = list(data.draw(forest_values()))
        slot = data.draw(st.integers(0, 2))
        forest[slot] = data.draw(too_wide(COLOR_BITS if slot < 2 else 1))
        same_error(lambda: FOREST_FORMAT.pack(forest), lambda: forest_tree(forest))


def _instance(n: int):
    factory = get_task("path_outerplanarity").yes_factory
    ss = SeedSequence(3).child(0)
    if hasattr(factory, "build_seeded"):
        return factory.build_seeded(n, ss.child("instance").seed_int())
    return factory(n, ss.child("instance").rng())


class _WideProver(HonestPathOuterplanarityProver):
    """Honest, except one field of one round is pushed out of its width."""

    def __init__(self, instance, target):
        super().__init__(instance)
        self.target = target

    def round1(self, commit):
        rc = super().round1(commit)
        if self.target == "idx":
            rc.nodes["lr"]["idx"][0] = 1 << self.params.lr.index_width
        elif self.target == "I":
            rc.edge_columns["inner"][0] = False
            rc.edge_columns["I"][0] = -1
        return rc

    def round3(self, coins):
        rc = super().round3(coins)
        if self.target == "rb":
            rc.nodes["lr"]["rb"][0] = self.params.lr.p
        elif self.target == "above":
            rc.nodes["nest"]["above"][0] = 1 << (2 * self.params.w)
        elif self.target == "succ":
            rc.edge_columns["succ"][0] = -1
        return rc

    def round5(self, coins):
        rc = super().round5(coins)
        if self.target == "A0":
            rc.nodes["lr"]["A0"][0] = self.params.lr.p2
        return rc


@pytest.mark.parametrize("target", ["idx", "I", "rb", "above", "succ", "A0"])
def test_out_of_width_prover_value_is_a_protocol_error(target):
    instance = _instance(16)
    prover = _WideProver(instance, target)
    with pytest.raises(ProtocolError) as err:
        PROTO.execute(instance, prover=prover, rng=random.Random(1))
    assert isinstance(err.value.__cause__, ValueError)


# -- 3. indexed reads and child identity -----------------------------------------


def test_indexed_get_agrees_with_the_full_decode():
    instance = _instance(64)
    result = PROTO.execute(instance, rng=random.Random(2))
    assert result.accepted
    for rnd in result.transcript.prover_rounds():
        for lbl in list(rnd.labels.values()) + list(rnd.edge_labels.values()):
            assert type(lbl) is PackedLabel
            decoded = {name: value for name, _, value, _ in lbl.fields()}
            for name, value in decoded.items():
                got = lbl.get(name)
                assert got == value
                if isinstance(value, Label):
                    # one child object per sub-label, however it is read
                    assert got is value and lbl[name] is got and lbl.get(name) is got
