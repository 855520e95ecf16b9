"""The row reader against ``Label.get``, field by field.

:func:`repro.core.labels.read_rows` decodes many labels at once: it groups
them by schema and reads each group as value columns through one
shift/mask plan.  Whatever the labels, row ``i`` must hold exactly what
``Label.get`` reads from label ``i`` (from its ``node`` sub-label when it
has one), value and type alike.  Covered here:

- every LR-sorting layout (``lr_formats``) at n in {2, 3, 8, 32, 33, 1024}
  and c in {1, 2}, the optional ``M`` present and left out;
- native labels, labels nested under ``node`` (simulated edge labels) and
  the ``lr`` sub-labels of path-outerplanarity, from real runs too;
- labels edited by ``Label.with_value``: a ``maybe`` set to None, a
  field-element slot holding a value >= p, a replaced sub-label;
- rounds mixing several schemas, each row decoded under its own.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import (
    EMPTY_LABEL,
    OMIT,
    Label,
    field_elem_width,
    nest_labels,
    read_rows,
)
from repro.protocols.instances import PathOuterplanarInstance
from repro.protocols.lr_sorting import (
    EDGE_FIELDS,
    NODE_FIELDS,
    LRParams,
    LRSortingProtocol,
    _ABSENT,
    lr_formats,
)
from repro.protocols.path_outerplanarity import (
    PathOuterplanarityProtocol,
    _lr_rows,
    _sub,
    _unwrap,
)
from repro.runtime.registry import get_task

NS = (2, 3, 8, 32, 33, 1024)
CS = (1, 2)
#: every field name an LR row reads
ALL_NAMES = tuple(name for names in NODE_FIELDS + EDGE_FIELDS for name in names)


def reference(labels, names, within=None):
    """Row by row through ``Label.get``: what ``read_rows`` must return."""
    rows = []
    for lbl in labels:
        if within is not None:
            sub = lbl.get(within)
            if isinstance(sub, Label):
                lbl = sub
        rows.append(tuple(lbl.get(name, _ABSENT) for name in names))
    return rows


def assert_rows(labels, names, within=None):
    got = read_rows(labels, names, _ABSENT, within)
    want = reference(labels, names, within)
    assert len(got) == len(want)
    for row, expected in zip(got, want):
        assert row == expected
        # a flag reads as a bool, an int field as an int: same types too
        assert [type(x) for x in row] == [type(x) for x in expected]


def formats(n, c):
    pm = LRParams(n, c)
    multi = pm.n_blocks > 1
    return pm, lr_formats(pm.index_width, multi, pm.p, pm.p2 if multi else 0)


def layouts(n, c):
    """``(format, {name: strategy})`` of every layout of one parameter set."""
    pm, fmts = formats(n, c)
    iw = pm.index_width
    uint = lambda w: st.integers(0, (1 << w) - 1)  # noqa: E731
    felem = lambda p: st.integers(0, p - 1)  # noqa: E731
    node1 = {"idx": uint(iw), "x1bit": uint(1), "x2bit": uint(1), "side": uint(2),
             "M": st.one_of(st.just(OMIT), uint(iw))}
    out = [
        (fmts.node1, node1),
        (fmts.edge1, {"inner": st.booleans(), "I": st.one_of(st.just(OMIT), uint(iw))}),
        (fmts.node3, {name: felem(pm.p) for name in fmts.node3.names}),
        (fmts.edge3, {"jval": felem(pm.p)}),
    ]
    if fmts.node5 is not None:
        out.append((fmts.node5, {name: felem(pm.p2) for name in fmts.node5.names}))
    return pm, out


@st.composite
def lr_label(draw, n, c):
    """A label of one LR layout, possibly nested under ``node``."""
    _, options = layouts(n, c)
    fmt, fields = draw(st.sampled_from(options))
    label = fmt.pack([draw(fields[name]) for name in fmt.names])
    if draw(st.booleans()):
        extra = Label().uint("folded", draw(st.integers(0, 255)), 8)
        if draw(st.booleans()):
            label = nest_labels(("node", "edges"), (label, extra))
        else:
            label = nest_labels(("node", "edges", "forests"), (label, extra, EMPTY_LABEL))
    return label


@pytest.mark.parametrize("c", CS)
@pytest.mark.parametrize("n", NS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_every_layout_reads_like_label_get(n, c, data):
    """One layout per round: each row equals ``Label.get``, native or nested."""
    _, options = layouts(n, c)
    fmt, fields = data.draw(st.sampled_from(options))
    rows = data.draw(st.lists(
        st.tuples(*(fields[name] for name in fmt.names)), min_size=1, max_size=12))
    labels = [fmt.pack(values) for values in rows]
    names = fmt.names
    assert_rows(labels, names)
    assert_rows(labels, ALL_NAMES)  # fields of other rounds read as absent
    nested = [nest_labels(("node", "edges"), (lbl, EMPTY_LABEL)) for lbl in labels]
    assert_rows(nested, names, "node")
    assert_rows(labels, names, "node")  # no ``node`` sub: read in place


@pytest.mark.parametrize("c", CS)
@pytest.mark.parametrize("n", [n for n in NS if LRParams(n).n_blocks > 1])
def test_m_present_and_omitted(n, c):
    pm, fmts = formats(n, c)
    assert fmts.node1.names[-1] == "M"
    with_m = fmts.node1.pack((1, 1, 0, 2, 3))
    without = fmts.node1.pack((pm.L + 1, 0, 0, 2, OMIT))
    assert with_m.pack()[0] is not without.pack()[0]
    labels = [with_m, without, without, with_m]
    assert_rows(labels, NODE_FIELDS[0])
    rows = read_rows(labels, NODE_FIELDS[0], _ABSENT)
    assert rows[0][4] == 3 and rows[1][4] is _ABSENT


@given(data=st.data(), n=st.sampled_from(NS), c=st.sampled_from(CS))
@settings(max_examples=80, deadline=None)
def test_a_round_mixing_schemas_decodes_each_row_under_its_own(n, c, data):
    labels = data.draw(st.lists(lr_label(n, c), min_size=1, max_size=16))
    labels.insert(data.draw(st.integers(0, len(labels))), EMPTY_LABEL)
    for names in NODE_FIELDS + EDGE_FIELDS + (ALL_NAMES,):
        assert_rows(labels, names, "node")
        assert_rows(labels, names)


@given(data=st.data(), n=st.sampled_from(NS), c=st.sampled_from(CS))
@settings(max_examples=60, deadline=None)
def test_edited_labels(n, c, data):
    """``with_value`` edits: a value >= p, a maybe set to None, a
    replaced sub-label (one holding a maybe and a sub-label of its own)."""
    pm, fmts = formats(n, c)
    fw = field_elem_width(pm.p)
    node3 = fmts.node3.pack([0] * len(fmts.node3.names))
    name = data.draw(st.sampled_from(fmts.node3.names))
    beyond = data.draw(st.integers(pm.p, (1 << fw) - 1))
    wide = node3.with_value((name,), beyond)
    assert wide.get(name) == beyond
    iw = pm.index_width
    odd = Label().uint("idx", 1, iw).maybe("M", data.draw(st.integers(0, (1 << iw) - 1)), iw)
    odd = odd.sub("side", Label().flag("x", True))
    wrapped = nest_labels(("node", "edges"), (wide, EMPTY_LABEL))
    replaced = wrapped.with_value(("node",), odd)
    cleared = replaced.with_value(("node", "M"), None)
    assert cleared.get("node").get("M") is None
    flagged = fmts.edge1.pack((True, OMIT)).with_value(("inner",), False)
    labels = [wide, wrapped, replaced, cleared, odd, flagged, node3]
    data.draw(st.randoms()).shuffle(labels)
    for names in NODE_FIELDS + EDGE_FIELDS + (ALL_NAMES,):
        assert_rows(labels, names, "node")
        assert_rows(labels, names)


@pytest.mark.parametrize("simulate", [False, True], ids=["native", "simulated"])
@pytest.mark.parametrize("n", [2, 3, 8, 33])
def test_real_lr_runs(n, simulate):
    spec = get_task("lr_sorting")
    for seed in range(3):
        instance = spec.yes_factory(n, random.Random(seed))
        result = LRSortingProtocol(c=2, simulate_edge_labels=simulate).execute(
            instance, rng=random.Random(seed))
        rounds = result.transcript.prover_rounds()
        for i, names in enumerate(NODE_FIELDS):
            labels = list(rounds[i].labels.values()) if i < len(rounds) else []
            assert_rows(labels, names, "node")
        for i, names in enumerate(EDGE_FIELDS):
            assert_rows(list(rounds[i].edge_labels.values()), names)


@pytest.mark.parametrize("n", [4, 16, 33])
def test_path_outerplanarity_lr_sub_labels(n):
    """The composed protocol's reader: ``lr`` subs of its round labels."""
    factory = get_task("path_outerplanarity").yes_factory
    instance = factory(n, random.Random(n))
    assert isinstance(instance, PathOuterplanarInstance)
    result = PathOuterplanarityProtocol().execute(instance, rng=random.Random(1))
    rounds = result.transcript.prover_rounds()
    for i, names in enumerate(NODE_FIELDS):
        labels = list(rounds[i].labels.values()) + [EMPTY_LABEL]
        subs = []
        for lbl in labels:
            lr = _sub(_unwrap(lbl), "lr")
            subs.append(EMPTY_LABEL if lr is None else lr)
        assert _lr_rows(labels, names) == reference(subs, names)
    for i, names in enumerate(EDGE_FIELDS):
        assert_rows(list(rounds[i].edge_labels.values()), names)


@pytest.mark.parametrize("simulate", [False, True], ids=["native", "simulated"])
@pytest.mark.parametrize("n", [3, 33])
def test_label_get_rows_reads_like_the_plans(n, simulate, request):
    """The ``label_get_rows`` fake, the per-view reference that reads every
    field through ``Label.get``, returns the rows of the shift/mask plans
    on real LR rounds, value and type alike."""
    instance = get_task("lr_sorting").yes_factory(n, random.Random(n))
    result = LRSortingProtocol(c=2, simulate_edge_labels=simulate).execute(
        instance, rng=random.Random(n))
    rounds = result.transcript.prover_rounds()
    reads = [(list(r.labels.values()), names, "node") for r, names in zip(rounds, NODE_FIELDS)]
    reads += [(list(r.edge_labels.values()), names, None) for r, names in zip(rounds, EDGE_FIELDS)]
    planned = [read_rows(labels, names, _ABSENT, within) for labels, names, within in reads]
    request.getfixturevalue("label_get_rows")
    for (labels, names, within), rows in zip(reads, planned):
        got = read_rows(labels, names, _ABSENT, within)
        assert got == rows == reference(labels, names, within)
        assert [tuple(map(type, r)) for r in got] == [tuple(map(type, r)) for r in rows]
