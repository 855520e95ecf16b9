"""Property tests: label introspection survives the mutation engine.

The fuzzing subsystem relies on three structural guarantees of
:class:`repro.core.labels.Label`:

1. ``walk()`` enumerates exactly the wire leaves (recursing through
   nested sub-labels, the shape ``nest_labels`` produces);
2. ``with_value(path, value_at_path)`` is the identity, bit-exactly --
   traversal and re-encoding never perturb untouched fields;
3. ``with_value(path, other)`` changes *only* the addressed leaf and
   preserves every other declared width; the addressed leaf keeps its
   width too, except a ``maybe`` mutated to ``None`` (BOTTOM), which
   legally drops its value bits from the wire.

``with_value`` is a payload splice, so a fourth property pins it to the
labels' one constructor path: an edited label is the very schema object
and payload that :class:`LabelFormat` / :func:`nest_labels` build from the
edited values.

Random nested structures are generated with hypothesis.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.mutation import MUTATION_OPS, MutationTap
from repro.core.labels import EMPTY_LABEL, Label, LabelFormat, nest_labels

SMALL_PRIMES = (3, 5, 7, 13, 31, 251)


@st.composite
def leaf_field(draw, name):
    """Attach one random leaf field to a label under construction."""
    kind = draw(st.sampled_from(["uint", "flag", "felem", "maybe"]))
    if kind == "uint":
        width = draw(st.integers(1, 12))
        value = draw(st.integers(0, 2**width - 1))
        return lambda lbl: lbl.uint(name, value, width)
    if kind == "flag":
        value = draw(st.booleans())
        return lambda lbl: lbl.flag(name, value)
    if kind == "felem":
        p = draw(st.sampled_from(SMALL_PRIMES))
        value = draw(st.integers(0, p - 1))
        return lambda lbl: lbl.field_elem(name, value, p)
    width = draw(st.integers(0, 6))
    value = draw(st.none() | st.integers(0, max(0, 2**width - 1)))
    return lambda lbl: lbl.maybe(name, value, width)


@st.composite
def labels(draw, depth=2):
    """A random label: leaves plus (when depth allows) nested sub-labels."""
    lbl = Label()
    for i in range(draw(st.integers(0, 4))):
        draw(leaf_field(f"f{i}"))(lbl)
    if depth > 0:
        for j in range(draw(st.integers(0, 2))):
            lbl.sub(f"s{j}", draw(labels(depth=depth - 1)))
    return lbl


@given(labels())
@settings(max_examples=150, deadline=None)
def test_with_value_identity_roundtrip(lbl):
    """Re-encoding any leaf with its own value is bit-exact identity."""
    for path, kind, value, width in lbl.walk():
        out = lbl.with_value(path, value)
        assert out == lbl
        assert out.bit_size() == lbl.bit_size()


@given(labels())
@settings(max_examples=150, deadline=None)
def test_walk_enumerates_exactly_the_wire_bits(lbl):
    """Leaf widths sum to the label's declared wire size."""
    assert sum(width for _, _, _, width in lbl.walk()) == lbl.bit_size()
    for path, kind, value, width in lbl.walk():
        assert kind in ("uint", "flag", "felem", "maybe")


@given(labels(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_single_mutation_is_local_and_width_preserving(lbl, rng):
    """Any engine mutation changes one leaf and no declared width."""
    sites = [
        (path, kind, value, width)
        for path, kind, value, width in lbl.walk()
        if width > 0 and not (kind == "maybe" and value is None)
    ]
    if not sites:
        return
    path, kind, value, width = rng.choice(sites)
    tap = MutationTap(rng, target_round=1, op=rng.choice(list(MUTATION_OPS)))
    op = tap.op if tap.op != "swap_between_nodes" else "rerandomize"
    store = {0: lbl}
    applied, new, partner = tap._apply(
        rng, store, [("node", 0, path, kind, value, width)],
        "node", 0, path, kind, value, width, op,
    )
    mutated = store[0]
    before = {p: (k, v, w) for p, k, v, w in lbl.walk()}
    after = {p: (k, v, w) for p, k, v, w in mutated.walk()}
    assert set(before) == set(after)
    changed = [p for p in before if before[p] != after[p]]
    assert changed == [path]
    assert after[path][1] != value  # a fired mutation always changes the wire
    if kind == "maybe" and after[path][1] is None:
        # sending BOTTOM legally drops the value bits from the wire
        assert mutated.bit_size() == lbl.bit_size() - (width - 1)
    else:
        assert after[path][2] == width
        assert mutated.bit_size() == lbl.bit_size()


@given(st.lists(labels(depth=1), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_nest_labels_nests_and_roundtrips(parts):
    """nest_labels output walks as prefixed leaves and re-encodes exactly."""
    names = tuple(f"stage{i}" for i in range(len(parts)))
    named = dict(zip(names, parts))
    merged = nest_labels(names, parts)
    assert merged.bit_size() == sum(p.bit_size() for p in parts)
    for name, part in named.items():
        assert merged[name] == part
    for path, kind, value, width in merged.walk():
        stage = path[0]
        assert stage in named
        inner = named[stage]
        assert inner.with_value(path[1:], value) == inner
        assert merged.with_value(path, value) == merged


# -- the splice equals a fresh pack ---------------------------------------------


@st.composite
def leaf_spec(draw, name):
    """One format field ``(name, kind, param)`` and a legal value for it."""
    kind = draw(st.sampled_from(["uint", "flag", "felem", "maybe"]))
    if kind == "uint":
        width = draw(st.integers(0, 12))
        return (name, kind, width), draw(st.integers(0, 2**width - 1))
    if kind == "flag":
        return (name, kind, None), draw(st.booleans())
    if kind == "felem":
        p = draw(st.sampled_from(SMALL_PRIMES))
        return (name, kind, p), draw(st.integers(0, p - 1))
    width = draw(st.integers(0, 6))
    return (name, kind, width), draw(st.none() | st.integers(0, 2**width - 1))


@st.composite
def specs(draw, depth=2):
    """A label layout plus its values: a format's leaves, or (depth
    allowing) a nest of child layouts.  Returns ``(build, values,
    fields)``: ``build(values)`` packs the label from scratch, and
    ``values`` / ``fields`` map each leaf path to its value / format field."""
    if depth == 0 or draw(st.booleans()):
        fields = [draw(leaf_spec(f"f{i}")) for i in range(draw(st.integers(1, 4)))]
        fmt = LabelFormat([f for f, _ in fields])
        return (
            lambda values: fmt.pack([values[(f[0],)] for f, _ in fields]),
            {(f[0],): v for f, v in fields},
            {(f[0],): f for f, _ in fields},
        )
    children = [draw(specs(depth=depth - 1)) for _ in range(draw(st.integers(1, 3)))]
    names = tuple(f"s{j}" for j in range(len(children)))

    def build(values):
        subs = [
            child({path[1:]: v for path, v in values.items() if path[0] == name})
            for name, (child, _, _) in zip(names, children)
        ]
        return nest_labels(names, subs)

    values, fields = {}, {}
    for name, (_, child_values, child_fields) in zip(names, children):
        for path, v in child_values.items():
            values[(name,) + path] = v
            fields[(name,) + path] = child_fields[path]
    return build, values, fields


def legal_edits(field, old):
    """Values a format accepts for ``field`` (maybe: None, or a value
    while one is present; an absent maybe only takes None)."""
    _, kind, param = field
    if kind == "flag":
        return st.booleans()
    if kind == "felem":
        return st.integers(0, param - 1)
    if kind == "maybe":
        return st.none() if old is None else st.none() | st.integers(0, 2**param - 1)
    return st.integers(0, 2**param - 1)


@given(specs(), st.data())
@settings(max_examples=200, deadline=None)
def test_with_value_equals_a_fresh_pack(spec, data):
    """An edit is the label a format packs from the edited values: the same
    schema object (a maybe set to None included) and the same payload."""
    build, values, fields = spec
    lbl = build(values)
    assert sorted(path for path, _, _, _ in lbl.walk()) == sorted(values)
    path = data.draw(st.sampled_from(sorted(values)))
    new = data.draw(legal_edits(fields[path], values[path]))
    edited = lbl.with_value(path, new)
    fresh = build({**values, path: new})
    assert edited.pack()[0] is fresh.pack()[0]
    assert edited.payload_int() == fresh.payload_int()
    assert edited == fresh and type(edited) is type(fresh)
    assert lbl.with_value(path, values[path]) == lbl  # the unchanged edit


def _edit_error_label():
    return (
        Label()
        .uint("x", 3, 4)
        .field_elem("z", 2, 5)
        .flag("b", True)
        .maybe("m", 7, 5)
        .maybe("a", None, 5)
        .sub("s", Label().uint("raw", 5, 3))
    )


@pytest.mark.parametrize(
    "path, value, text",
    [
        (("x",), 16, "x=16 does not fit in 4 bits"),
        (("x",), -1, "x: uint replacement must be a non-negative int"),
        (("x",), True, "x: uint replacement must be a non-negative int"),
        (("x",), "3", "x: uint replacement must be a non-negative int"),
        (("z",), 8, "z=8 does not fit in 3 bits"),
        (("z",), -2, "z: felem replacement must be a non-negative int"),
        (("z",), 1.0, "z: felem replacement must be a non-negative int"),
        (("b",), 1, "b: flag replacement must be bool"),
        (("m",), 32, "m=32 does not fit in 5 bits"),
        (("m",), -1, "m: maybe replacement must be a non-negative int"),
        (("m",), False, "m: maybe replacement must be a non-negative int"),
        (
            ("a",), 2,
            "a: cannot add a value to an absent maybe field "
            "(its value width is not on the wire)",
        ),
        (("s", "raw"), 8, "raw=8 does not fit in 3 bits"),
        (("s",), 3, "s: sub-label replacement must be a Label"),
    ],
)
def test_with_value_error_texts(path, value, text):
    """Out-of-width, negative and wrong-type edits raise one ValueError
    each, naming the field."""
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        _edit_error_label().with_value(path, value)


def test_with_value_rejects_structural_violations():
    lbl = Label().uint("x", 3, 4).flag("b", True).maybe("m", None, 5)
    lbl.sub("s", Label().uint("raw", 5, 3))
    with pytest.raises(ValueError):
        lbl.with_value(("x",), 16)  # does not fit 4 bits
    with pytest.raises(ValueError):
        lbl.with_value(("b",), 1)  # flags stay boolean
    with pytest.raises(ValueError):
        lbl.with_value(("m",), 2)  # absent maybe cannot gain a value
    with pytest.raises(ValueError):
        lbl.with_value(("s", "raw"), 8)  # width must be kept
    with pytest.raises(ValueError):
        lbl.with_value((), 0)
    with pytest.raises(KeyError):
        lbl.with_value(("nope",), 0)
    with pytest.raises(KeyError):
        lbl.with_value(("x", "deeper"), 0)  # cannot descend into a leaf


def test_with_value_replaces_a_sub_label_and_keeps_the_rest():
    lbl = Label().uint("x", 3, 4).sub("s", Label().uint("raw", 5, 3)).flag("b", True)
    out = lbl.with_value(("s",), Label().flag("f", False).uint("y", 9, 6))
    sub = Label().flag("f", False).uint("y", 9, 6)
    assert out == Label().uint("x", 3, 4).sub("s", sub).flag("b", True)
    assert lbl.with_value(("s",), EMPTY_LABEL).bit_size() == 5


def test_with_value_allows_out_of_range_semantics():
    """Adversarial replacement is width-checked, not semantics-checked:
    a field-element slot may carry any pattern of its width (e.g. >= p)."""
    lbl = Label().field_elem("z", 2, 5)  # F_5 -> 3-bit slot
    out = lbl.with_value(("z",), 7)  # 7 >= p, but fits 3 bits
    assert out["z"] == 7
    assert out.bit_size() == lbl.bit_size()


def test_maybe_to_none_under_a_nest_takes_the_absent_schema():
    fmt = LabelFormat((("a", "uint", 3), ("m", "maybe", 4), ("b", "flag", None)))
    lbl = nest_labels(("x", "y"), (fmt.pack((5, 9, True)), fmt.pack((1, None, False))))
    edited = lbl.with_value(("x", "m"), None)
    fresh = nest_labels(("x", "y"), (fmt.pack((5, None, True)), fmt.pack((1, None, False))))
    assert edited.pack()[0] is fresh.pack()[0] and edited.payload_int() == fresh.payload_int()
    assert edited.bit_size() == lbl.bit_size() - 4
    assert edited["x"]["b"] is True and edited["y"] == lbl["y"]
