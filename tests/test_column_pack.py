"""Column packing equals label-by-label packing.

The staged prover builds each round as value columns and packs every
``LabelFormat`` once per column set (``LabelFormat.pack_columns``).  That
is only sound because, row by row, it is exactly ``LabelFormat.pack``:

1. the same interned schema object and the same payload (hence the same
   wire bytes), for every path-outerplanarity, STV and forest format,
   both ``maybe`` states and every optional field present or omitted;
2. an out-of-range value raises the ``ValueError`` that ``pack`` raises on
   the first failing row, and names that row;
3. the column fold of Lemma 2.4 equals the label fold, and one union
   pass of Lemma 2.3 encodes every forest exactly as it is encoded alone.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import _F_OPTIONAL, OMIT, PackedLabel
from repro.graphs.generators import random_planar
from repro.graphs.spanning import RootedForest, bfs_spanning_tree
from repro.primitives.edge_labels import EdgeLabelSimulation
from repro.primitives.forest_encoding import FOREST_FORMAT, forest_encoding_columns
from repro.primitives.spanning_tree_verification import round3_format
from repro.protocols.path_outerplanarity import PathOuterplanarityParams, _po_formats

NS = (2, 4, 16, 64, 1024)


def _formats():
    out = {"forest": FOREST_FORMAT}
    for n in NS:
        pm = PathOuterplanarityParams(n)
        fmts = _po_formats(pm)
        out[f"stv-{n}"] = round3_format(pm.t)
        for name in ("lr1", "e1", "lr3", "nest", "e3", "lr5"):
            fmt = getattr(fmts, name)
            if fmt is not None:
                out[f"{name}-{n}"] = fmt
    return out


FORMATS = _formats()
formats = st.sampled_from(sorted(FORMATS))


def _cell(entry):
    """Valid values of one format field (``_fields`` entry)."""
    _, _, _, limit, _, kind = entry
    value = st.integers(0, limit - 1)
    if kind == "flag":
        return st.booleans()
    if kind == "maybe":
        return st.one_of(st.none(), value)  # both maybe states
    if entry[1] == _F_OPTIONAL:  # present or omitted
        return st.one_of(st.just(OMIT), value)
    return value


@st.composite
def rows_of(draw, fmt):
    n = draw(st.integers(0, 8))
    return [[draw(_cell(entry)) for entry in fmt._fields] for _ in range(n)]


def _columns(fmt, rows):
    return [[row[i] for row in rows] for i in range(len(fmt._fields))]


@given(formats, st.data())
@settings(max_examples=150, deadline=None)
def test_column_pack_is_the_per_label_pack(key, data):
    fmt = FORMATS[key]
    rows = data.draw(rows_of(fmt))
    schemas, payloads = fmt.pack_columns(_columns(fmt, rows))
    assert len(schemas) == len(payloads) == len(rows)
    for row, schema, payload in zip(rows, schemas, payloads):
        alone = fmt.pack(row)
        assert schema is alone._schema  # the interned schema itself
        assert payload == alone.payload_int()
        assert PackedLabel._from_payload(schema, payload).wire_bytes() == alone.wire_bytes()


@given(formats, st.data())
@settings(max_examples=150, deadline=None)
def test_out_of_range_raises_the_first_failing_rows_error(key, data):
    fmt = FORMATS[key]
    ranged = [i for i, entry in enumerate(fmt._fields) if entry[5] != "flag"]
    if not ranged:
        return
    rows = data.draw(rows_of(fmt).filter(bool))
    for _ in range(data.draw(st.integers(1, 3))):
        r = data.draw(st.integers(0, len(rows) - 1))
        i = data.draw(st.sampled_from(ranged))
        limit = fmt._fields[i][3]
        rows[r][i] = data.draw(st.one_of(st.integers(limit, 4 * limit), st.just(-1)))
    first = None
    for r, row in enumerate(rows):
        try:
            fmt.pack(row)
        except ValueError as exc:
            first = (r, str(exc))
            break
    assert first is not None
    with pytest.raises(ValueError) as err:
        fmt.pack_columns(_columns(fmt, rows))
    assert (err.value.row, str(err.value)) == first


def test_a_short_column_is_an_error():
    fmt = FORMATS["forest"]
    with pytest.raises(ValueError, match="rows"):
        fmt.pack_columns([[0, 0], [0, 0], [0], [True, False]])


@pytest.mark.parametrize("seed", range(4))
def test_column_fold_is_the_label_fold(seed):
    rng = random.Random(seed)
    g = random_planar(rng.randint(4, 40), rng)
    sim = EdgeLabelSimulation(g)
    fmt = FORMATS["e1-64"]
    edges = [e for e in g.edges() if rng.random() < 0.8]
    rows = [[rng.random() < 0.5, OMIT, True, False, rng.random() < 0.5] for _ in edges]
    schemas, payloads = fmt.pack_columns(_columns(fmt, rows))
    folded = sim.fold_round({e: fmt.pack(row) for e, row in zip(edges, rows)})
    fold_schemas, fold_payloads = sim.fold_columns(edges, schemas, payloads)
    for v in g.nodes():
        assert fold_schemas[v] is folded[v]._schema
        assert fold_payloads[v] == folded[v].payload_int()


@pytest.mark.parametrize("seed", range(6))
def test_union_forest_encoding_is_each_forest_alone(seed):
    rng = random.Random(seed)
    pairs = []
    for _ in range(rng.randint(1, 8)):
        g = random_planar(rng.randint(4, 60), rng)
        tree = bfs_spanning_tree(g, rng.randrange(g.n))
        keep = rng.random()  # a spanning tree, or a forest cut out of one
        parent = {v: p for v, p in tree.parent.items() if rng.random() <= keep}
        pairs.append((g, RootedForest(g.n, parent)))
    union = forest_encoding_columns(pairs)
    for pair, cols in zip(pairs, union):
        assert cols == forest_encoding_columns([pair])[0]
