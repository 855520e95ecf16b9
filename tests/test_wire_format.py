"""Property tests for the packed label wire format.

The packed representation is only allowed to exist because three
invariants hold *for every label the builders can produce*:

1. pack -> unpack is the identity, field by field, per kind;
2. the packed image occupies exactly the label's declared bit width
   (``bit_size()`` is the wire truth, not an estimate);
3. byte-level equality of packed images coincides with structural
   ``Label`` equality (schema identity + payload equality), which is
   what lets interning and shard dedup compare bytes instead of fields.

Hypothesis drives all three over randomized nested labels; a golden
fixture (``tests/data/wire_golden.json``) additionally pins the exact
on-wire bytes of one honest transcript per registered task, so any
layout change — intentional or not — fails loudly instead of silently
re-keying every shard buffer in the wild.
"""

import json
import os
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import (
    Label,
    PackedLabel,
    schema_from_desc,
    wire_leaf_span,
)
from repro.runtime.registry import get_task, task_names
from repro.runtime.seeds import SeedSequence

GOLDEN_PATH = Path(__file__).parent / "data" / "wire_golden.json"
GOLDEN_N = 20
GOLDEN_SEED = 5


# -- label strategy ---------------------------------------------------------

_LEAF_KINDS = ("uint", "flag", "felem", "maybe_none", "maybe_int")


@st.composite
def labels(draw, depth: int = 2) -> Label:
    """A random label built through the public builder API only."""
    kinds = _LEAF_KINDS + (("sub",) if depth > 0 else ())
    lbl = Label()
    for i in range(draw(st.integers(0, 4))):
        name = f"f{i}"
        kind = draw(st.sampled_from(kinds))
        if kind == "uint":
            width = draw(st.integers(1, 16))
            lbl.uint(name, draw(st.integers(0, (1 << width) - 1)), width)
        elif kind == "flag":
            lbl.flag(name, draw(st.booleans()))
        elif kind == "felem":
            p = draw(st.sampled_from([2, 3, 5, 7, 13, 257]))
            lbl.field_elem(name, draw(st.integers(0, p - 1)), p)
        elif kind == "maybe_none":
            lbl.maybe(name, None, draw(st.integers(1, 8)))
        elif kind == "maybe_int":
            width = draw(st.integers(1, 8))
            lbl.maybe(name, draw(st.integers(0, (1 << width) - 1)), width)
        else:
            lbl.sub(name, draw(labels(depth=depth - 1)))
    return lbl


def _rebuild(lbl: Label) -> Label:
    """An independent copy: every field decoded, then appended again
    through the public builders."""
    out = Label()
    for name, kind, value, width in lbl.fields():
        if kind == "label":
            out.sub(name, _rebuild(value))
        elif kind == "uint":
            out.uint(name, value, width)
        elif kind == "felem":
            out.field_elem(name, value, 1 << width)  # any p of this width
        elif kind == "flag":
            out.flag(name, value)
        else:
            out.maybe(name, value, width - 1)
    return out


def _leaf_wire_image(kind, value, width):
    """The expected raw bits of one leaf under the packing discipline."""
    if kind in ("uint", "felem"):
        return value
    if kind == "flag":
        return 1 if value else 0
    # maybe: presence bit in the MSB of the span, value bits below
    if value is None:
        return 0
    return (1 << (width - 1)) | value


# -- 1. round trip ----------------------------------------------------------

class TestRoundTrip:
    @given(labels())
    @settings(max_examples=200)
    def test_pack_unpack_is_identity(self, lbl):
        schema, payload = lbl.pack()
        view = PackedLabel._from_payload(schema, payload)
        assert list(view.walk()) == list(lbl.walk())
        assert view == lbl and lbl == view
        assert hash(view) == hash(lbl)
        assert view.bit_size() == lbl.bit_size()

    @given(labels())
    @settings(max_examples=100)
    def test_unpacked_view_repacks_to_same_bytes(self, lbl):
        schema, payload = lbl.pack()
        view = PackedLabel._from_payload(schema, payload)
        # decode every field, then build the decoded values again
        rs, rp = _rebuild(view).pack()
        assert rs is schema and rp == payload

    @given(labels())
    @settings(max_examples=100)
    def test_buffer_view_at_offset(self, lbl):
        schema, payload = lbl.pack()
        prefix, suffix = b"\xaa\xbb\xcc", b"\xdd"
        blob = prefix + lbl.wire_bytes() + suffix
        view = PackedLabel.from_buffer(schema, blob, len(prefix))
        assert view.payload_int() == payload
        assert view == lbl

    @given(labels())
    @settings(max_examples=100)
    def test_pickle_round_trip(self, lbl):
        packed = pickle.loads(pickle.dumps(lbl))
        assert isinstance(packed, PackedLabel)
        again = pickle.loads(pickle.dumps(packed))
        assert isinstance(again, PackedLabel)
        assert lbl == packed == again and again == lbl

    @given(labels())
    @settings(max_examples=50)
    def test_views_are_frozen_but_with_value_works(self, lbl):
        schema, payload = lbl.pack()
        view = PackedLabel._from_payload(schema, payload)
        with pytest.raises(TypeError, match="frozen"):
            view.uint("extra", 0, 1)
        for path, kind, value, width in lbl.walk():
            edited = view.with_value(path, value)
            assert type(edited) is PackedLabel and edited == lbl
            break


# -- 2. width ---------------------------------------------------------------

class TestPackedWidth:
    @given(labels())
    @settings(max_examples=200)
    def test_payload_occupies_declared_bit_width(self, lbl):
        schema, payload = lbl.pack()
        assert schema.total_width == lbl.bit_size()
        assert payload >> schema.total_width == 0
        assert len(lbl.wire_bytes()) == (lbl.bit_size() + 7) // 8
        assert lbl.wire_hex() == lbl.wire_bytes().hex()

    @given(labels())
    @settings(max_examples=200)
    def test_leaf_spans_tile_the_wire_image(self, lbl):
        schema, payload = lbl.pack()
        total = schema.total_width
        spans = []
        for path, kind, value, width in lbl.walk():
            offset, span_width = wire_leaf_span(lbl, path)
            assert span_width == width
            assert 0 <= offset and offset + width <= total
            raw = (payload >> (total - offset - width)) & ((1 << width) - 1)
            assert raw == _leaf_wire_image(kind, value, width)
            spans.append((offset, width))
        # leaves partition the image exactly: no gaps, no overlaps
        cursor = 0
        for offset, width in sorted(spans):
            assert offset == cursor
            cursor += width
        assert cursor == total


# -- 3. byte equality <=> structural equality -------------------------------

class TestByteEquality:
    @given(labels(), labels())
    @settings(max_examples=200)
    def test_wire_key_equality_iff_label_equality(self, a, b):
        (sa, pa), (sb, pb) = a.wire_key(), b.wire_key()
        assert ((sa is sb) and pa == pb) == (a == b)
        if a == b:
            assert a.wire_bytes() == b.wire_bytes()

    @given(labels())
    @settings(max_examples=100)
    def test_structural_copy_shares_schema_and_payload(self, lbl):
        copy = _rebuild(lbl)
        assert copy == lbl
        (sa, pa), (sb, pb) = lbl.wire_key(), copy.wire_key()
        assert sa is sb and pa == pb
        assert schema_from_desc(sa.desc) is sa  # interned by desc

    @given(labels())
    @settings(max_examples=100)
    def test_single_leaf_edit_changes_the_bytes(self, lbl):
        for path, kind, value, width in lbl.walk():
            if kind in ("uint", "felem") and width >= 1:
                edited = lbl.with_value(path, value ^ 1)
            elif kind == "flag":
                edited = lbl.with_value(path, not value)
            else:
                continue
            assert edited != lbl
            assert edited.wire_key() != lbl.wire_key()
            assert edited.wire_bytes() != lbl.wire_bytes()
            return


# -- 4. the schema boundary ---------------------------------------------------

class TestSchemaBoundary:
    def test_unknown_kind_is_a_value_error(self):
        for kind in ("bits", "maybe_b", "nope"):
            with pytest.raises(ValueError, match="unknown label field kind"):
                schema_from_desc((("f", kind, 3, None),))
        with pytest.raises(ValueError, match="unknown label field kind"):
            schema_from_desc((("s", "label", 3, (("f", "bits", 3, None),)),))

    def test_transcript_with_an_unknown_kind_fails_to_unpickle(self):
        spec = get_task("lr_sorting")
        instance = spec.yes_factory(16, random.Random(1))
        result = spec.protocol().execute(instance, rng=random.Random(2))
        blob = pickle.dumps(result.transcript)
        assert pickle.loads(blob).wire_hex() == result.transcript.wire_hex()
        tampered = blob.replace(b"uint", b"bits")  # same length: a valid pickle
        assert tampered != blob
        with pytest.raises(ValueError, match="unknown label field kind 'bits'"):
            pickle.loads(tampered)


# -- 5. golden transcript fixtures ------------------------------------------

def _golden_entry(task: str) -> dict:
    """One honest transcript per task at the pinned (n, seed)."""
    spec = get_task(task)
    run_ss = SeedSequence(GOLDEN_SEED).child(0)
    factory = spec.yes_factory
    if hasattr(factory, "build_seeded"):
        instance = factory.build_seeded(GOLDEN_N, run_ss.child("instance").seed_int())
    else:
        instance = factory(GOLDEN_N, run_ss.child("instance").rng())
    result = spec.protocol().execute(instance, rng=run_ss.child("protocol").rng())
    assert result.accepted, f"honest run of {task} rejected; fixture would be junk"
    if hasattr(result, "transcript"):
        transcripts = {"host": result.transcript}
    else:  # composite protocols: one transcript per sub-run
        transcripts = {
            f"sub:{i}:{sub.name}": sub.result.transcript
            for i, sub in enumerate(result.sub_runs)
        }
    return {
        "n": GOLDEN_N,
        "seed": GOLDEN_SEED,
        "proof_size_bits": result.proof_size_bits,
        "transcripts": {
            key: {
                "wire_size_bytes": t.wire_size_bytes(),
                "rounds_hex": t.wire_hex(),
            }
            for key, t in transcripts.items()
        },
    }


def test_wire_golden_fixtures_match():
    """The packed bytes of honest transcripts are frozen in the repo.

    A mismatch means the wire layout changed: every previously serialized
    shard buffer and interning key is invalidated.  If the change is
    intentional, regenerate with

        REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \\
            tests/test_wire_format.py -k golden

    and call the layout change out in the PR description.
    """
    current = {task: _golden_entry(task) for task in sorted(task_names())}
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} is missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(current), (
        "task catalogue changed; regenerate the wire golden fixture"
    )
    for task in sorted(current):
        assert current[task] == golden[task], (
            f"WIRE FORMAT CHANGE for task {task!r}: packed transcript bytes "
            f"no longer match tests/data/wire_golden.json (see this test's "
            f"docstring for the regeneration recipe)"
        )
