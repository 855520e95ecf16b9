"""Bit-accurate prover labels.

Every protocol in this library measures its *proof size* in bits, matching
the paper's complexity measure ("the size of the longest label assigned by
the honest prover during the protocol").  To keep that measurement honest,
prover messages are never plain Python objects: they are :class:`Label`
instances built from typed fields, each of which declares exactly how many
bits it occupies on the wire.

A label is an ordered collection of named fields.  Field names exist only
for readability of the protocol code -- the layout of a protocol's labels is
fixed in advance and known to all nodes, so names carry no information and
do not count toward the size.

Supported field kinds:

- unsigned integers of a declared width,
- single-bit flags,
- raw bitstrings,
- elements of a prime field ``F_p`` (width ``ceil(log2 p)``),
- nested sub-labels (e.g. per-edge sub-labels riding on a node label),
- the distinguished ``BOTTOM`` symbol used by the nesting verification
  (one bit of presence marker).

Absent labels cost zero bits.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

FieldValue = Union[int, bool, "Label", "BitString", None]

#: a path into a (possibly nested) label: one name per nesting level
FieldPath = Tuple[str, ...]


def uint_width(max_value: int) -> int:
    """Number of bits needed to store integers in ``{0, ..., max_value}``."""
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    return max(1, max_value.bit_length())


class BitString:
    """An immutable string of bits with explicit length.

    Used for verifier coins and for random "names" in the nesting
    verification of Section 5.
    """

    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int):
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self.value = value
        self.width = width

    @classmethod
    def random(cls, rng, width: int) -> "BitString":
        return cls(rng.getrandbits(width) if width else 0, width)

    def bit_length(self) -> int:
        return self.width

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.value == other.value
            and self.width == other.width
        )

    def __hash__(self) -> int:
        return hash((self.value, self.width))

    def __repr__(self) -> str:
        if self.width == 0:
            return "BitString(empty)"
        return f"BitString({self.value:0{self.width}b})"


# A label field on the wire is a plain ``(kind, value, width)`` tuple.
# Tuples (not a small class) because field construction sits on the hot
# prover path: a tuple literal is allocated in C, a class __init__ is a
# Python-level call.


class Label:
    """An ordered, named collection of typed fields with exact bit size."""

    __slots__ = ("_fields", "_size", "_wire")

    def __init__(self):
        self._fields: Dict[str, tuple] = {}
        self._size = 0
        self._wire: Optional[Tuple["LabelSchema", int]] = None

    # -- builders ---------------------------------------------------------

    def uint(self, name: str, value: int, width: int) -> "Label":
        """Add an unsigned integer field of ``width`` bits."""
        if value < 0 or value.bit_length() > width:
            raise ValueError(f"{name}={value} does not fit in {width} bits")
        self._put(name, ("uint", value, width))
        return self

    def flag(self, name: str, value: bool) -> "Label":
        """Add a one-bit boolean field."""
        self._put(name, ("flag", bool(value), 1))
        return self

    def bits(self, name: str, value: BitString) -> "Label":
        """Add a raw bitstring field."""
        self._put(name, ("bits", value, value.width))
        return self

    def field_elem(self, name: str, value: int, p: int) -> "Label":
        """Add an element of the prime field F_p."""
        if not 0 <= value < p:
            raise ValueError(f"{name}={value} is not an element of F_{p}")
        self._put(name, ("felem", value, (p - 1).bit_length() or 1))
        return self

    def sub(self, name: str, value: Optional["Label"]) -> "Label":
        """Nest a sub-label (``None`` nests an empty, zero-bit sub-label)."""
        sub = value if value is not None else Label()
        self._put(name, ("label", sub, sub.bit_size()))
        return self

    def maybe(self, name: str, value: Optional[FieldValue], width: int) -> "Label":
        """An optional value: 1 presence bit, plus ``width`` bits if present.

        This models the paper's ``BOTTOM``-or-value fields (e.g. the name of
        the virtual edge in Section 5).
        """
        if value is None:
            self._put(name, ("maybe", None, 1))
        else:
            if isinstance(value, BitString):
                if value.width != width:
                    raise ValueError("bitstring width mismatch in maybe()")
                self._put(name, ("maybe", value, 1 + width))
            else:
                if int(value) < 0 or int(value).bit_length() > width:
                    raise ValueError(f"{name}={value} does not fit in {width} bits")
                self._put(name, ("maybe", int(value), 1 + width))
        return self

    def _put(self, name: str, field: tuple) -> None:
        if name in self._fields:
            raise ValueError(f"duplicate label field {name!r}")
        self._fields[name] = field
        self._size += field[2]
        self._wire = None

    @classmethod
    def _trusted(cls, fields: Dict[str, tuple], size: int) -> "Label":
        """Build a label directly from pre-validated ``(kind, value, width)``
        tuples (hot prover paths).  Callers own the validation the public
        builders would have done; ``size`` must equal the width sum."""
        out = cls.__new__(cls)
        out._fields = fields
        out._size = size
        out._wire = None
        return out

    # -- readers ----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __getitem__(self, name: str) -> FieldValue:
        try:
            return self._fields[name][1]
        except KeyError:
            raise KeyError(f"label has no field {name!r}") from None

    def get(self, name: str, default: FieldValue = None) -> FieldValue:
        field = self._fields.get(name)
        return field[1] if field is not None else default

    def names(self) -> Iterator[str]:
        return iter(self._fields)

    # -- structural introspection -----------------------------------------

    def fields(self) -> Iterator[Tuple[str, str, FieldValue, int]]:
        """Shallow iterator of ``(name, kind, value, width)`` tuples."""
        for name, f in self._fields.items():
            yield (name,) + f

    def walk(self, prefix: FieldPath = ()) -> Iterator[Tuple[FieldPath, str, FieldValue, int]]:
        """Deep iterator over *leaf* fields as ``(path, kind, value, width)``.

        Nested sub-labels (kind ``label``) are recursed into, so every
        yielded path addresses a concrete wire field.  ``maybe`` fields are
        leaves whether or not they hold a value.
        """
        for name, f in self._fields.items():
            path = prefix + (name,)
            if f[0] == "label":
                yield from f[1].walk(path)
            else:
                yield (path,) + f

    def with_value(self, path: FieldPath, value: FieldValue) -> "Label":
        """A copy of this label with the leaf at ``path`` replaced.

        The replacement is *raw*: it preserves the field's kind and wire
        width but skips the builder-level semantic validation (an adversary
        may put any ``width``-bit pattern on the wire, e.g. a field-element
        slot holding a value >= p).  Only structural invariants are
        enforced: ints must fit the declared width, bitstrings must keep
        their width, flags stay boolean.  Replacing a ``maybe`` with
        ``None`` drops its value bits (1 presence bit remains); a ``maybe``
        currently holding a value may be given any value of the same width;
        a ``maybe`` that is ``None`` cannot be given a value (its value
        width is not recorded on the wire).

        Every other field is shared/copied bit-exactly, so
        ``lbl.with_value(p, lbl_value_at_p)`` equals ``lbl``.
        """
        if not path:
            raise ValueError("empty field path")
        name = path[0]
        if name not in self._fields:
            raise KeyError(f"label has no field {name!r}")
        out = Label()
        for k, f in self._fields.items():
            if k != name:
                out._fields[k] = f  # field tuples are immutable; share them
                continue
            if len(path) > 1:
                if f[0] != "label":
                    raise KeyError(
                        f"field {k!r} is a leaf; cannot descend into {path[1:]}"
                    )
                sub = f[1].with_value(path[1:], value)
                out._fields[k] = ("label", sub, sub.bit_size())
            else:
                out._fields[k] = _replaced_field(k, f, value)
        out._size = sum(f[2] for f in out._fields.values())
        return out

    # -- size -------------------------------------------------------------

    def bit_size(self) -> int:
        """Total bits this label occupies on the wire (maintained by _put)."""
        return self._size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        mine, theirs = self._wire, other._wire
        if mine is not None and theirs is not None:
            # canonical packing: interned schema identity + payload equality
            # coincides with structural equality (pinned by the wire tests)
            return mine[0] is theirs[0] and mine[1] == theirs[1]
        if list(self._fields) != list(other._fields):
            return False
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(tuple((k,) + f for k, f in self._fields.items()))

    # -- wire form ---------------------------------------------------------

    def pack(self) -> Tuple["LabelSchema", int]:
        """The label's packed wire form ``(schema, payload)``, cached.

        ``schema`` is the interned :class:`LabelSchema` describing the
        (names, kinds, widths) layout; ``payload`` is the label's bits as
        one big-endian integer, first field in the most significant bits.
        A generic-builder label packs lazily, on first call, and caches
        the result: pickling, churn signatures, column extraction, hex
        dumps and byte-equality reuse one pass.  (Born-packed labels are
        :class:`PackedLabel`, which returns its form as is.)
        """
        wire = self._wire
        if wire is None:
            wire = self._wire = _pack_fields(self._fields)
        return wire

    def wire_bytes(self) -> bytes:
        """The packed payload as big-endian bytes (zero-padded to a byte)."""
        schema, payload = self.pack()
        return payload.to_bytes((schema.total_width + 7) // 8, "big")

    def wire_hex(self) -> str:
        """Hex dump of :meth:`wire_bytes` (empty string for 0-bit labels)."""
        return self.wire_bytes().hex()

    def wire_key(self) -> Tuple["LabelSchema", int]:
        """A hashable interning key: equal iff the labels are equal."""
        return self.pack()

    def __reduce__(self):
        schema, payload = self.pack()
        return (
            _label_from_wire,
            (schema.desc, payload.to_bytes((schema.total_width + 7) // 8, "big")),
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={f[1]!r}" for k, f in self._fields.items())
        return f"Label({inner} | {self.bit_size()}b)"


def _replaced_field(name: str, old: tuple, value: FieldValue) -> tuple:
    """A raw (width-preserving, semantics-agnostic) leaf replacement."""
    kind, old_value, old_width = old
    if kind == "flag":
        if not isinstance(value, bool):
            raise ValueError(f"{name}: flag replacement must be bool")
        return ("flag", value, 1)
    if kind in ("uint", "felem"):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{name}: {kind} replacement must be a non-negative int")
        if value.bit_length() > old_width:
            raise ValueError(f"{name}={value} does not fit in {old_width} bits")
        return (kind, value, old_width)
    if kind == "bits":
        if not isinstance(value, BitString) or value.width != old_width:
            raise ValueError(f"{name}: bits replacement must keep width {old_width}")
        return ("bits", value, old_width)
    if kind == "maybe":
        if value is None:
            return ("maybe", None, 1)
        if old_value is None:
            raise ValueError(
                f"{name}: cannot add a value to an absent maybe field "
                "(its value width is not on the wire)"
            )
        vwidth = old_width - 1
        if isinstance(value, BitString):
            if value.width != vwidth:
                raise ValueError(f"{name}: maybe bitstring must keep width {vwidth}")
            return ("maybe", value, old_width)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{name}: maybe replacement must be int or BitString")
        if value.bit_length() > vwidth:
            raise ValueError(f"{name}={value} does not fit in {vwidth} bits")
        return ("maybe", value, old_width)
    if kind == "label":
        if not isinstance(value, Label):
            raise ValueError(f"{name}: sub-label replacement must be a Label")
        return ("label", value, value.bit_size())
    raise ValueError(f"unknown field kind {kind!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# packed wire format
# ---------------------------------------------------------------------------
#
# Every label has a canonical packed form ``(schema, payload)``:
#
# - the *schema* captures the layout -- field names, kinds, widths, and
#   nested sub-label schemas -- as a pure data tuple (``desc``), interned
#   process-wide so equal layouts share one schema object;
# - the *payload* is the label's bits as a single big-endian integer,
#   fields in insertion order, first field in the most significant bits,
#   ``maybe`` fields as 1 presence bit followed by the value bits.
#
# Because both halves are canonical, ``(schema identity, payload)`` is a
# faithful equality key: byte-equality coincides with structural Label
# equality (``maybe`` fields holding a BitString get the distinct schema
# kind ``maybe_b`` so the value type survives the round-trip).  Decoding is
# pure offset arithmetic: a field's bits sit at a shift known from the
# schema alone.
#
# Labels reach the packed form two ways.  The fixed formats the protocols
# and the columnar kernels share are *born packed*: a :class:`LabelFormat`
# checks each value against its field and shifts it into the payload (one
# label at a time, or a whole column set at once), and :func:`nest_labels`
# / :func:`wrapper_schema` concatenate packed sub-labels under an interned
# wrapper schema.  Labels from the generic builder (``Label()``: per-view
# protocols, adversaries, fuzz mutations) stay field trees and pack
# lazily, on first :meth:`Label.pack`.

#: reader codes of a schema field (see ``LabelSchema.index``)
_INT, _FLAG, _BITS, _MAYBE, _MAYBE_B, _SUB = range(6)
_CODES = {
    "uint": _INT, "felem": _INT, "flag": _FLAG, "bits": _BITS,
    "maybe": _MAYBE, "maybe_b": _MAYBE_B, "label": _SUB,
}


class LabelSchema:
    """Interned layout descriptor for one packed label.

    ``desc`` is the pure-data form: a tuple of
    ``(name, kind, width, child_desc_or_None)`` entries, nested sub-labels
    carrying their own desc.  ``fields`` resolves each entry to
    ``(name, kind, width, child_schema_or_None, shift)`` where ``shift``
    is the number of payload bits to the right of the field.  ``index``
    maps a name to its reader ``(position, code, shift, mask, arg)``
    (``arg``: the width, or the child schema of a sub-label).
    """

    __slots__ = ("desc", "fields", "total_width", "index")

    def __init__(self, desc: tuple):
        self.desc = desc
        total = 0
        for _, _, width, _ in desc:
            total += width
        self.total_width = total
        fields = []
        index = {}
        shift = total
        for pos, (name, kind, width, child_desc) in enumerate(desc):
            shift -= width
            code = _CODES[kind]
            child = schema_from_desc(child_desc) if code == _SUB else None
            fields.append((name, kind, width, child, shift))
            index[name] = (pos, code, shift, (1 << width) - 1, child or width)
        self.fields = tuple(fields)
        self.index = index

    def leaves(self) -> List[Tuple[FieldPath, str, int, int]]:
        """The leaf table: ``(path, kind, width, shift)`` of every non-label
        field, nested ones included, in wire order.  ``shift`` counts
        payload bits to the right of the leaf; read its value with
        :func:`leaf_value`."""
        out = []
        for name, kind, width, child, shift in self.fields:
            if child is None:
                out.append(((name,), kind, width, shift))
            else:
                out += [
                    ((name,) + path, sub_kind, sub_width, shift + sub_shift)
                    for path, sub_kind, sub_width, sub_shift in child.leaves()
                ]
        return out

    def __repr__(self) -> str:
        names = ",".join(e[0] for e in self.desc)
        return f"LabelSchema({names} | {self.total_width}b)"


#: process-wide schema intern table: desc tuple -> the one LabelSchema
_SCHEMAS: Dict[tuple, LabelSchema] = {}


def schema_from_desc(desc: tuple) -> LabelSchema:
    """The interned schema for ``desc`` (identity-stable per process)."""
    schema = _SCHEMAS.get(desc)
    if schema is None:
        # setdefault is atomic: threads racing on a new layout all keep the
        # first schema, so schema identity stays one object per layout
        schema = _SCHEMAS.setdefault(desc, LabelSchema(desc))
    return schema


def _leaf_value(code: int, raw: int, width: int) -> FieldValue:
    """The field value of a non-label leaf's raw wire bits."""
    if code == _INT:
        return raw
    if code == _FLAG:
        return raw == 1
    if code == _BITS:
        return BitString(raw, width)
    vwidth = width - 1
    if code == _MAYBE:
        return raw & ((1 << vwidth) - 1) if raw >> vwidth else None
    return BitString(raw & ((1 << vwidth) - 1), vwidth)  # maybe_b


def leaf_value(kind: str, payload: int, shift: int, width: int) -> FieldValue:
    """The value of a leaf of the given schema ``kind`` and ``width``
    whose bits sit ``shift`` bits from the right of ``payload``."""
    return _leaf_value(_CODES[kind], (payload >> shift) & ((1 << width) - 1), width)


def _walk_payload(schema: LabelSchema, payload: int, prefix: FieldPath) -> Iterator:
    """:meth:`Label.walk` over a packed payload, sub-labels decoded in place."""
    for name, kind, width, child, shift in schema.fields:
        raw = (payload >> shift) & ((1 << width) - 1)
        if child is not None:
            yield from _walk_payload(child, raw, prefix + (name,))
        else:
            value = _leaf_value(_CODES[kind], raw, width)
            yield (prefix + (name,), "maybe" if kind == "maybe_b" else kind, value, width)


def _pack_fields(fields: Dict[str, tuple]) -> Tuple[LabelSchema, int]:
    """Canonical (schema, payload) packing of a field dict (see above)."""
    desc = []
    acc = 0
    for name, f in fields.items():
        kind, value, width = f
        if kind == "uint" or kind == "felem":
            desc.append((name, kind, width, None))
            acc = (acc << width) | value
        elif kind == "label":
            child_schema, child_payload = value.pack()
            desc.append((name, "label", width, child_schema.desc))
            acc = (acc << width) | child_payload
        elif kind == "flag":
            desc.append((name, "flag", 1, None))
            acc = (acc << 1) | (1 if value else 0)
        elif kind == "bits":
            desc.append((name, "bits", width, None))
            acc = (acc << width) | value.value
        elif kind == "maybe":
            if value is None:
                desc.append((name, "maybe", width, None))
                acc = acc << width  # presence bit(s) all zero
            elif isinstance(value, BitString):
                desc.append((name, "maybe_b", width, None))
                acc = (acc << width) | (1 << (width - 1)) | value.value
            else:
                desc.append((name, "maybe", width, None))
                acc = (acc << width) | (1 << (width - 1)) | value
        else:  # pragma: no cover - _put only admits the kinds above
            raise ValueError(f"cannot pack field kind {kind!r}")
    return schema_from_desc(tuple(desc)), acc


def _label_from_wire(desc: tuple, data: bytes) -> "PackedLabel":
    """Unpickle hook for the packed wire form."""
    return PackedLabel._from_payload(schema_from_desc(desc), int.from_bytes(data, "big"))


# -- born-packed builders -----------------------------------------------------

#: a :class:`LabelFormat` value that leaves its (optional) field out
OMIT = object()


class LabelFormat:
    """A fixed leaf layout whose labels are packed at birth.

    ``fields`` are ``(name, kind, param)`` triples: ``("uint", width)``,
    ``("flag", None)``, ``("felem", p)`` and ``("maybe", value_width)``
    (a ``None`` value is the 1-bit absent form).  :meth:`pack` range-checks
    every value like the generic builders (same ``ValueError``) and shifts
    it into the payload, so a label costs one integer and no field tree.
    The uint/felem fields named in ``optional`` may be given :data:`OMIT`
    to leave them out; each combination of omitted fields and absent
    ``maybe`` values has its own interned schema, resolved once per format.
    """

    __slots__ = ("_fields", "_schemas")

    def __init__(
        self,
        fields: Sequence[Tuple[str, str, Optional[int]]],
        optional: Sequence[str] = (),
    ):
        compiled = []
        for i, (name, kind, param) in enumerate(fields):
            # (name, code, width, limit, variant bit, kind): a checked
            # value v must satisfy 0 <= v < limit
            bit = 1 << i
            if kind == "uint":
                entry = (name, _F_RANGE, param, 1 << param, bit, kind)
            elif kind == "felem":
                entry = (name, _F_RANGE, field_elem_width(param), param, bit, kind)
            elif kind == "flag":
                entry = (name, _F_FLAG, 1, 2, bit, kind)
            elif kind == "maybe":
                # the limit doubles as the presence bit above the value
                entry = (name, _F_MAYBE, 1 + param, 1 << param, bit, kind)
            else:
                raise ValueError(f"unknown format field kind {kind!r}")
            if name in optional:
                if entry[1] != _F_RANGE:
                    raise ValueError(f"only uint/felem fields can be optional: {name!r}")
                entry = (name, _F_OPTIONAL) + entry[2:]
            compiled.append(entry)
        self._fields = tuple(compiled)
        self._schemas: Dict[int, LabelSchema] = {}

    def pack(self, values: Sequence) -> "PackedLabel":
        """The born-packed label of ``values`` (one per format field)."""
        acc = 0
        variant = 0  # bit i: field i omitted, or its maybe value is None
        for (name, code, width, limit, bit, kind), value in zip(self._fields, values):
            if code == _F_RANGE:
                if not 0 <= value < limit:
                    raise _range_error(name, kind, width, limit, value)
                acc = (acc << width) | value
            elif code == _F_FLAG:
                acc = (acc << 1) | (1 if value else 0)
            elif code == _F_MAYBE:
                if value is None:
                    variant |= bit
                    acc <<= 1
                else:
                    value = int(value)
                    if not 0 <= value < limit:
                        raise _range_error(name, kind, width - 1, limit, value)
                    acc = (acc << width) | limit | value
            elif value is OMIT:
                variant |= bit
            else:
                if not 0 <= value < limit:
                    raise _range_error(name, kind, width, limit, value)
                acc = (acc << width) | value
        schema = self._schemas.get(variant)
        if schema is None:
            schema = self._variant_schema(variant)
        return PackedLabel._from_payload(schema, acc)

    @property
    def names(self) -> Tuple[str, ...]:
        """The field names, in field (and wire) order."""
        return tuple(entry[0] for entry in self._fields)

    def pack_columns(self, columns: Sequence[Sequence]) -> Tuple[List[LabelSchema], List[int]]:
        """:meth:`pack` over value columns: ``columns[i]`` holds field
        ``i``'s value for every row (one column per format field).

        Returns each row's schema and payload: the very schema object and
        payload :meth:`pack` gives that row's values.  An out-of-range
        value raises the ``ValueError`` that :meth:`pack` raises on the
        first row holding one, with that row's index as ``row``.
        """
        rows = len(columns[0]) if columns else 0
        accs = [0] * rows
        variants: Optional[List[int]] = None
        for (name, code, width, limit, bit, kind), col in zip(self._fields, columns):
            if len(col) != rows:
                raise ValueError(f"column {name!r} has {len(col)} rows, not {rows}")
            if code == _F_FLAG:
                accs = [(a << 1) | (1 if v else 0) for a, v in zip(accs, col)]
            elif code == _F_RANGE:
                if rows and not (0 <= min(col) and max(col) < limit):
                    raise self._column_error(columns)
                accs = [(a << width) | v for a, v in zip(accs, col)]
            elif code == _F_MAYBE:  # the row's variant records absence
                if variants is None:
                    variants = [0] * rows
                for i, v in enumerate(col):
                    if v is None:
                        variants[i] |= bit
                        accs[i] <<= 1
                        continue
                    v = int(v)
                    if not 0 <= v < limit:
                        raise self._column_error(columns)
                    accs[i] = (accs[i] << width) | limit | v
            else:  # optional
                if variants is None:
                    variants = [0] * rows
                for i, v in enumerate(col):
                    if v is OMIT:
                        variants[i] |= bit
                    elif 0 <= v < limit:
                        accs[i] = (accs[i] << width) | v
                    else:
                        raise self._column_error(columns)
        if variants is None:
            return [self._variant_schema(0)] * rows, accs
        return [self._variant_schema(variant) for variant in variants], accs

    def _column_error(self, columns: Sequence[Sequence]) -> ValueError:
        """The error :meth:`pack` raises on the first failing row."""
        for row, values in enumerate(zip(*columns)):
            try:
                self.pack(values)
            except ValueError as exc:
                exc.row = row
                return exc
        raise AssertionError("no row fails")  # pragma: no cover

    def _variant_schema(self, variant: int) -> LabelSchema:
        schema = self._schemas.get(variant)
        if schema is None:
            schema = self._schemas.setdefault(variant, self._schema(variant))
        return schema

    def _schema(self, variant: int) -> LabelSchema:
        desc = []
        for name, code, width, _, bit, kind in self._fields:
            if not variant & bit:
                desc.append((name, kind, width, None))
            elif code == _F_MAYBE:
                desc.append((name, "maybe", 1, None))
        return schema_from_desc(tuple(desc))


#: LabelFormat field codes
_F_RANGE, _F_FLAG, _F_MAYBE, _F_OPTIONAL = range(4)


def _range_error(name: str, kind: str, width: int, limit: int, value) -> ValueError:
    """The generic builders' error for an out-of-range field value."""
    if kind == "felem":
        return ValueError(f"{name}={value} is not an element of F_{limit}")
    return ValueError(f"{name}={value} does not fit in {width} bits")


#: wrapper schemas by (names, child schemas...): child-schema identity
#: keys the lookup, so nesting never rebuilds a desc tuple
_WRAPPERS: Dict[tuple, LabelSchema] = {}


def wrapper_schema(names: Tuple[str, ...], schemas: Sequence[LabelSchema]) -> LabelSchema:
    """The interned schema of a label nesting sub-labels of ``schemas``
    under ``names`` (its payload: theirs, concatenated in order)."""
    key = (names, *schemas)
    schema = _WRAPPERS.get(key)
    if schema is None:
        desc = tuple(
            (name, "label", child.total_width, child.desc)
            for name, child in zip(names, schemas)
        )
        schema = _WRAPPERS.setdefault(key, schema_from_desc(desc))
    return schema


def nest_labels(names: Tuple[str, ...], subs: Sequence[Label]) -> Label:
    """A label holding each of ``subs`` as a sub-label under ``names``.

    Born packed when every sub-label is (the payload is the subs'
    payloads, concatenated); when any is a generic-builder tree the
    wrapper is a tree too, packed lazily like its subs.
    """
    key = [names]
    acc = 0
    for sub in subs:
        if sub.__class__ is not PackedLabel:
            fields = {name: ("label", s, s._size) for name, s in zip(names, subs)}
            return Label._trusted(fields, sum(s._size for s in subs))
        key.append(sub._schema)
        acc = (acc << sub._size) | sub._pv
    schema = _WRAPPERS.get(tuple(key))
    if schema is None:
        schema = wrapper_schema(names, key[1:])
    return PackedLabel._from_payload(schema, acc)


class PackedLabel(Label):
    """A label held as its packed form: interned schema plus payload.

    Born-packed labels (:class:`LabelFormat`, :func:`nest_labels`) and
    labels decoded from the wire are both of this class.  It keeps no
    field tree: :meth:`get`, ``[]`` and ``in`` read one field through the
    schema's name index by shift/mask, and a sub-label read is decoded
    once into a cached child view, so every sub-label has one identity
    (which the per-view decode caches key on).  Labels are frozen: the
    builder API raises; :meth:`Label.with_value` still works and returns
    a generic-builder label.
    """

    __slots__ = ("_schema", "_pv", "_kids")

    @staticmethod
    def _from_payload(
        schema: LabelSchema, payload: int, _new=object.__new__
    ) -> "PackedLabel":
        self = _new(PackedLabel)
        self._fields = None
        self._size = schema.total_width
        self._wire = None
        self._schema = schema
        self._pv = payload
        self._kids = None
        return self

    @staticmethod
    def from_buffer(schema: LabelSchema, buf: bytes, offset: int) -> "PackedLabel":
        """The label whose payload sits in ``buf`` at byte ``offset``."""
        end = offset + (schema.total_width + 7) // 8
        return PackedLabel._from_payload(schema, int.from_bytes(buf[offset:end], "big"))

    # -- wire form ---------------------------------------------------------

    def payload_int(self) -> int:
        return self._pv

    def pack(self) -> Tuple[LabelSchema, int]:
        return (self._schema, self._pv)

    def __reduce__(self):
        schema = self._schema
        return (
            _label_from_wire,
            (schema.desc, self._pv.to_bytes((schema.total_width + 7) // 8, "big")),
        )

    # -- indexed reads -----------------------------------------------------

    def _read(self, entry: tuple) -> FieldValue:
        pos, code, shift, mask, arg = entry
        if code != _SUB:
            return _leaf_value(code, (self._pv >> shift) & mask, arg)
        kids = self._kids
        if kids is None:
            kids = self._kids = [None] * len(self._schema.fields)
        child = kids[pos]
        if child is None:
            child = kids[pos] = PackedLabel._from_payload(arg, (self._pv >> shift) & mask)
        return child

    def __contains__(self, name: str) -> bool:
        return name in self._schema.index

    def __getitem__(self, name: str) -> FieldValue:
        entry = self._schema.index.get(name)
        if entry is None:
            raise KeyError(f"label has no field {name!r}")
        return self._read(entry)

    def get(self, name: str, default: FieldValue = None) -> FieldValue:
        entry = self._schema.index.get(name)
        if entry is None:
            return default
        pos, code, shift, mask, arg = entry
        if code == _INT:  # the common reads, inline: ints, flags, known subs
            return (self._pv >> shift) & mask
        if code == _FLAG:
            return (self._pv >> shift) & 1 == 1
        if code == _SUB and self._kids is not None and self._kids[pos] is not None:
            return self._kids[pos]
        return self._read(entry)

    def names(self) -> Iterator[str]:
        return iter(e[0] for e in self._schema.desc)

    def _tree(self) -> Label:
        """This label as a fresh generic-builder tree (never stored)."""
        fields = {}
        index = self._schema.index
        for name, kind, width, _, _ in self._schema.fields:
            if kind == "maybe_b":
                kind = "maybe"
            fields[name] = (kind, self._read(index[name]), width)
        return Label._trusted(fields, self._size)

    def fields(self) -> Iterator[Tuple[str, str, FieldValue, int]]:
        return self._tree().fields()

    def walk(self, prefix: FieldPath = ()) -> Iterator[Tuple[FieldPath, str, FieldValue, int]]:
        return _walk_payload(self._schema, self._pv, prefix)

    def with_value(self, path: FieldPath, value: FieldValue) -> Label:
        return self._tree().with_value(path, value)

    # -- frozen builders ---------------------------------------------------

    def _put(self, name: str, field: tuple) -> None:
        raise TypeError("packed labels are frozen; build a new Label instead")

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedLabel):
            return self._schema is other._schema and self._pv == other._pv
        if isinstance(other, Label):
            wire = other._wire
            if wire is not None:
                return wire[0] is self._schema and wire[1] == self._pv
            return self._tree() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tree())

    def __repr__(self) -> str:
        return repr(self._tree())


def wire_leaf_span(label: Label, path: FieldPath) -> Tuple[int, int]:
    """``(bit_offset, width)`` of the leaf at ``path`` in the packed form.

    The offset counts from the most significant bit of the label's wire
    image (bit 0 is the first bit on the wire); for ``maybe`` leaves the
    span covers the presence bit plus the value bits.  This is how the
    mutation engine reports *where on the wire* a fuzzed field lives.
    """
    schema, _ = label.pack()
    offset = 0
    for depth, name in enumerate(path):
        total = schema.total_width
        for fname, kind, width, child, shift in schema.fields:
            if fname != name:
                continue
            offset += total - shift - width
            if depth == len(path) - 1:
                return offset, width
            if kind != "label":
                raise KeyError(f"field {name!r} is a leaf; cannot descend")
            schema = child
            break
        else:
            raise KeyError(f"label has no field {name!r}")
    raise ValueError("empty field path")


#: the shared 0-bit label (packed, so reading it never packs a tree)
EMPTY_LABEL = PackedLabel._from_payload(schema_from_desc(()), 0)


def field_elem_width(p: int) -> int:
    """Bits needed for an element of F_p."""
    return uint_width(p - 1)


def index_width(n: int) -> int:
    """Bits needed for a block-internal index in ``[ceil(log2 n)]``.

    This is the O(log log n) quantity that drives the paper's label sizes.
    """
    return uint_width(max(1, math.ceil(math.log2(max(2, n)))))
