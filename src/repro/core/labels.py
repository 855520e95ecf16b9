"""Bit-accurate prover labels.

Every protocol in this library measures its *proof size* in bits, matching
the paper's complexity measure ("the size of the longest label assigned by
the honest prover during the protocol").  To keep that measurement honest,
prover messages are never plain Python objects: a :class:`Label` is the
bits themselves, a payload integer laid out by an interned schema that
declares exactly how many bits each field occupies on the wire.

A label is an ordered collection of named fields.  Field names exist only
for readability of the protocol code -- the layout of a protocol's labels is
fixed in advance and known to all nodes, so names carry no information and
do not count toward the size.

Supported field kinds:

- unsigned integers of a declared width,
- single-bit flags,
- elements of a prime field ``F_p`` (width ``ceil(log2 p)``),
- nested sub-labels (e.g. per-edge sub-labels riding on a node label),
- the distinguished ``BOTTOM`` symbol used by the nesting verification
  (one bit of presence marker).

Absent labels cost zero bits.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

FieldValue = Union[int, bool, "Label", None]

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


# ---------------------------------------------------------------------------
# packed wire format
# ---------------------------------------------------------------------------
#
# Every label is stored as its packed form ``(schema, payload)``:
#
# - the *schema* captures the layout -- field names, kinds, widths, and
#   nested sub-label schemas -- as a pure data tuple (``desc``), interned
#   process-wide so equal layouts share one schema object;
# - the *payload* is the label's bits as a single big-endian integer,
#   fields in order, first field in the most significant bits, ``maybe``
#   fields as 1 presence bit followed by the value bits.
#
# Because both halves are canonical, ``(schema identity, payload)`` is a
# faithful equality key.  Reading is pure offset arithmetic: a field's bits
# sit at a shift known from the schema alone.
#
# There is no other form.  Protocols build labels through a
# :class:`LabelFormat`, which checks each value against its field and
# shifts it into the payload (one label at a time, or a whole column set at
# once), and :func:`nest_labels` / :func:`wrapper_schema` concatenate
# sub-labels under an interned wrapper schema.  An adversary's edit
# (:meth:`Label.with_value`) splices new bits into a copy of the payload.

#: reader codes of a schema field (see ``LabelSchema.index``)
_INT, _FLAG, _MAYBE, _SUB = range(4)
_CODES = {"uint": _INT, "felem": _INT, "flag": _FLAG, "maybe": _MAYBE, "label": _SUB}


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
            code = _CODES.get(kind)
            if code is None:
                raise ValueError(f"unknown label field kind {kind!r}")
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
    """The interned schema for ``desc`` (identity-stable per process).

    Raises ``ValueError`` on a field kind no label has.
    """
    schema = _SCHEMAS.get(desc)
    if schema is None:
        # setdefault is atomic: threads racing on a new layout all keep the
        # first schema, so schema identity stays one object per layout
        schema = _SCHEMAS.setdefault(desc, LabelSchema(desc))
    return schema


_EMPTY_SCHEMA = schema_from_desc(())


def _leaf_value(code: int, raw: int, width: int) -> FieldValue:
    """The field value of a non-label leaf's raw wire bits."""
    if code == _INT:
        return raw
    if code == _FLAG:
        return raw == 1
    vwidth = width - 1  # maybe
    return raw & ((1 << vwidth) - 1) if raw >> vwidth else None


def leaf_value(kind: str, payload: int, shift: int, width: int) -> FieldValue:
    """The value of a leaf of the given schema ``kind`` and ``width``
    whose bits sit ``shift`` bits from the right of ``payload``."""
    return _leaf_value(_CODES[kind], (payload >> shift) & ((1 << width) - 1), width)


def _walk_payload(schema: LabelSchema, payload: int, prefix: FieldPath) -> Iterator:
    """:meth:`Label.walk` over a payload, sub-labels decoded in place."""
    for name, kind, width, child, shift in schema.fields:
        raw = (payload >> shift) & ((1 << width) - 1)
        if child is not None:
            yield from _walk_payload(child, raw, prefix + (name,))
        else:
            yield (prefix + (name,), kind, _leaf_value(_CODES[kind], raw, width), width)


class Label:
    """A label: an interned :class:`LabelSchema` plus its payload bits.

    ``get``, ``[]`` and ``in`` read one field through the schema's name
    index by shift/mask, and a sub-label read is decoded once into a
    cached child, so reading it again costs one lookup.

    ``Label()`` is an empty label, and the chained builders (``uint``,
    ``flag``, ``field_elem``, ``maybe``, ``sub``) each append one field to
    it: they range-check the value, extend the schema and shift the bits
    into the payload.  Protocols do not build labels this way: every label
    they send is a frozen :class:`PackedLabel`, born from a
    :class:`LabelFormat` or :func:`nest_labels`.
    """

    __slots__ = ("_schema", "_pv", "_kids")

    def __init__(self):
        self._schema = _EMPTY_SCHEMA
        self._pv = 0
        self._kids: Optional[list] = None

    # -- builders ---------------------------------------------------------

    def uint(self, name: str, value: int, width: int) -> "Label":
        """Add an unsigned integer field of ``width`` bits."""
        if value < 0 or value.bit_length() > width:
            raise ValueError(f"{name}={value} does not fit in {width} bits")
        return self._put((name, "uint", width, None), value)

    def flag(self, name: str, value: bool) -> "Label":
        """Add a one-bit boolean field."""
        return self._put((name, "flag", 1, None), 1 if value else 0)

    def field_elem(self, name: str, value: int, p: int) -> "Label":
        """Add an element of the prime field F_p."""
        if not 0 <= value < p:
            raise ValueError(f"{name}={value} is not an element of F_{p}")
        return self._put((name, "felem", field_elem_width(p), None), value)

    def sub(self, name: str, value: Optional["Label"]) -> "Label":
        """Nest a sub-label (``None`` nests an empty, zero-bit sub-label)."""
        sub = value if value is not None else EMPTY_LABEL
        schema = sub._schema
        return self._put((name, "label", schema.total_width, schema.desc), sub._pv)

    def maybe(self, name: str, value: Optional[int], width: int) -> "Label":
        """An optional value: 1 presence bit, plus ``width`` bits if present.

        This models the paper's ``BOTTOM``-or-value fields (e.g. the name of
        the virtual edge in Section 5).
        """
        if value is None:
            return self._put((name, "maybe", 1, None), 0)
        value = int(value)
        if value < 0 or value.bit_length() > width:
            raise ValueError(f"{name}={value} does not fit in {width} bits")
        return self._put((name, "maybe", 1 + width, None), (1 << width) | value)

    def _put(self, entry: tuple, raw: int) -> "Label":
        schema = self._schema
        if entry[0] in schema.index:
            raise ValueError(f"duplicate label field {entry[0]!r}")
        self._schema = schema_from_desc(schema.desc + (entry,))
        self._pv = (self._pv << entry[2]) | raw
        self._kids = None
        return self

    # -- readers ----------------------------------------------------------

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

    # -- structural introspection -----------------------------------------

    def fields(self) -> Iterator[Tuple[str, str, FieldValue, int]]:
        """Shallow iterator of ``(name, kind, value, width)`` tuples."""
        index = self._schema.index
        for name, kind, width, _, _ in self._schema.fields:
            yield name, kind, self._read(index[name]), width

    def walk(self, prefix: FieldPath = ()) -> Iterator[Tuple[FieldPath, str, FieldValue, int]]:
        """Deep iterator over *leaf* fields as ``(path, kind, value, width)``.

        Nested sub-labels (kind ``label``) are recursed into, so every
        yielded path addresses a concrete wire field.  ``maybe`` fields are
        leaves whether or not they hold a value.
        """
        return _walk_payload(self._schema, self._pv, prefix)

    def with_value(self, path: FieldPath, value: FieldValue) -> "PackedLabel":
        """A copy of this label with the leaf at ``path`` replaced.

        The edit is a payload splice: the new bits go in at the leaf's
        shift.  It is *raw*: it keeps the field's kind and wire width but
        skips the builder-level semantic validation (an adversary may put
        any ``width``-bit pattern on the wire, e.g. a field-element slot
        holding a value >= p).  Only structural invariants are enforced:
        ints must fit the declared width and flags stay boolean.  Replacing
        a ``maybe`` with ``None`` drops its value bits (1 presence bit
        remains, under the schema that says so); a ``maybe`` currently
        holding a value may be given any value of the same width; a
        ``maybe`` that is ``None`` cannot be given a value (its value width
        is not on the wire).  A path ending at a sub-label replaces it with
        the given :class:`Label`.

        Every other bit is kept, so ``lbl.with_value(p, lbl[p])`` equals
        ``lbl``.
        """
        if not path:
            raise ValueError("empty field path")
        return PackedLabel._from_payload(*_spliced(self._schema, self._pv, path, value))

    # -- size and identity -------------------------------------------------

    def bit_size(self) -> int:
        """Total bits this label occupies on the wire."""
        return self._schema.total_width

    def __eq__(self, other) -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return self._schema is other._schema and self._pv == other._pv

    def __hash__(self) -> int:
        return hash((self._schema, self._pv))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, _, value, _ in self.fields())
        return f"Label({inner} | {self.bit_size()}b)"

    # -- wire form ---------------------------------------------------------

    def pack(self) -> Tuple[LabelSchema, int]:
        """The label's wire form ``(schema, payload)``, as stored.

        ``schema`` is the interned :class:`LabelSchema` describing the
        (names, kinds, widths) layout; ``payload`` is the label's bits as
        one big-endian integer, first field in the most significant bits.
        """
        return (self._schema, self._pv)

    def payload_int(self) -> int:
        return self._pv

    def wire_bytes(self) -> bytes:
        """The packed payload as big-endian bytes (zero-padded to a byte)."""
        return self._pv.to_bytes((self._schema.total_width + 7) // 8, "big")

    def wire_hex(self) -> str:
        """Hex dump of :meth:`wire_bytes` (empty string for 0-bit labels)."""
        return self.wire_bytes().hex()

    def wire_key(self) -> Tuple[LabelSchema, int]:
        """A hashable interning key: equal iff the labels are equal."""
        return (self._schema, self._pv)

    def __reduce__(self):
        return (_label_from_wire, (self._schema.desc, self.wire_bytes()))


def _spliced(schema: LabelSchema, payload: int, path: FieldPath, value) -> Tuple[LabelSchema, int]:
    """``(schema, payload)`` with the field at ``path`` replaced by
    ``value``: its new bits spliced in at its shift, under a new schema only
    where its width changes (a ``maybe`` set to None, a new sub-label)."""
    name = path[0]
    entry = schema.index.get(name)
    if entry is None:
        raise KeyError(f"label has no field {name!r}")
    pos, code, shift, mask, arg = entry
    old = schema.desc[pos]
    raw = (payload >> shift) & mask
    if len(path) > 1:
        if code != _SUB:
            raise KeyError(f"field {name!r} is a leaf; cannot descend into {path[1:]}")
        child, raw = _spliced(arg, raw, path[1:], value)
        new = (name, "label", child.total_width, child.desc)
    else:
        new, raw = _edited_leaf(old, raw, value)
    if new != old:
        schema = schema_from_desc(schema.desc[:pos] + (new,) + schema.desc[pos + 1:])
    low = payload & ((1 << shift) - 1)
    return schema, (((payload >> (shift + old[2])) << new[2] | raw) << shift) | low


def _edited_leaf(entry: tuple, raw: int, value) -> Tuple[tuple, int]:
    """The desc entry and raw bits of a raw (width-preserving,
    semantics-agnostic) replacement of the field ``entry`` holding ``raw``."""
    name, kind, width, _ = entry
    if kind == "flag":
        if not isinstance(value, bool):
            raise ValueError(f"{name}: flag replacement must be bool")
        return entry, int(value)
    if kind == "label":
        if not isinstance(value, Label):
            raise ValueError(f"{name}: sub-label replacement must be a Label")
        return (name, "label", value._schema.total_width, value._schema.desc), value._pv
    presence = 0
    if kind == "maybe":
        if value is None:
            return (name, "maybe", 1, None), 0
        width -= 1  # the value bits, below the presence bit
        if not raw >> width:
            raise ValueError(
                f"{name}: cannot add a value to an absent maybe field "
                "(its value width is not on the wire)"
            )
        presence = 1 << width
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name}: {kind} replacement must be a non-negative int")
    if value.bit_length() > width:
        raise ValueError(f"{name}={value} does not fit in {width} bits")
    return entry, presence | value


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
    every value like the chained builders (same ``ValueError``) and shifts
    it into the payload, so a label costs one integer.
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
    """The chained builders' error for an out-of-range field value."""
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


def nest_labels(names: Tuple[str, ...], subs: Sequence[Label]) -> "PackedLabel":
    """A label holding each of ``subs`` as a sub-label under ``names``
    (its payload is the subs' payloads, concatenated)."""
    key = [names]
    acc = 0
    for sub in subs:
        schema = sub._schema
        key.append(schema)
        acc = (acc << schema.total_width) | sub._pv
    schema = _WRAPPERS.get(tuple(key))
    if schema is None:
        schema = wrapper_schema(names, key[1:])
    return PackedLabel._from_payload(schema, acc)


class PackedLabel(Label):
    """A frozen :class:`Label`.

    Every label a protocol sends is one: born packed (:class:`LabelFormat`,
    :func:`nest_labels`), decoded from the wire, or edited by
    :meth:`Label.with_value`, which returns a new one.  The builder API
    raises, so a label shared between nodes or cached by identity never
    changes under its readers.
    """

    __slots__ = ()

    @staticmethod
    def _from_payload(
        schema: LabelSchema, payload: int, _new=object.__new__
    ) -> "PackedLabel":
        self = _new(PackedLabel)
        self._schema = schema
        self._pv = payload
        self._kids = None
        return self

    @staticmethod
    def from_buffer(schema: LabelSchema, buf: bytes, offset: int) -> "PackedLabel":
        """The label whose payload sits in ``buf`` at byte ``offset``."""
        end = offset + (schema.total_width + 7) // 8
        return PackedLabel._from_payload(schema, int.from_bytes(buf[offset:end], "big"))

    #: an entry of its own, so ``PackedLabel.pack`` resolves by name like
    #: ``Label.pack`` (the perfbench layer tracer wraps both)
    pack = Label.pack

    def _put(self, entry: tuple, raw: int) -> Label:
        raise TypeError("packed labels are frozen; build a new Label instead")


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


# -- field plans ---------------------------------------------------------------


def _field_plan(
    schema: LabelSchema, path: FieldPath, within: Optional[str] = None
) -> Optional[Tuple[str, int, int]]:
    """``(kind, shift, width)`` of the field at ``path``, or None if missing.

    The walk starts in the ``within`` sub-label when ``schema`` has a
    label-kinded field of that name, else in ``schema`` itself.  Every
    step but the last must name a sub-label; the last names the field,
    which may itself be a sub-label (kind ``label``).  ``shift`` counts
    the bits to the right of the field in the outer payload.  This is
    the one schema walk behind the row plans of :func:`read_rows` and
    the column plans of :mod:`repro.core.columnar`.
    """
    base = 0
    if within is not None:
        entry = schema.index.get(within)
        if entry is not None and entry[1] == _SUB:
            base, schema = entry[2], entry[4]
    for depth, name in enumerate(path):
        entry = schema.index.get(name)
        if entry is None:
            return None
        pos, code, shift, _, arg = entry
        if depth == len(path) - 1:
            return schema.fields[pos][1], base + shift, schema.fields[pos][2]
        if code != _SUB:
            return None
        base += shift
        schema = arg
    return None  # empty path


# -- row reader ---------------------------------------------------------------

#: row-decode plans by ``(schema, names, within)``: interned schemas key
#: them, so there is at most one plan per layout and field tuple
_ROW_PLANS: Dict[tuple, tuple] = {}


def _row_plan(schema: LabelSchema, names: Tuple[str, ...], within: Optional[str]) -> tuple:
    """``(nested, steps)`` of :func:`read_rows` for one schema.

    ``nested`` says the fields are read from the ``within`` sub-label; each
    step is ``(shift, mask, is_flag)`` for a uint/felem/flag leaf (the shift
    counts from the right of the outer payload), False for a missing field
    and None for a field read through :meth:`Label.get`.
    """
    key = (schema, names, within)
    plan = _ROW_PLANS.get(key)
    if plan is None:
        sub = _field_plan(schema, (within,)) if within is not None else None
        nested = sub is not None and sub[0] == "label"
        steps = []
        for name in names:
            field = _field_plan(schema, (name,), within)
            if field is None:
                steps.append(False)
            elif field[0] in ("uint", "felem", "flag"):
                kind, shift, width = field
                steps.append((shift, (1 << width) - 1, kind == "flag"))
            else:
                steps.append(None)
        plan = _ROW_PLANS.setdefault(key, (nested, tuple(steps)))
    return plan


def _decode_rows(labels: Sequence[Label], plan: tuple, names, missing, within) -> list:
    """The rows of ``labels``, which all share the schema of ``plan``."""
    nested, steps = plan
    pvs = [lbl._pv for lbl in labels]
    cols = []
    for name, step in zip(names, steps):
        if step is False:
            cols.append([missing] * len(pvs))
        elif step is None:
            subs = [lbl.get(within) for lbl in labels] if nested else labels
            cols.append([sub.get(name, missing) for sub in subs])
        elif step[2]:
            shift = step[0]
            cols.append([(pv >> shift) & 1 == 1 for pv in pvs])
        else:
            shift, mask, _ = step
            cols.append([(pv >> shift) & mask for pv in pvs])
    return list(zip(*cols))


def read_rows(
    labels: Sequence[Label], names: Tuple[str, ...], missing, within: Optional[str] = None
) -> List[tuple]:
    """The fields ``names`` of every label, one tuple per label.

    Row ``i`` holds ``labels[i].get(name, missing)`` for each name, read
    from the label's ``within`` sub-label when it has one.  The labels are
    grouped by schema and each group is decoded column by column through
    one shift/mask plan per ``(schema, names, within)``; a field that is
    not a uint/felem/flag leaf (a ``maybe`` value, a sub-label) is read
    through :meth:`Label.get`.
    """
    if not labels:
        return []
    schemas = [lbl._schema for lbl in labels]
    first = schemas[0]
    if schemas.count(first) == len(schemas):
        return _decode_rows(labels, _row_plan(first, names, within), names, missing, within)
    groups: Dict[LabelSchema, List[int]] = {}
    for i, schema in enumerate(schemas):
        group = groups.get(schema)
        if group is None:
            group = groups[schema] = []
        group.append(i)
    rows: List[tuple] = [()] * len(labels)
    for schema, members in groups.items():
        plan = _row_plan(schema, names, within)
        decoded = _decode_rows([labels[i] for i in members], plan, names, missing, within)
        for i, row in zip(members, decoded):
            rows[i] = row
    return rows


#: the shared 0-bit label
EMPTY_LABEL = PackedLabel._from_payload(_EMPTY_SCHEMA, 0)


def field_elem_width(p: int) -> int:
    """Bits needed for an element of F_p."""
    return uint_width(p - 1)


def index_width(n: int) -> int:
    """Bits needed for a block-internal index in ``[ceil(log2 n)]``.

    This is the O(log log n) quantity that drives the paper's label sizes.
    """
    return uint_width(max(1, math.ceil(math.log2(max(2, n)))))
