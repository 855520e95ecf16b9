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
import os
from typing import Dict, Iterator, Optional, Tuple, Union

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
        if self._fields is None:
            self._materialize()
        if other._fields is None:
            other._materialize()
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
        Packing is lazy and cached: an in-process run packs only the label
        a fuzzer mutates, while pickling, churn signatures, hex dumps, and
        byte-equality reuse one pass.
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
        if packed_labels_disabled():
            # object-tree escape hatch: ship the field dict as-is
            return (_label_from_tree, (self._fields, self._size))
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
# schema alone, which is what makes the zero-copy :class:`PackedLabel`
# views below cheap.
#
# ``REPRO_DISABLE_PACKED_LABELS=1`` keeps labels crossing process
# boundaries as plain object trees (the pre-wire-format behavior); the
# differential suite pins canonical reports byte-identical either way.


def packed_labels_disabled() -> bool:
    """True when the ``REPRO_DISABLE_PACKED_LABELS`` escape hatch is set."""
    return os.environ.get("REPRO_DISABLE_PACKED_LABELS", "") not in ("", "0")


class LabelSchema:
    """Interned layout descriptor for one packed label.

    ``desc`` is the pure-data form: a tuple of
    ``(name, kind, width, child_desc_or_None)`` entries, nested sub-labels
    carrying their own desc.  ``fields`` resolves each entry to
    ``(name, kind, width, child_schema_or_None, shift)`` where ``shift``
    is the number of payload bits to the right of the field.
    """

    __slots__ = ("desc", "fields", "total_width")

    def __init__(self, desc: tuple):
        self.desc = desc
        total = 0
        for _, _, width, _ in desc:
            total += width
        self.total_width = total
        fields = []
        shift = total
        for name, kind, width, child_desc in desc:
            shift -= width
            child = schema_from_desc(child_desc) if kind == "label" else None
            fields.append((name, kind, width, child, shift))
        self.fields = tuple(fields)

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


def _label_from_tree(fields: Dict[str, tuple], size: int) -> Label:
    """Unpickle hook for the object-tree escape hatch."""
    return Label._trusted(fields, size)


def _label_from_wire(desc: tuple, data: bytes) -> "PackedLabel":
    """Unpickle hook for the packed wire form."""
    return PackedLabel._from_payload(schema_from_desc(desc), int.from_bytes(data, "big"))


class PackedLabel(Label):
    """A zero-copy decoded view over a packed label.

    Holds the interned schema plus either the payload integer or a
    ``(buffer, offset)`` slice of a shared round blob; the object-tree
    field dict is materialized lazily, by offset slicing, only when a
    reader actually descends into the structure.  Views are frozen: the
    builder API raises (mutating a view would desync schema and payload);
    :meth:`Label.with_value` still works and returns a plain label.
    """

    __slots__ = ("_schema", "_pv", "_buf", "_off")

    @classmethod
    def _from_payload(cls, schema: LabelSchema, payload: int) -> "PackedLabel":
        self = cls.__new__(cls)
        self._fields = None
        self._size = schema.total_width
        self._wire = (schema, payload)
        self._schema = schema
        self._pv = payload
        self._buf = None
        self._off = 0
        return self

    @classmethod
    def from_buffer(cls, schema: LabelSchema, buf: bytes, offset: int) -> "PackedLabel":
        """View into ``buf`` at byte ``offset`` (no bytes copied up front)."""
        self = cls.__new__(cls)
        self._fields = None
        self._size = schema.total_width
        self._wire = None
        self._schema = schema
        self._pv = None
        self._buf = buf
        self._off = offset
        return self

    # -- wire form ---------------------------------------------------------

    def payload_int(self) -> int:
        pv = self._pv
        if pv is None:
            end = self._off + (self._schema.total_width + 7) // 8
            pv = self._pv = int.from_bytes(self._buf[self._off:end], "big")
            self._wire = (self._schema, pv)
        return pv

    def pack(self) -> Tuple[LabelSchema, int]:
        wire = self._wire
        if wire is None:
            wire = (self._schema, self.payload_int())
        return wire

    def __reduce__(self):
        if packed_labels_disabled():
            self._ensure()
            return (_label_from_tree, (self._fields, self._size))
        schema = self._schema
        return (
            _label_from_wire,
            (schema.desc, self.payload_int().to_bytes((schema.total_width + 7) // 8, "big")),
        )

    # -- lazy decode -------------------------------------------------------

    def _ensure(self) -> None:
        if self._fields is None:
            self._materialize()

    def _materialize(self) -> None:
        pv = self.payload_int()
        fields: Dict[str, tuple] = {}
        for name, kind, width, child, shift in self._schema.fields:
            raw = (pv >> shift) & ((1 << width) - 1)
            if kind == "uint" or kind == "felem":
                fields[name] = (kind, raw, width)
            elif kind == "label":
                fields[name] = ("label", PackedLabel._from_payload(child, raw), width)
            elif kind == "flag":
                fields[name] = ("flag", raw == 1, 1)
            elif kind == "bits":
                fields[name] = ("bits", BitString(raw, width), width)
            elif kind == "maybe":
                if raw >> (width - 1):
                    fields[name] = ("maybe", raw & ((1 << (width - 1)) - 1), width)
                else:
                    fields[name] = ("maybe", None, width)
            else:  # maybe_b: an optional BitString value
                fields[name] = ("maybe", BitString(raw & ((1 << (width - 1)) - 1), width - 1), width)
        self._fields = fields

    # -- frozen builders ---------------------------------------------------

    def _put(self, name: str, field: tuple) -> None:
        raise TypeError("packed label views are frozen; build a new Label instead")

    # -- readers (materialize on demand) -----------------------------------

    def __contains__(self, name: str) -> bool:
        self._ensure()
        return name in self._fields

    def __getitem__(self, name: str) -> FieldValue:
        self._ensure()
        return Label.__getitem__(self, name)

    def get(self, name: str, default: FieldValue = None) -> FieldValue:
        self._ensure()
        return Label.get(self, name, default)

    def names(self) -> Iterator[str]:
        return iter(e[0] for e in self._schema.desc)

    def fields(self) -> Iterator[Tuple[str, str, FieldValue, int]]:
        self._ensure()
        return Label.fields(self)

    def walk(self, prefix: FieldPath = ()) -> Iterator[Tuple[FieldPath, str, FieldValue, int]]:
        self._ensure()
        return Label.walk(self, prefix)

    def with_value(self, path: FieldPath, value: FieldValue) -> Label:
        self._ensure()
        return Label.with_value(self, path, value)

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedLabel):
            return self._schema is other._schema and self.payload_int() == other.payload_int()
        if isinstance(other, Label):
            wire = other._wire
            if wire is not None:
                return wire[0] is self._schema and wire[1] == self.payload_int()
            self._ensure()
            return Label.__eq__(self, other)
        return NotImplemented

    def __hash__(self) -> int:
        self._ensure()
        return Label.__hash__(self)

    def __repr__(self) -> str:
        self._ensure()
        return Label.__repr__(self)


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


EMPTY_LABEL = Label()


def field_elem_width(p: int) -> int:
    """Bits needed for an element of F_p."""
    return uint_width(p - 1)


def index_width(n: int) -> int:
    """Bits needed for a block-internal index in ``[ceil(log2 n)]``.

    This is the O(log log n) quantity that drives the paper's label sizes.
    """
    return uint_width(max(1, math.ceil(math.log2(max(2, n)))))
