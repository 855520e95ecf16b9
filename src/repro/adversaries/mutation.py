"""Protocol-agnostic label fuzzing: the universal mutation engine.

The paper's soundness theorems implicitly claim that *every* field of every
honest label is load-bearing: corrupt one and some node's local decision
notices (w.h.p. for the algebraic fields, deterministically for the
structural ones).  The classes here measure that mechanically for **all**
protocols at once, with no per-protocol subclassing:

- :class:`MutationTap` hooks the one choke point every prover message of
  every protocol flows through (:meth:`Interaction.prover_round
  <repro.core.protocol.Interaction.prover_round>`, including the sub-runs
  spawned inside composite protocols), enumerates the mutable leaves of
  the round from the labels' packed schemas (decoding only the leaves it
  picks), and applies one single-field mutation in the chosen round.
- :class:`MutatingProver` wraps any honest prover object: it delegates
  every attribute to the wrapped prover (so composite protocols can keep
  calling their ``block_path`` / ``sub_prover`` / ``rotations`` hooks) and
  owns the tap plus the per-run mutation report.
- :class:`SeededMutatingProver` is the picklable registry/BatchRunner
  factory (``wants_rng=True``: the fuzz RNG comes from the run's own
  deterministic stream, so fuzzed batches replay exactly).

Mutation operators (``op=``):

``bit_flip``
    XOR one uniformly chosen bit of the field's wire image.
``rerandomize``
    replace the field with a uniform *different* value of the same width.
``zero_out``
    set the field to its zero value (``False`` / ``0`` / absent ``maybe``);
    falls back to ``bit_flip`` when the field is already zero, so a fired
    mutation always changes the wire image.
``swap_between_nodes``
    exchange the same field between two owners carrying different values
    (multiset-preserving -- the sneakiest of the four); falls back to
    ``rerandomize`` when no partner exists.
``random``
    draw one of the four operators uniformly per run.

Two scoping rules keep the measurement honest.  First, the tap fires on
the ``emission``-th (default: first) round-``K`` prover message that has
any eligible field -- composite protocols emit round ``K`` once per
sub-run, and empty messages (e.g. round 5 of a single-block LR instance)
are skipped rather than wasted.  Second, top-level sub-labels named in
``exclude_prefixes`` (default: ``"edges"``, the Lemma-2.4 folded copies of
the native edge labels) are not mutation targets: the checkers consume the
native edge labels, which the engine mutates directly, and the fold is
separately asserted lossless by the test suite.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.labels import FieldPath, leaf_value, wire_leaf_span
from ..core.protocol import LabelTap

MUTATION_OPS = ("bit_flip", "rerandomize", "swap_between_nodes", "zero_out")


@dataclass
class MutationRecord:
    """What a fired tap did, exactly."""

    round: int  #: interaction round (1, 3, 5)
    msg_index: int  #: 0-based prover-message index within its Interaction
    emission: int  #: which eligible round-K emission fired (0-based)
    site_kind: str  #: "node" | "edge"
    owner: Any  #: node id, or canonical (u, v) edge
    path: FieldPath  #: leaf field path inside the owner's label
    op: str  #: the operator requested
    applied_op: str  #: the operator actually applied (after fallbacks)
    old: Any
    new: Any
    graph: Any = None  #: the Interaction's graph (identity-compared only)
    partner: Any = None  #: the second owner of a swap, if any
    #: where the mutated leaf sits on the wire: absolute bit offset (from
    #: the most significant bit of the owner's packed label), the leaf's
    #: wire width, and the owner label's total wire bits, read from the
    #: label's schema.
    wire_offset: Optional[int] = None
    wire_width: Optional[int] = None
    wire_label_bits: Optional[int] = None

    @property
    def path_str(self) -> str:
        return ".".join(self.path)


class MutationTap(LabelTap):
    """Single-shot label tap: one field, one round, one mutation."""

    def __init__(
        self,
        rng: random.Random,
        target_round: int,
        op: str = "random",
        emission: int = 0,
        exclude_prefixes: Tuple[str, ...] = ("edges",),
    ):
        if target_round % 2 != 1 or target_round < 1:
            raise ValueError("target_round must be an odd interaction round (1, 3, 5)")
        if op != "random" and op not in MUTATION_OPS:
            raise ValueError(f"unknown op {op!r}; choose from {MUTATION_OPS} or 'random'")
        self.rng = rng
        self.target_round = target_round
        self.msg_target = (target_round - 1) // 2
        self.op = op
        self.emission = emission
        self.exclude_prefixes = tuple(exclude_prefixes)
        self.record: Optional[MutationRecord] = None
        self._seen_eligible = 0
        self._tables: Dict = {}

    # -- site enumeration --------------------------------------------------

    def _leaf_table(self, schema):
        """The mutable leaves of ``schema`` (its leaf table minus excluded
        prefixes and 0-bit leaves), and whether any of them is a ``maybe``
        (whose presence only the payload tells)."""
        table = self._tables.get(schema)
        if table is None:
            leaves = tuple(
                leaf
                for leaf in schema.leaves()
                if leaf[0][0] not in self.exclude_prefixes and leaf[2] > 0
            )
            table = self._tables[schema] = (leaves, any(leaf[1] == "maybe" for leaf in leaves))
        return table

    # -- the tap -----------------------------------------------------------

    def on_prover_round(self, interaction, msg_index, labels, edge_labels) -> None:
        if self.record is not None or msg_index != self.msg_target:
            return
        sites = _Sites(self, labels, edge_labels)
        if not len(sites):
            return  # empty/ineligible emission: wait for the next one
        emission = self._seen_eligible
        self._seen_eligible += 1
        if emission != self.emission:
            return
        rng = self.rng
        pool_kind, owner, path, kind, old, width = rng.choice(sites)
        op = rng.choice(MUTATION_OPS) if self.op == "random" else self.op
        store = labels if pool_kind == "node" else edge_labels
        # locate the leaf on the wire before mutating (the schema of the
        # pre-mutation label is the honest layout the bits land in)
        target = store[owner]
        wire_offset, wire_width = wire_leaf_span(target, path)
        wire_label_bits = target.bit_size()
        applied_op, new, partner = self._apply(
            rng, store, sites, pool_kind, owner, path, kind, old, width, op
        )
        self.record = MutationRecord(
            round=self.target_round,
            msg_index=msg_index,
            emission=emission,
            site_kind=pool_kind,
            owner=owner,
            path=path,
            op=op,
            applied_op=applied_op,
            old=old,
            new=new,
            graph=interaction.graph,
            partner=partner,
            wire_offset=wire_offset,
            wire_width=wire_width,
            wire_label_bits=wire_label_bits,
        )

    def _apply(self, rng, store, sites, pool_kind, owner, path, kind, old, width, op):
        if op == "swap_between_nodes":
            partners = sites.partners(pool_kind, owner, path, kind, old, width)
            if partners:
                other, other_value = rng.choice(partners)
                store[owner] = store[owner].with_value(path, other_value)
                store[other] = store[other].with_value(path, old)
                return op, other_value, other
            op = "rerandomize"  # no distinct partner: fall back
        if op == "zero_out":
            new = _zero_value(kind, old, width)
            if new is _UNCHANGED:
                op = "bit_flip"  # already zero: fall back
            else:
                store[owner] = store[owner].with_value(path, new)
                return op, new, None
        if op == "bit_flip":
            new = _flip_bit(rng, kind, old, width)
        else:  # rerandomize
            new = _rerandomize(rng, kind, old, width)
        store[owner] = store[owner].with_value(path, new)
        return op, new, None


class _Sites:
    """All mutable leaves of one prover round, in deterministic emission
    order (node labels, then edge labels; each label's leaves in wire
    order): a sequence of ``(pool_kind, owner, path, kind, value, width)``.

    A label's leaves come from its schema's leaf table, and an item
    decodes its one leaf on demand.  A ``maybe`` leaf is a site only while
    it holds a value (an absent one's value width is not on the wire).
    """

    def __init__(self, tap: MutationTap, labels: Dict, edge_labels: Dict):
        #: per label with sites: (pool_kind, owner, payload, its leaves
        #: ``(path, kind, width, shift)``); ``ends`` counts the sites up to
        #: each label
        self.owners: List[Tuple] = []
        self.ends: List[int] = []
        total = 0
        for pool_kind, store in (("node", labels), ("edge", edge_labels)):
            for owner, label in store.items():
                schema, payload = label.pack()
                leaves, has_maybe = tap._leaf_table(schema)
                if has_maybe:
                    leaves = tuple(leaf for leaf in leaves if _present(leaf, payload))
                if leaves:
                    total += len(leaves)
                    self.owners.append((pool_kind, owner, payload, leaves))
                    self.ends.append(total)
        self.total = total

    def __len__(self) -> int:
        return self.total

    def __getitem__(self, k: int) -> Tuple:
        i = bisect_right(self.ends, k)
        pool_kind, owner, payload, leaves = self.owners[i]
        path, kind, width, shift = leaves[k - (self.ends[i] - len(leaves))]
        return (pool_kind, owner, path, kind, leaf_value(kind, payload, shift, width), width)

    def partners(self, pool_kind, owner, path, kind, old, width) -> List[Tuple]:
        """``(owner, value)`` of every other owner in the pool whose leaf at
        ``path`` is a site of the same kind and width holding another value."""
        out = []
        for pool, other, payload, leaves in self.owners:
            leaf = next((leaf for leaf in leaves if leaf[0] == path), None)
            if pool != pool_kind or other == owner or leaf is None:
                continue
            _, leaf_kind, leaf_width, shift = leaf
            value = leaf_value(leaf_kind, payload, shift, leaf_width)
            if leaf_kind == kind and leaf_width == width and value != old:
                out.append((other, value))
        return out


def _present(leaf, payload: int) -> bool:
    """False for a ``maybe`` leaf without a value (presence bit clear)."""
    _, kind, width, shift = leaf
    return kind != "maybe" or (payload >> (shift + width - 1)) & 1 == 1


_UNCHANGED = object()


def _zero_value(kind: str, old, width: int):
    """The field's zero wire image, or ``_UNCHANGED`` if it already is it."""
    if kind == "flag":
        return _UNCHANGED if old is False else False
    if kind == "maybe":
        return None  # always a change: None-valued maybes are not sites
    return _UNCHANGED if old == 0 else 0  # uint / felem


def _flip_bit(rng: random.Random, kind: str, old, width: int):
    if kind == "flag":
        return not old
    if kind == "maybe":
        vwidth = width - 1
        if vwidth <= 0:
            return None  # only the presence bit exists
        return old ^ (1 << rng.randrange(vwidth))
    return old ^ (1 << rng.randrange(width))  # uint / felem


def _rerandomize(rng: random.Random, kind: str, old, width: int):
    if kind == "flag":
        return not old
    if kind == "maybe":
        vwidth = width - 1
        if vwidth <= 0:
            return None
        width = vwidth
    new = old  # uint / felem, or a maybe's value
    while new == old:
        new = rng.getrandbits(width)
    return new


# ---------------------------------------------------------------------------
# the prover wrapper
# ---------------------------------------------------------------------------


class MutatingProver:
    """Wrap any honest prover and corrupt one label field on the wire.

    All attribute access is delegated to the wrapped prover, so the host
    protocol (and any composite protocol's hook calls) see the honest
    strategy; the corruption happens in :attr:`tap`, a :class:`MutationTap`
    that sees the built labels pass through ``Interaction.prover_round``
    of every interaction run under ``run_context(tap=prover.tap)`` (the
    BatchRunner opens that context around each run).

    ``finalize_report(result)`` -- called by the BatchRunner after the
    execution, or manually in direct use -- returns the per-run fuzz
    report consumed by the coverage analysis.
    """

    def __init__(
        self,
        instance,
        inner,
        fuzz_rng: random.Random,
        target_round: int = 1,
        op: str = "random",
        emission: int = 0,
        exclude_prefixes: Tuple[str, ...] = ("edges",),
    ):
        self.instance = instance
        self.inner = inner
        self.tap = MutationTap(
            fuzz_rng, target_round, op=op, emission=emission,
            exclude_prefixes=exclude_prefixes,
        )

    def __getattr__(self, name):
        return getattr(self.inner, name)

    @property
    def mutation(self) -> Optional[MutationRecord]:
        return self.tap.record

    # -- reporting ---------------------------------------------------------

    def finalize_report(self, result) -> Dict[str, Any]:
        rec = self.tap.record
        report: Dict[str, Any] = {
            "adversary": "mutating",
            "target_round": self.tap.target_round,
            "op": self.tap.op,
            "mutated": rec is not None,
            "accepted": bool(result.accepted),
        }
        if rec is None:
            return report
        # the Lemma-2.4 fold wraps the real per-stage label under "node";
        # unwrap it so `stage` names the logical protocol stage either way
        stage = rec.path[0]
        if stage == "node" and len(rec.path) > 1:
            stage = rec.path[1]
        report.update(
            round=rec.round,
            emission=rec.emission,
            site=rec.site_kind,
            owner=str(rec.owner),
            path=rec.path_str,
            stage=stage,
            applied_op=rec.applied_op,
            old=str(rec.old),
            new=str(rec.new),
            n_rejecting=len(result.rejecting_nodes),
            caught_by=self._caught_by(rec, result),
            wire_offset=rec.wire_offset,
            wire_width=rec.wire_width,
            wire_label_bits=rec.wire_label_bits,
        )
        return report

    def _caught_by(self, rec: MutationRecord, result) -> str:
        """Which node noticed: the mutated owner, a neighbor, or farther out.

        Node-id classification is only meaningful when the mutated
        Interaction ran on the host graph itself; composite sub-runs use
        renumbered subgraphs (or the Euler-tour graph), so those report
        ``"sub-run"`` and the analysis falls back to the stage name.
        """
        if result.accepted:
            return "none"
        if rec.graph is not self.instance.graph:
            return "sub-run"
        owners = set()
        for item in (rec.owner, rec.partner):
            if item is None:
                continue
            if rec.site_kind == "edge":
                owners.update(item)
            else:
                owners.add(item)
        rejecting = set(result.rejecting_nodes)
        if rejecting & owners:
            return "owner"
        g = self.instance.graph
        neighborhood = {u for v in owners for u in g.neighbors(v)}
        if rejecting & neighborhood:
            return "neighbor"
        return "distant"


class SeededMutatingProver:
    """Picklable BatchRunner factory for :class:`MutatingProver`.

    ``wants_rng=True``: the runner hands each run its own ``adversary``
    RNG stream, so fuzzed batches are deterministic across worker layouts.
    ``prover_cls`` must be the task's module-level honest prover class.
    """

    wants_rng = True

    def __init__(
        self,
        prover_cls,
        target_round: int,
        op: str = "random",
        emission: int = 0,
    ):
        self.prover_cls = prover_cls
        self.target_round = target_round
        self.op = op
        self.emission = emission

    def __call__(self, instance, rng: random.Random) -> MutatingProver:
        return MutatingProver(
            instance,
            self.prover_cls(instance),
            rng,
            target_round=self.target_round,
            op=self.op,
            emission=self.emission,
        )

    def with_op(self, op: str) -> "SeededMutatingProver":
        return SeededMutatingProver(
            self.prover_cls, self.target_round, op=op, emission=self.emission
        )

    def __repr__(self) -> str:
        return (
            f"SeededMutatingProver({self.prover_cls.__name__}, "
            f"round={self.target_round}, op={self.op!r})"
        )
