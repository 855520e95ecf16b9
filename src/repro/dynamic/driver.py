"""Incremental churn driver: certify a long-lived instance per update.

One *campaign* = one seeded instance plus one seeded update stream
(:mod:`repro.dynamic.updates`).  After every update (an *epoch*) the
driver re-runs the full interactive proof on the mutated graph and diffs
the resulting per-node labels against the previous epoch using the
packed wire form: each label a node carries becomes one row keyed by
its interned schema and payload integer, and a node's signature is the
hash multiset (row -> count) of its rows, so "did this node's proof
change?" is one dict comparison, not a structural walk.  Schemas are
interned per process, so signatures are process-local: they are never
pickled or sent, only diffed where they were computed.

Per epoch the driver records how many node labels changed, how many wire
bits they carried, and whether the verdict matched the ground-truth
predicate — the churn analogue of a batch's per-run records.  Reports
are canonical: the epoch records are a pure function of
``(task, n, seed, n_updates, stream kind, c)``; wall-clock and worker
layout live outside the canonical identity, exactly like
``BatchReport``.

Reproducibility across drivers falls out of the seeding scheme::

    instance seed  = SeedSequence(seed)/"dynamic"/"instance"
    stream rng     = SeedSequence(seed)/"dynamic"/"stream"
    epoch coins    = SeedSequence(seed)/"dynamic"/"coins"   (every epoch)

Every epoch replays the *same* verifier coin stream: a long-lived
certified instance maintains one proof under churn, and re-randomizing
the interaction each epoch would change every label everywhere, burying
the quantity under study (how much of the certificate an update actually
touches).  Epoch ``k``'s graph is ``initial + stream[:k]`` and its rng
depends only on the campaign seed, so a pool worker that replays the
(cheap) update prefix certifies exactly what the serial driver certifies
— campaigns are byte-identical serially, on the pool, and over the
service UPDATE path.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.labels import LabelSchema
from ..core.network import Graph
from ..core.protocol import gc_paused
from ..obs import metrics as obs_metrics
from ..runtime.cache import CachedFactory
from ..runtime.seeds import SeedSequence
from .updates import (
    DYNAMIC_TASKS,
    EdgeUpdate,
    apply_stream,
    generate_stream,
    update_from_tuple,
)

#: one signature row per label a node carries, in the packed wire form
#: ``(source, round, kind, key, schema, width, payload)``: ``schema`` is
#: the interned :class:`LabelSchema` from ``Label.pack()`` (identity
#: equals desc equality within a process) and ``payload`` the packed
#: integer.  For composite protocols (planarity & friends) ``source``
#: names the sub-run and ``key`` the derived-graph node/edge mapped onto
#: this host node, so a re-decomposition after an update honestly reads
#: as churn.  A node's signature is the hash multiset of its rows,
#: ``row -> count``; it holds schema identities, so it only means
#: anything inside the process that computed it.
SignatureRow = Tuple[str, int, str, Any, Optional[LabelSchema], int, int]
NodeSignature = Dict[SignatureRow, int]


@dataclass(frozen=True)
class ChurnCampaignSpec:
    """The canonical identity of one churn campaign."""

    task: str
    n: int = 64
    seed: int = 0
    n_updates: int = 100
    stream: str = "preserving"
    c: int = 2

    def as_dict(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "n": self.n,
            "seed": self.seed,
            "n_updates": self.n_updates,
            "stream": self.stream,
            "c": self.c,
        }


# -- campaign seeding (shared by driver, pool workers, and the service) ----


def instance_seed(seed: int) -> int:
    """The seed the campaign's initial instance is built from."""
    return SeedSequence(seed).child("dynamic").child("instance").seed_int()


def stream_rng(seed: int) -> random.Random:
    """The rng that generates the campaign's update stream."""
    return SeedSequence(seed).child("dynamic").child("stream").rng()


def epoch_rng(seed: int, epoch: int) -> random.Random:
    """The protocol rng for epoch ``epoch``.

    Deliberately *independent of the epoch index*: each epoch replays an
    identical verifier coin stream, so two consecutive epochs differ only
    where the update forced the certificate to differ.  (The parameter
    stays in the signature because it is part of the campaign contract —
    a future variant may re-randomize per epoch.)
    """
    del epoch
    return SeedSequence(seed).child("dynamic").child("coins").rng()


def initial_graph(spec: ChurnCampaignSpec, factory: Optional[CachedFactory] = None) -> Graph:
    """The campaign's epoch-0 graph (a private, mutation-safe copy)."""
    from ..runtime import registry

    task_spec = registry.get_task(spec.task)
    if spec.task not in DYNAMIC_TASKS or task_spec.instance_cls is None:
        raise ValueError(
            f"task {spec.task!r} does not support dynamic certification; "
            f"choose from {sorted(DYNAMIC_TASKS)}"
        )
    seed = instance_seed(spec.seed)
    if factory is not None:
        return factory.checkout_seeded(spec.n, seed).graph
    return task_spec.yes_factory(spec.n, random.Random(seed)).graph.copy()


@gc_paused
def campaign_stream(
    spec: ChurnCampaignSpec, graph: Graph
) -> List[Tuple[EdgeUpdate, bool]]:
    """The campaign's full update stream (pure function of the spec).

    Generated under the GC pause, like every epoch: its planarity tests
    of insert candidates make no cyclic garbage, so collection would
    only rescan live graphs.
    """
    return generate_stream(
        spec.task, graph, spec.n_updates, stream_rng(spec.seed), kind=spec.stream
    )


# -- label diffing ----------------------------------------------------------


def _packed_row(
    source: str, r_idx: int, kind: str, key, label
) -> SignatureRow:
    schema, payload = label.pack()
    return (source, r_idx, kind, key, schema, schema.total_width, payload)


def node_signatures(result) -> Dict[int, NodeSignature]:
    """Packed per-node label signatures of one run's result.

    Each node maps to the multiset of its packed rows.  Equal interned
    schema plus equal payload is equivalent to structural equality of
    the label (the packing invariant), so two signatures are equal
    exactly when the node's labels across all prover rounds are; dict
    equality ignores order, so no canonical sort is needed.  Flat
    :class:`RunResult` transcripts attribute each label to its node
    (edge labels to the low endpoint, as in Lemma 2.4);
    :class:`CompositeRunResult` sub-run labels are routed to host nodes
    through the sub-run's ``node_map`` / ``edge_map``, the same
    attribution the proof-size metric uses.
    """
    sigs: Dict[int, NodeSignature] = {}

    def add(host: int, row: SignatureRow) -> None:
        sig = sigs.get(host)
        if sig is None:
            sigs[host] = {row: 1}
        else:
            sig[row] = sig.get(row, 0) + 1

    if hasattr(result, "sub_runs"):  # CompositeRunResult
        for sub in result.sub_runs:
            transcript = sub.result.transcript
            for r_idx, rnd in enumerate(transcript.prover_rounds()):
                for v, label in rnd.labels.items():
                    row = _packed_row(sub.name, r_idx, "node", v, label)
                    for host in sub.node_map.get(v, ()):
                        add(host, row)
                for (u, v), label in rnd.edge_labels.items():
                    hosts = ()
                    if sub.edge_map is not None:
                        hosts = sub.edge_map.get((u, v), ())
                    if not hosts:
                        hosts = (sub.node_map.get(u) or sub.node_map.get(v) or ())[:1]
                    row = _packed_row(sub.name, r_idx, "edge", (u, v), label)
                    for host in hosts:
                        add(host, row)
        for r_idx, per_host in enumerate(getattr(result, "extra_bits", ())):
            for host, bits in per_host.items():
                add(host, ("host", r_idx, "extra", None, None, bits, 0))
    else:
        for r_idx, rnd in enumerate(result.transcript.prover_rounds()):
            for v, label in rnd.labels.items():
                add(v, _packed_row("run", r_idx, "node", v, label))
            for (u, v), label in rnd.edge_labels.items():
                add(u, _packed_row("run", r_idx, "edge", (u, v), label))
    return sigs


def diff_signatures(
    prev: Optional[Dict[int, NodeSignature]], cur: Dict[int, NodeSignature]
) -> Tuple[int, int]:
    """``(labels_changed, wire_bits_changed)`` between two epochs.

    A node counts as changed if its row multiset differs at all
    (including appearing or disappearing).  ``wire_bits_changed`` is the
    width of every row the prover must re-transmit — rows present in the
    new signature but absent from the old, counted with multiplicity;
    dropped rows cost nothing on the wire.  Against ``prev=None`` (the
    init epoch) everything is new.
    """
    if prev is None:
        bits = sum(row[5] * count for sig in cur.values() for row, count in sig.items())
        return len(cur), bits
    changed = 0
    bits = 0
    empty: NodeSignature = {}
    for v in prev.keys() | cur.keys():
        old, new = prev.get(v, empty), cur.get(v, empty)
        if old == new:
            continue
        changed += 1
        bits += sum(row[5] * count for row, count in new.items() if row not in old)
    return changed, bits


# -- epoch records and the report ------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    """One certified epoch of a churn campaign."""

    epoch: int
    op: str  # "init" | "insert" | "delete"
    u: int  # -1 for the init epoch
    v: int
    m: int  # edges after the update
    expected: bool  # ground-truth predicate on the updated graph
    accepted: bool  # the protocol's verdict (honest prover)
    labels_changed: int
    wire_bits_changed: int
    proof_size_bits: int

    @property
    def sound(self) -> bool:
        return self.accepted == self.expected

    def canonical_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "op": self.op,
            "u": self.u,
            "v": self.v,
            "m": self.m,
            "expected": self.expected,
            "accepted": self.accepted,
            "sound": self.sound,
            "labels_changed": self.labels_changed,
            "wire_bits_changed": self.wire_bits_changed,
            "proof_size_bits": self.proof_size_bits,
        }


@dataclass
class ChurnReport:
    """A finished campaign: canonical epochs + layout metadata."""

    spec: ChurnCampaignSpec
    records: List[EpochRecord]
    workers: int = 0
    wall_clock_total: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_epochs(self) -> int:
        return len(self.records)

    @property
    def labels_total(self) -> int:
        """The full label count: one (possibly empty) label per node."""
        return self.spec.n

    @property
    def mean_labels_changed(self) -> float:
        """Mean labels changed per *update* (the init epoch is a full proof)."""
        updates = [r for r in self.records if r.epoch > 0]
        if not updates:
            return 0.0
        return sum(r.labels_changed for r in updates) / len(updates)

    @property
    def unsound_epochs(self) -> List[int]:
        return [r.epoch for r in self.records if not r.sound]

    @property
    def all_sound(self) -> bool:
        return not self.unsound_epochs

    def canonical_dict(self) -> Dict[str, Any]:
        """The layout-independent identity of this campaign."""
        return {
            **self.spec.as_dict(),
            "labels_total": self.labels_total,
            "epochs": [r.canonical_dict() for r in self.records],
            "aggregates": {
                "n_epochs": self.n_epochs,
                "mean_labels_changed": self.mean_labels_changed,
                "unsound_epochs": self.unsound_epochs,
            },
        }

    def canonical_json(self) -> str:
        import json

        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    def summary(self) -> str:
        return (
            f"{self.spec.task} n={self.spec.n} seed={self.spec.seed} "
            f"{self.spec.stream} x{self.spec.n_updates}: "
            f"{self.n_epochs} epochs, "
            f"mean labels changed {self.mean_labels_changed:.2f}/{self.labels_total}, "
            f"{'all sound' if self.all_sound else f'UNSOUND at {self.unsound_epochs}'}"
        )


# -- epoch execution --------------------------------------------------------


@gc_paused
def certify_epoch(
    task_spec, protocol, graph: Graph, seed: int, epoch: int
) -> Tuple[bool, int, Dict[int, NodeSignature]]:
    """One full proof of the current graph under the epoch's own rng.

    Returns ``(accepted, proof_size_bits, signatures)`` -- all an epoch
    keeps of its run -- so the run's transcript is freed inside the GC
    pause.  The driver (serial and pool) and the service UPDATE path all
    certify through here.
    """
    instance = task_spec.instance_cls(graph.copy())
    result = protocol.execute(instance, rng=epoch_rng(seed, epoch))
    return result.accepted, result.proof_size_bits, node_signatures(result)


def _epoch_records(
    spec: ChurnCampaignSpec,
    g0: Graph,
    stream: Sequence[Tuple[EdgeUpdate, bool]],
    lo: int,
    hi: int,
    verify_full: bool = False,
) -> List[EpochRecord]:
    """Certify epochs ``[lo, hi)`` (epoch k's graph = g0 + stream[:k]).

    A shard starting past epoch 0 replays the cheap update prefix and
    re-certifies epoch ``lo - 1`` to rebuild the baseline signatures —
    epoch rngs are keyed by index, so the baseline is byte-identical to
    the one the previous shard recorded.
    """
    from ..runtime import registry

    task_spec = registry.get_task(spec.task)
    protocol = task_spec.protocol(c=spec.c)
    g = apply_stream(g0, [u for u, _ in stream[: max(0, lo - 1)]])
    prev: Optional[Dict[int, NodeSignature]] = None
    if lo > 0:
        prev = certify_epoch(task_spec, protocol, g, spec.seed, lo - 1)[2]
    records: List[EpochRecord] = []
    for epoch in range(lo, hi):
        if epoch == 0:
            op, uu, vv, expected = "init", -1, -1, True
        else:
            update, expected = stream[epoch - 1]
            update.apply(g)
            op, uu, vv = update.op, update.u, update.v
        accepted, proof_bits, sigs = certify_epoch(task_spec, protocol, g, spec.seed, epoch)
        if verify_full:
            fresh = apply_stream(g0, [u for u, _ in stream[:epoch]])
            fresh_accepted, _, fresh_sigs = certify_epoch(
                task_spec, protocol, fresh, spec.seed, epoch
            )
            if fresh_accepted != accepted or fresh_sigs != sigs:
                raise RuntimeError(
                    f"epoch {epoch}: incremental certification diverged from "
                    f"a from-scratch re-proof of the same graph"
                )
        changed, bits = diff_signatures(prev, sigs)
        records.append(
            EpochRecord(
                epoch=epoch,
                op=op,
                u=uu,
                v=vv,
                m=g.m,
                expected=expected,
                accepted=accepted,
                labels_changed=changed,
                wire_bits_changed=bits,
                proof_size_bits=proof_bits,
            )
        )
        prev = sigs
    return records


def _shard_worker(
    spec_dict: Dict[str, Any],
    wire_stream: Sequence[Tuple[Tuple[str, int, int], bool]],
    lo: int,
    hi: int,
    verify_full: bool,
) -> List[EpochRecord]:
    """Pool entry point: rebuild the campaign and certify one epoch shard.

    ``wire_stream`` is the parent's stream prefix as
    ``(update.as_tuple(), expected)`` pairs, so shards never regenerate it.
    """
    spec = ChurnCampaignSpec(**spec_dict)
    g0 = initial_graph(spec)
    stream = [(update_from_tuple(item), expected) for item, expected in wire_stream]
    return _epoch_records(spec, g0, stream, lo, hi, verify_full=verify_full)


# -- the campaign driver ----------------------------------------------------


def run_campaign(
    spec: ChurnCampaignSpec,
    *,
    workers: int = 0,
    chunk_size: Optional[int] = None,
    verify_full: bool = False,
    journal=None,
    factory: Optional[CachedFactory] = None,
) -> ChurnReport:
    """Run one churn campaign; serial when ``workers == 0``.

    The pool path shards the epoch range contiguously; every shard
    receives the parent's stream prefix in wire form and replays it, so
    record streams concatenate into exactly the serial record stream.
    ``verify_full`` re-proves every epoch from a freshly rebuilt graph
    and fails loudly if the incremental transcript ever diverges.
    """
    from ..runtime.backends import plan_shards

    started = time.monotonic()
    g0 = initial_graph(spec, factory=factory)
    stream = campaign_stream(spec, g0)
    n_epochs = spec.n_updates + 1
    if workers <= 0:
        records = _epoch_records(spec, g0, stream, 0, n_epochs, verify_full=verify_full)
    else:
        shards = plan_shards(
            range(n_epochs),
            workers=workers,
            chunk_size=chunk_size or max(1, -(-n_epochs // workers)),
        )
        wire_stream = [(update.as_tuple(), expected) for update, expected in stream]
        records = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _shard_worker,
                    spec.as_dict(),
                    wire_stream[: shard[-1] + 1],
                    shard[0],
                    shard[-1] + 1,
                    verify_full,
                )
                for shard in shards
            ]
            for future in futures:
                records.extend(future.result())
    report = ChurnReport(
        spec=spec,
        records=records,
        workers=workers,
        wall_clock_total=time.monotonic() - started,
        meta={"verify_full": verify_full},
    )
    _observe(report)
    if journal is not None:
        record_campaign(journal, report)
    return report


def _observe(report: ChurnReport) -> None:
    if not obs_metrics.enabled():
        return
    labels = {"task": report.spec.task, "stream": report.spec.stream}
    obs_metrics.inc(
        "repro_dynamic_epochs_total",
        report.n_epochs,
        help="certified churn epochs",
        **labels,
    )
    obs_metrics.inc(
        "repro_dynamic_unsound_epochs_total",
        len(report.unsound_epochs),
        help="epochs whose verdict disagreed with the predicate",
        **labels,
    )
    for rec in report.records:
        if rec.epoch > 0:
            obs_metrics.observe(
                "repro_dynamic_labels_changed",
                rec.labels_changed,
                help="node labels changed per update",
                buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128),
                **labels,
            )
    obs_metrics.observe(
        "repro_dynamic_campaign_seconds",
        report.wall_clock_total,
        help="wall-clock per churn campaign",
        buckets=(0.1, 0.5, 1.0, 5.0, 30.0, 120.0),
        **labels,
    )


def record_campaign(journal, report: ChurnReport) -> None:
    """Stream one finished campaign into a journal (epoch order)."""
    journal.emit("campaign_start", **report.spec.as_dict(), workers=report.workers)
    for rec in report.records:
        journal.emit("epoch", **rec.canonical_dict())
    journal.emit(
        "campaign_end",
        task=report.spec.task,
        n_epochs=report.n_epochs,
        mean_labels_changed=report.mean_labels_changed,
        unsound_epochs=report.unsound_epochs,
        wall_clock_total=report.wall_clock_total,
    )
