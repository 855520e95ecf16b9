"""Interaction transcripts and proof-size accounting.

A transcript records the alternating rounds of a distributed interactive
proof: verifier rounds (each node draws a public random bitstring and sends
it to the prover) and prover rounds (the prover assigns a label to every
node).  The proof size of an execution is the size in bits of the longest
label assigned during the protocol, matching the paper's measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .labels import (
    EMPTY_LABEL,
    BitString,
    Label,
    PackedLabel,
    schema_from_desc,
)

VERIFIER = "verifier"
PROVER = "prover"


@dataclass
class VerifierRound:
    """One verifier round: public coins drawn per node."""

    coins: Dict[int, BitString]
    kind: str = VERIFIER

    def max_bits(self) -> int:
        return max((c.width for c in self.coins.values()), default=0)


@dataclass
class ProverRound:
    """One prover round: a label assigned to each node.

    Nodes absent from the dict implicitly receive the empty (0-bit) label.
    ``edge_labels`` (optional) are labels assigned to edges, visible to both
    endpoints -- the model of Lemma 4.1.  On planar graphs they can be folded
    into node labels with constant overhead (Lemma 2.4, see
    ``repro.primitives.edge_labels``); the proof-size metric counts them
    like any other label.
    """

    labels: Dict[int, Label]
    #: canonical (u <= v) keys; a fresh dict per round (default_factory,
    #: so two rounds can never alias one mutable default)
    edge_labels: Dict[Tuple[int, int], Label] = field(default_factory=dict)
    kind: str = PROVER

    def label(self, v: int) -> Label:
        # the shared EMPTY_LABEL keeps "no label" reads allocation-free and
        # gives all absent slots one identity (checkers never mutate views)
        return self.labels.get(v, EMPTY_LABEL)

    def edge_label(self, u: int, v: int) -> Label:
        key = (u, v) if u <= v else (v, u)
        return self.edge_labels.get(key, EMPTY_LABEL)

    def max_bits(self) -> int:
        node_max = max((l.bit_size() for l in self.labels.values()), default=0)
        edge_max = max((l.bit_size() for l in self.edge_labels.values()), default=0)
        return max(node_max, edge_max)

    # -- wire form --------------------------------------------------------

    def wire_size_bytes(self) -> int:
        """Bytes this round occupies on the wire (sum of packed payloads)."""
        total = 0
        for lbl in self.labels.values():
            total += (lbl.pack()[0].total_width + 7) // 8
        for lbl in self.edge_labels.values():
            total += (lbl.pack()[0].total_width + 7) // 8
        return total

    def wire_hex(self) -> str:
        """Deterministic hex dump of the round (golden-fixture format)."""
        parts = [f"{v}:{self.labels[v].wire_hex()}" for v in sorted(self.labels)]
        parts += [
            f"{u}-{v}:{self.edge_labels[u, v].wire_hex()}"
            for u, v in sorted(self.edge_labels)
        ]
        return "|".join(parts)

    def __getstate__(self):
        # Ship labels as packed buffers: one schema table, one contiguous
        # payload blob, and per-label (owner, schema index, byte offset)
        # entries.  Unpickling rebuilds PackedLabels from the blob, so a
        # label crossing a process boundary costs bytes, not a pickled
        # object graph.
        descs: list = []
        index: Dict[int, int] = {}
        blob = bytearray()

        def seal(store):
            entries = []
            for key, lbl in store.items():
                schema, payload = lbl.pack()
                idx = index.get(id(schema))
                if idx is None:
                    idx = index[id(schema)] = len(descs)
                    descs.append(schema.desc)
                entries.append((key, idx, len(blob)))
                blob.extend(payload.to_bytes((schema.total_width + 7) // 8, "big"))
            return entries

        nodes = seal(self.labels)
        edges = seal(self.edge_labels)
        return {"kind": self.kind, "wire": (tuple(descs), nodes, edges, bytes(blob))}

    def __setstate__(self, state):
        descs, nodes, edges, blob = state["wire"]
        schemas = [schema_from_desc(d) for d in descs]
        self.labels = {
            v: PackedLabel.from_buffer(schemas[i], blob, off) for v, i, off in nodes
        }
        self.edge_labels = {
            e: PackedLabel.from_buffer(schemas[i], blob, off) for e, i, off in edges
        }
        self.kind = state["kind"]


@dataclass
class Transcript:
    """Ordered record of an interactive-proof execution."""

    rounds: List[object] = field(default_factory=list)

    def add_verifier_round(self, coins: Dict[int, BitString]) -> VerifierRound:
        rnd = VerifierRound(coins)
        self.rounds.append(rnd)
        return rnd

    def add_prover_round(
        self,
        labels: Dict[int, Label],
        edge_labels: Optional[Dict[Tuple[int, int], Label]] = None,
    ) -> ProverRound:
        rnd = ProverRound(labels, {} if edge_labels is None else edge_labels)
        self.rounds.append(rnd)
        return rnd

    # -- structure --------------------------------------------------------

    @property
    def n_rounds(self) -> int:
        """Number of interaction rounds (verifier + prover rounds)."""
        return len(self.rounds)

    def prover_rounds(self) -> List[ProverRound]:
        return [r for r in self.rounds if isinstance(r, ProverRound)]

    def verifier_rounds(self) -> List[VerifierRound]:
        return [r for r in self.rounds if isinstance(r, VerifierRound)]

    def ends_with_prover(self) -> bool:
        return bool(self.rounds) and isinstance(self.rounds[-1], ProverRound)

    # -- metrics ----------------------------------------------------------

    def proof_size_bits(self) -> int:
        """The paper's proof size: longest single label, in bits."""
        return max((r.max_bits() for r in self.prover_rounds()), default=0)

    def total_bits_at(self, v: int) -> int:
        """Total prover bits received by node ``v`` across all rounds."""
        return sum(r.label(v).bit_size() for r in self.prover_rounds())

    def max_total_bits(self, n: int) -> int:
        """Max over nodes of total prover bits received."""
        return max((self.total_bits_at(v) for v in range(n)), default=0)

    def wire_size_bytes(self) -> int:
        """Bytes all prover rounds occupy on the wire when packed."""
        return sum(r.wire_size_bytes() for r in self.prover_rounds())

    def wire_hex(self) -> List[str]:
        """Per-prover-round hex dumps (the golden-fixture format)."""
        return [r.wire_hex() for r in self.prover_rounds()]

    def coin_bits_at(self, v: int) -> int:
        """Total random bits drawn by node ``v``."""
        return sum(
            r.coins[v].width
            for r in self.verifier_rounds()
            if v in r.coins
        )


@dataclass
class RunResult:
    """Outcome of executing a protocol on one instance."""

    accepted: bool
    rejecting_nodes: List[int]
    transcript: Transcript
    protocol_name: str
    meta: Optional[dict] = None

    @property
    def n_rounds(self) -> int:
        return self.transcript.n_rounds

    @property
    def proof_size_bits(self) -> int:
        return self.transcript.proof_size_bits()

    @property
    def max_total_bits_per_node(self) -> int:
        n = 0
        for rnd in self.transcript.prover_rounds():
            if rnd.labels:
                n = max(n, max(rnd.labels) + 1)
        return self.transcript.max_total_bits(n)

    def __repr__(self) -> str:
        verdict = "accept" if self.accepted else "reject"
        return (
            f"RunResult({self.protocol_name}: {verdict}, "
            f"rounds={self.n_rounds}, proof={self.proof_size_bits}b)"
        )
