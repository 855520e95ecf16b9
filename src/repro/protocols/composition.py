"""Composition of sub-protocol runs into one host execution.

The protocols of Theorems 1.3-1.7 are built by running the
path-outerplanarity protocol (or its machinery) on derived structures --
per biconnected component, per ear, or on the Euler-tour graph h(G, T, rho)
-- in parallel, inside the same 5 interaction rounds.  Each host node
simulates a constant number of derived nodes, so its round label is the
concatenation of the labels of the derived nodes it simulates (plus any
host-level stage labels).

:class:`CompositeRunResult` performs exactly that accounting: the composite
verdict is the AND of all sub-runs plus host-level checks, the round count
is the maximum, and the proof size is, per round, the maximum over host
nodes of the total bits mapped to them.

Execution shares work across sub-runs only where no sub-run can tell.  Each
sub-run keeps its own :class:`~repro.core.protocol.Interaction`, coin stream and
transcript, and runs its rounds in the host's sub-run order (so label
taps and traces see each sub-run exactly as a lone execution).  What the
sub-runs of one host execution share is the work that does not depend on
any one of them: the prover-independent Lemma-2.4 precomputation runs
once over the disjoint union of all block / ear graphs
(:func:`~repro.protocols.path_outerplanarity.batch_simulations`), and the
decide sweeps wait on one :class:`~repro.core.protocol.DecideBatch`,
which runs one vectorized kernel per host batch (one for every
path-outerplanarity sub-run, whatever its size) over the union of its
members before every sub-run decides through its own interaction.
The series-parallel protocol splits into ``plan`` / ``start`` /
``finish`` so that treewidth-2 can put the ears of all its blocks into
one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.transcript import ProverRound, RunResult, Transcript


@dataclass
class SubRun:
    """One sub-protocol execution plus the mapping back to host nodes.

    ``node_map`` maps each derived-graph node to the host nodes that carry
    its labels (usually one; deferred labels -- e.g. a separating cut
    node's labels copied to its neighbors -- list several).
    """

    name: str
    result: RunResult
    node_map: Dict[int, Sequence[int]]
    #: optional routing of sub-graph *edge* labels to host nodes (e.g. a
    #: virtual chord representing an ear rides on the ear's interior);
    #: canonical (u < v) keys; falls back to an endpoint's host
    edge_map: Optional[Dict[Tuple[int, int], Sequence[int]]] = None

    def mapped_bits_per_round(self) -> List[Dict[int, int]]:
        """For every prover round: host node -> bits carried."""
        out: List[Dict[int, int]] = []
        transcript = self.result.transcript
        for rnd in transcript.prover_rounds():
            per_host: Dict[int, int] = {}
            for sub_node, label in rnd.labels.items():
                for host in self.node_map.get(sub_node, ()):
                    per_host[host] = per_host.get(host, 0) + label.bit_size()
            for (u, v), label in rnd.edge_labels.items():
                hosts = ()
                if self.edge_map is not None:
                    hosts = self.edge_map.get((u, v), ())
                if not hosts:
                    # an edge label rides on one accountable endpoint
                    # (Lemma 2.4); attribute its bits to that endpoint's host
                    hosts = (self.node_map.get(u) or self.node_map.get(v) or ())[:1]
                for host in hosts:
                    per_host[host] = per_host.get(host, 0) + label.bit_size()
            out.append(per_host)
        return out


@dataclass
class CompositeRunResult:
    """RunResult-compatible aggregate over sub-runs + host-level checks."""

    accepted: bool
    rejecting_nodes: List[int]
    protocol_name: str
    host_n: int
    sub_runs: List[SubRun]
    #: extra per-round host-level label bits (e.g. nonces, forest encodings)
    extra_bits: List[Dict[int, int]] = field(default_factory=list)
    meta: Optional[dict] = None

    @property
    def n_rounds(self) -> int:
        return max((s.result.n_rounds for s in self.sub_runs), default=0)

    @property
    def proof_size_bits(self) -> int:
        """Max over host nodes and rounds of the bits they carry."""
        n_prover_rounds = max(
            [len(s.result.transcript.prover_rounds()) for s in self.sub_runs]
            + [len(self.extra_bits)],
            default=0,
        )
        per_round_maps: List[Dict[int, int]] = [
            dict() for _ in range(n_prover_rounds)
        ]
        for sub in self.sub_runs:
            for i, per_host in enumerate(sub.mapped_bits_per_round()):
                for host, bits in per_host.items():
                    per_round_maps[i][host] = per_round_maps[i].get(host, 0) + bits
        for i, per_host in enumerate(self.extra_bits):
            if i >= len(per_round_maps):
                per_round_maps.append({})
            for host, bits in per_host.items():
                per_round_maps[i][host] = per_round_maps[i].get(host, 0) + bits
        best = 0
        for per_host in per_round_maps:
            if per_host:
                best = max(best, max(per_host.values()))
        return best

    def __repr__(self) -> str:
        verdict = "accept" if self.accepted else "reject"
        return (
            f"CompositeRunResult({self.protocol_name}: {verdict}, "
            f"rounds={self.n_rounds}, proof={self.proof_size_bits}b, "
            f"subs={len(self.sub_runs)})"
        )


def combine(
    protocol_name: str,
    host_n: int,
    sub_runs: List[SubRun],
    host_ok: bool = True,
    host_rejecting: Optional[List[int]] = None,
    extra_bits: Optional[List[Dict[int, int]]] = None,
    meta: Optional[dict] = None,
) -> CompositeRunResult:
    accepted = host_ok and all(s.result.accepted for s in sub_runs)
    rejecting: List[int] = list(host_rejecting or [])
    for sub in sub_runs:
        for sub_node in sub.result.rejecting_nodes:
            rejecting.extend(sub.node_map.get(sub_node, ()))
    return CompositeRunResult(
        accepted=accepted,
        rejecting_nodes=sorted(set(rejecting)),
        protocol_name=protocol_name,
        host_n=host_n,
        sub_runs=sub_runs,
        extra_bits=extra_bits or [],
        meta=meta,
    )
