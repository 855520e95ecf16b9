"""Local node views.

The verifier's decision at a node is a function of exactly three things
(Kol-Oshman-Saxena model, as restated in Section 1 of the paper):

1. the random bitstrings the node drew during the protocol,
2. the labels the prover assigned to the node,
3. the labels the prover assigned to the node's neighbors.

:class:`NodeView` packages precisely this information plus the node's local
*input* (e.g. which incident edges belong to a given subgraph, or the local
rotation ``rho_v`` in the planar-embedding task).  Decision functions take a
``NodeView`` and nothing else, which keeps every protocol's decision
honest-by-construction about locality.

Neighbors are exposed through *ports* ``0..deg(v)-1`` (the node's local
ordering of its incident edges); global node identifiers never appear in a
view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .labels import EMPTY_LABEL, BitString, Label
from .network import Graph
from .transcript import Transcript

if TYPE_CHECKING:
    from .protocol import DecodeCache

#: shared zero-width coin object for rounds in which a node drew no coins
#: (BitStrings are immutable value objects, so one instance serves all views)
_NO_COINS = BitString(0, 0)


@dataclass
class NodeView:
    """Everything one node may legally base its decision on."""

    degree: int
    #: node-local input (task-specific; empty for pure graph properties)
    input: Dict[str, Any] = field(default_factory=dict)
    #: ``coins[i]`` = this node's public coins in the i-th verifier round
    coins: List[BitString] = field(default_factory=list)
    #: ``own_labels[i]`` = label assigned to this node in the i-th prover round
    own_labels: List[Label] = field(default_factory=list)
    #: ``neighbor_labels[i][port]`` = label of the neighbor behind ``port``
    neighbor_labels: List[List[Label]] = field(default_factory=list)
    #: ``edge_labels[i][port]`` = label of the incident edge behind ``port``
    #: in the i-th prover round (empty label if none was assigned).  Rounds
    #: without edge labels share one immutable tuple per degree.
    edge_labels: List[Sequence[Label]] = field(default_factory=list)
    #: ``neighbor_inputs[port]`` = the *shared* part of a neighbor's input
    #: (edge-local data both endpoints see, e.g. path-edge markers).
    #: Read-only mappings: one copy is aliased across every neighboring
    #: view, so mutation by one checker must not corrupt its siblings.
    neighbor_inputs: List[Mapping[str, Any]] = field(default_factory=list)
    #: the decide sweep's shared memo of pure label decodings (one object
    #: for every view of the sweep); ``None`` means decode privately
    decode_cache: Optional["DecodeCache"] = None

    def own(self, round_index: int) -> Label:
        return self.own_labels[round_index]

    def neighbor(self, round_index: int, port: int) -> Label:
        return self.neighbor_labels[round_index][port]

    def ports(self) -> range:
        return range(self.degree)


def build_views(
    graph: Graph,
    transcript: Transcript,
    inputs: Dict[int, Dict[str, Any]] = None,
    shared_inputs: Dict[int, Dict[str, Any]] = None,
    decode_cache: Optional["DecodeCache"] = None,
) -> Dict[int, NodeView]:
    """Assemble the per-node views of a finished execution.

    ``inputs`` maps node -> local input dict.  ``shared_inputs`` maps
    node -> the part of that node's input which its neighbors may also see
    (edge-incident data such as port orientations).  ``decode_cache`` is
    set on every view (see :class:`~repro.core.protocol.DecodeCache`).
    """
    inputs = inputs or {}
    shared_inputs = shared_inputs or {}
    prover_rounds = transcript.prover_rounds()
    verifier_rounds = transcript.verifier_rounds()
    no_input: Mapping[str, Any] = MappingProxyType({})

    # Hoist everything per-round out of the node loop: one flat label row
    # per prover round (so neighbor reads are list indexing, not dict
    # lookups through rnd.label), the coin dicts, and the edge-label
    # stores.  The all-empty edge rows and the per-source shared-input
    # copies are built once and aliased across many views, so they are
    # pinned immutable (tuples / mapping proxies): a misbehaving checker
    # mutating its view cannot corrupt a sibling's.
    n = graph.n
    coin_rows = [rnd.coins for rnd in verifier_rounds]
    label_rows = [
        [rnd.labels.get(v, EMPTY_LABEL) for v in range(n)] for rnd in prover_rounds
    ]
    edge_stores = [rnd.edge_labels for rnd in prover_rounds]
    empty_edge_row: Dict[int, Tuple[Label, ...]] = {}
    shared_copies: Dict[int, Mapping[str, Any]] = {}

    views: Dict[int, NodeView] = {}
    for v in graph.nodes():
        nbrs = graph.neighbors(v)
        deg = len(nbrs)
        edge_labels = []
        for store in edge_stores:
            if store:
                edge_labels.append(
                    [
                        store.get((v, u) if v <= u else (u, v), EMPTY_LABEL)
                        for u in nbrs
                    ]
                )
            else:
                row = empty_edge_row.get(deg)
                if row is None:
                    row = empty_edge_row[deg] = (EMPTY_LABEL,) * deg
                edge_labels.append(row)
        inp = inputs.get(v)
        view = NodeView(
            degree=deg,
            input=dict(inp) if inp else {},
            coins=[coins.get(v, _NO_COINS) for coins in coin_rows],
            own_labels=[row[v] for row in label_rows],
            neighbor_labels=[[row[u] for u in nbrs] for row in label_rows],
            edge_labels=edge_labels,
            decode_cache=decode_cache,
        )
        if shared_inputs:
            nbr_inputs = []
            for u in nbrs:
                copy = shared_copies.get(u)
                if copy is None:
                    copy = shared_copies[u] = MappingProxyType(
                        dict(shared_inputs.get(u, no_input))
                    )
                nbr_inputs.append(copy)
            view.neighbor_inputs = nbr_inputs
        else:
            view.neighbor_inputs = [no_input] * deg
        views[v] = view
    return views
