"""Core DIP simulation framework: graphs, labels, transcripts, referee."""

from .labels import BitString, Label, field_elem_width, index_width, uint_width
from .network import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    graph_union,
    norm_edge,
    path_graph,
)
from .protocol import (
    DIPProtocol,
    Interaction,
    ProtocolError,
    acceptance_rate,
)
from .transcript import ProverRound, RunResult, Transcript, VerifierRound
from .views import NodeView, build_views

__all__ = [
    "BitString",
    "Label",
    "field_elem_width",
    "index_width",
    "uint_width",
    "Graph",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "graph_union",
    "norm_edge",
    "path_graph",
    "DIPProtocol",
    "Interaction",
    "ProtocolError",
    "acceptance_rate",
    "ProverRound",
    "RunResult",
    "Transcript",
    "VerifierRound",
    "NodeView",
    "build_views",
]
