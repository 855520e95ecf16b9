"""Lemma 2.4: simulating edge labels with node labels in planar graphs.

Planar graphs have arboricity <= 3, so the edge set splits into three
forests F_0, F_1, F_2.  The prover communicates each forest with the
constant-size encoding of Lemma 2.3; then the label of edge (u, v), where
u is v's child in forest F_i, is written into a field ``edge{i}`` of u's
node label.  Both endpoints can locate it: the child reads its own label,
the parent reads the child's label behind the child's port (identified via
the decoded forest).

The fold is *lossless*: :func:`unfold_for_node` reconstructs every incident
edge label from node labels alone, which the test suite asserts against the
native edge-label transcript.  Protocol implementations therefore verify on
native edge labels (Lemma 4.1 model) and, when simulating (Lemma 4.2),
additionally emit the folded node labels so the transcript's proof-size
accounting reflects the node-label-only model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.labels import EMPTY_LABEL, Label, LabelSchema, nest_labels, wrapper_schema
from ..core.network import Edge, Graph, norm_edge
from ..graphs.spanning import arboricity_forest_partition, forest_partition_assignment
from .forest_encoding import decode_forest_view, forest_encoding_columns, forest_labels

N_FORESTS = 3

#: sub-label names of the round-1 setup (one forest encoding each) and of
#: a folded edge label (the edge whose child endpoint is this node in F_i)
FOREST_KEYS = tuple(f"forest{i}" for i in range(N_FORESTS))
EDGE_KEYS = tuple(f"edge{i}" for i in range(N_FORESTS))


class EdgeLabelSimulation:
    """Per-graph precomputation for folding edge labels into node labels."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.forests = arboricity_forest_partition(graph, N_FORESTS)
        self.assignment = forest_partition_assignment(graph, self.forests)

    @classmethod
    def disjoint(cls, graphs: Sequence[Graph]) -> List["EdgeLabelSimulation"]:
        """One simulation per graph, computed once over their disjoint union.

        The forest partition, the edge assignment and the setup labels of
        the union restrict to exactly those of each graph alone: the
        spanning-forest peeling and the degeneracy coloring never look
        across components, and relabelling a graph's nodes by a constant
        offset keeps every order they depend on.  Raises ``ValueError``
        like the constructor when any graph needs more than three forests.
        """
        offsets: List[int] = []
        edges: List[Edge] = []
        total = 0
        for g in graphs:
            offsets.append(total)
            edges += [(u + total, v + total) for u, v in g.edges()]
            total += g.n
        union = cls(Graph.from_edge_list(total, edges))
        setup = union.setup_labels()
        member = [k for k, g in enumerate(graphs) for _ in range(g.n)]
        assignments: List[Dict[Edge, Tuple[int, int]]] = [{} for _ in graphs]
        for (u, v), (fi, child) in union.assignment.items():
            k = member[u]
            off = offsets[k]
            assignments[k][(u - off, v - off)] = (fi, child - off)
        return [
            _SimulationSlice(g, assignments[k], {v: setup[v + off] for v in range(g.n)})
            for k, (g, off) in enumerate(zip(graphs, offsets))
        ]

    # -- prover side -------------------------------------------------------

    def setup_labels(self) -> Dict[int, Label]:
        """Round-1 advice: the three forest encodings, nested per node.

        Raises ``ValueError`` when a forest's contractions need more than
        six colors (the graph is not planar).
        """
        per_forest = []
        for cols in forest_encoding_columns([(self.graph, f) for f in self.forests]):
            if cols is None:
                raise ValueError("contracted graph needed more than 6 colors")
            per_forest.append(forest_labels(cols))
        out: Dict[int, Label] = {}
        # forest encodings are interned per distinct field tuple, so whole
        # setup wrappers repeat too -- share them by sub-label identity
        interned: Dict[Tuple[int, ...], Label] = {}
        for v in self.graph.nodes():
            subs = tuple(per_forest[i][v] for i in range(N_FORESTS))
            key = tuple(map(id, subs))
            lbl = interned.get(key)
            if lbl is None:
                lbl = interned[key] = nest_labels(FOREST_KEYS, subs)
            out[v] = lbl
        return out

    def fold_round(
        self, edge_labels: Dict[Edge, Label]
    ) -> Dict[int, Label]:
        """Fold one round's edge labels onto their child endpoints."""
        folded: Dict[int, List[Tuple[str, Label]]] = {}
        for e, lbl in edge_labels.items():
            fi, child = self.assignment[norm_edge(*e)]
            folded.setdefault(child, []).append((EDGE_KEYS[fi], lbl))
        out: Dict[int, Label] = {}
        for v in self.graph.nodes():
            items = folded.get(v)
            if items is None:
                out[v] = EMPTY_LABEL
            else:
                names, subs = zip(*items)
                out[v] = nest_labels(names, subs)
        return out

    def fold_columns(
        self, edges: Sequence[Edge], schemas: Sequence[LabelSchema], payloads: Sequence[int]
    ) -> Tuple[List[LabelSchema], List[int]]:
        """:meth:`fold_round` over packed columns.

        Edge ``edges[i]`` carries the label ``(schemas[i], payloads[i])``;
        returns each node's fold wrapper as a schema and a payload, with
        no label object built.  Edges outside the assignment stay unfolded.
        """
        folded: Dict[int, list] = {}
        assignment = self.assignment
        for (u, v), schema, payload in zip(edges, schemas, payloads):
            hit = assignment.get((u, v) if u <= v else (v, u))
            if hit is not None:
                folded.setdefault(hit[1], []).append((EDGE_KEYS[hit[0]], schema, payload))
        out_schemas = [EMPTY_LABEL.pack()[0]] * self.graph.n
        out_payloads = [0] * self.graph.n
        for v, items in folded.items():
            acc = 0
            for _, schema, payload in items:
                acc = (acc << schema.total_width) | payload
            out_schemas[v] = wrapper_schema(
                tuple(item[0] for item in items), [item[1] for item in items]
            )
            out_payloads[v] = acc
        return out_schemas, out_payloads

    # -- verifier side -----------------------------------------------------

    def unfold_for_node(
        self,
        v: int,
        setup_own: Label,
        setup_neighbors: Sequence[Label],
        folded_own: Label,
        folded_neighbors: Sequence[Label],
    ) -> Optional[List[Label]]:
        """Reconstruct the labels of v's incident edges, per port.

        Uses only data the node legally sees.  Returns None if any forest
        encoding fails to decode (the node should reject).
        """
        degree = len(setup_neighbors)
        out = [EMPTY_LABEL] * degree
        for i, key in enumerate(FOREST_KEYS):
            if key not in setup_own:
                return None
            own_enc = setup_own[key]
            nbr_encs = []
            for lbl in setup_neighbors:
                if key not in lbl:
                    return None
                nbr_encs.append(lbl[key])
            decoded = decode_forest_view(own_enc, nbr_encs)
            if decoded is None:
                return None
            edge_key = EDGE_KEYS[i]
            if decoded.parent_port is not None:
                # v is the child: the edge to its parent is in v's own label
                if edge_key in folded_own:
                    out[decoded.parent_port] = folded_own[edge_key]
            for port in decoded.children_ports:
                child_label = folded_neighbors[port]
                if edge_key in child_label:
                    out[port] = child_label[edge_key]
        return out


class _SimulationSlice(EdgeLabelSimulation):
    """One graph's share of a :meth:`EdgeLabelSimulation.disjoint` run:
    the assignment and setup labels, already restricted to the graph."""

    def __init__(self, graph: Graph, assignment, setup: Dict[int, Label]):
        self.graph = graph
        self.assignment = assignment
        self._setup = setup

    def setup_labels(self) -> Dict[int, Label]:
        return self._setup
