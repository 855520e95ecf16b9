"""Instance types for every verification task in the paper.

An *instance* bundles the communication graph with whatever distributed
input the task definition gives the nodes (a Hamiltonian path and edge
orientations for LR-sorting, local rotations for planar embedding), plus
optional witness hints that only the honest prover may use (the prover sees
the entire instance anyway; cheating provers simply ignore the hints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..core.network import Edge, Graph, norm_edge
from ..graphs.embedding import RotationSystem


@dataclass
class LRSortingInstance:
    """Section 4: a directed graph whose Hamiltonian path is given.

    ``path`` lists the nodes from left to right; every node knows its
    incident path edges and their direction.  ``orientation`` maps each
    non-path edge (canonical form) to its directed form ``(tail, head)``.
    The instance is a yes-instance iff every directed edge points from left
    to right along the path.
    """

    graph: Graph
    path: List[int]
    orientation: Dict[Edge, Tuple[int, int]]

    def __post_init__(self):
        if sorted(self.path) != list(self.graph.nodes()):
            raise ValueError("path must be a Hamiltonian node sequence")
        for i in range(len(self.path) - 1):
            if not self.graph.has_edge(self.path[i], self.path[i + 1]):
                raise ValueError("path edge missing from the graph")
        path_edges = self.path_edge_set()
        for e, (t, h) in self.orientation.items():
            if e in path_edges:
                raise ValueError("orientation must cover only non-path edges")
            if norm_edge(t, h) != e or not self.graph.has_edge(t, h):
                raise ValueError(f"bad orientation for edge {e}")
        missing = self.graph.edge_set() - path_edges - set(self.orientation)
        if missing:
            raise ValueError(f"unoriented non-path edges: {sorted(missing)[:5]}")

    def path_edge_set(self) -> frozenset:
        return frozenset(
            norm_edge(self.path[i], self.path[i + 1])
            for i in range(len(self.path) - 1)
        )

    def position(self) -> Dict[int, int]:
        return {v: i for i, v in enumerate(self.path)}

    def is_yes_instance(self) -> bool:
        pos = self.position()
        return all(pos[t] < pos[h] for t, h in self.orientation.values())

    @cached_property
    def ports(self) -> "LRPorts":
        """The nodes' port structure, computed once per instance (the
        instance is never mutated, and every run on it reuses it)."""
        return LRPorts.of(self)


#: LR-sorting port kinds: what the edge behind a port is to its node
PATH_LEFT = "path_left"
PATH_RIGHT = "path_right"
OUT = "out"
IN = "in"


@dataclass(frozen=True)
class LRPorts:
    """The LR-sorting distributed input: each node's incident edges.

    Port ``q`` of node ``v`` leads to ``graph.neighbors(v)[q]``.  Per node
    ``v``: ``kinds[v]`` names each port's edge (:data:`PATH_LEFT`,
    :data:`PATH_RIGHT`, :data:`OUT`, :data:`IN`); ``roles[v]`` is
    ``(left_port, right_port, out_ports, in_ports)``, the path ports as a
    port or None and the non-path ports by direction, in port order; and
    ``edge_keys[v]`` holds each port's canonical edge.  ``inputs`` is the
    per-node input dict of the per-view decide (``port_kinds`` and
    ``port_roles``).
    """

    kinds: Tuple[Tuple[str, ...], ...]
    roles: Tuple[tuple, ...]
    edge_keys: Tuple[Tuple[Edge, ...], ...]
    inputs: Dict[int, dict] = field(compare=False)

    @staticmethod
    def of(instance: LRSortingInstance) -> "LRPorts":
        graph, path, direction = instance.graph, instance.path, instance.orientation
        # each node's path neighbors: the path is simple, so a port leads
        # along the path iff it leads to one of them
        left_of = [-1] * len(path)
        right_of = [-1] * len(path)
        for a, b in zip(path, path[1:]):
            right_of[a], left_of[b] = b, a
        # the edge keys are the graph's memoized canonical tuples: edges()
        # lists (v, u), u > v, by v and then u, so node v's edges to higher
        # neighbors come next in it, and those to lower ones were met there
        upper = iter(graph.edges())
        lower: List[list] = [[] for _ in graph.nodes()]
        #: nodes with equal kinds and roles share them (and their input)
        shared: Dict[tuple, tuple] = {}
        kinds, roles, edge_keys, inputs = [], [], [], {}
        for v in graph.nodes():
            nbrs = graph.neighbors(v)
            keys = lower[v]
            for u in nbrs[len(keys):]:
                e = next(upper)
                keys.append(e)
                lower[u].append(e)
            left_nb, right_nb = left_of[v], right_of[v]
            left = right = None
            outs, ins, node_kinds = [], [], []
            for q, u in enumerate(nbrs):
                if u == left_nb:
                    left = q
                    node_kinds.append(PATH_LEFT)
                elif u == right_nb:
                    right = q
                    node_kinds.append(PATH_RIGHT)
                elif direction[keys[q]][0] == v:
                    outs.append(q)
                    node_kinds.append(OUT)
                else:
                    ins.append(q)
                    node_kinds.append(IN)
            key = (tuple(node_kinds), (left, right, tuple(outs), tuple(ins)))
            entry = shared.get(key)
            if entry is None:
                entry = shared[key] = key + ({"port_kinds": key[0], "port_roles": key[1]},)
            kinds.append(entry[0])
            roles.append(entry[1])
            inputs[v] = entry[2]
            edge_keys.append(tuple(keys))
        return LRPorts(tuple(kinds), tuple(roles), tuple(edge_keys), inputs)


@dataclass
class PathOuterplanarInstance:
    """Theorem 1.2: is the graph path-outerplanar?"""

    graph: Graph
    #: optional witness for the honest prover (computed if absent)
    witness_path: Optional[List[int]] = None


@dataclass
class OuterplanarInstance:
    """Theorem 1.3: is the graph outerplanar?"""

    graph: Graph


@dataclass
class PlanarEmbeddingInstance:
    """Theorem 1.4: do the given local rotations form a planar embedding?

    Every node holds a clockwise ordering ``rho_v`` of its incident edges.
    """

    graph: Graph
    rotations: RotationSystem

    def __post_init__(self):
        for v in self.graph.nodes():
            if set(self.rotations.cw[v]) != set(self.graph.neighbors(v)):
                raise ValueError(f"rotation at node {v} does not match the graph")


@dataclass
class PlanarityInstance:
    """Theorem 1.5: is the graph planar?"""

    graph: Graph


@dataclass
class SeriesParallelInstance:
    """Theorem 1.6: is the graph series-parallel?"""

    graph: Graph


@dataclass
class Treewidth2Instance:
    """Theorem 1.7: does the graph have treewidth at most 2?"""

    graph: Graph


@dataclass
class SpanningSubgraphInstance:
    """Lemma 2.5 substrate task: is the marked subgraph a spanning tree?

    ``tree_edges`` are the edges the nodes see as marked (each node knows
    its incident marked edges).
    """

    graph: Graph
    tree_edges: frozenset

    def is_yes_instance(self) -> bool:
        marked = Graph(self.graph.n, self.tree_edges)
        return marked.m == self.graph.n - 1 and marked.is_connected()
