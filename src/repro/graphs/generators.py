"""Workload generators: random yes-instances and matched no-instances.

Every generator takes an explicit ``random.Random`` so experiments are
reproducible.  Node identifiers are shuffled where the construction would
otherwise encode the witness in the ids (ids are invisible to verifier
logic, but shuffling keeps the instances honest-looking for debugging and
for the baseline schemes that do read positions from the prover).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.network import Edge, Graph, cycle_graph, norm_edge, path_graph
from .embedding import RotationSystem
from .planarity import find_planar_embedding


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def shuffle_labels(
    graph: Graph, rng: random.Random
) -> Tuple[Graph, Dict[int, int]]:
    """Relabel nodes with a random permutation; returns (graph, old->new)."""
    perm = list(graph.nodes())
    rng.shuffle(perm)
    mapping = {old: new for old, new in zip(graph.nodes(), perm)}
    return graph.relabeled(mapping), mapping


def random_laminar_intervals(
    n: int, target: int, rng: random.Random, min_span: int = 2
) -> List[Tuple[int, int]]:
    """A random family of pairwise non-crossing intervals over 0..n-1.

    Intervals may nest or be disjoint but never strictly interleave;
    spans are at least ``min_span`` (so they are chords, not path edges).
    """
    chosen: List[Tuple[int, int]] = []
    chosen_set: Set[Tuple[int, int]] = set()
    # inner[p]: the innermost chosen interval with a < p < b ((-1, n) if
    # none).  The chosen intervals around a point are nested, so (i, j)
    # crosses a chosen (a, b) with a < i < b < j iff inner[i] ends before
    # j, and one with i < a < j < b iff inner[j] starts after i.
    inner = [(-1, n)] * n
    attempts = 0
    while len(chosen) < target and attempts < 20 * (target + 1):
        attempts += 1
        i = rng.randrange(0, n - min_span)
        j = rng.randrange(i + min_span, min(n, i + max(min_span + 1, n // 2) + 1))
        if (i, j) in chosen_set:
            continue
        if inner[i][1] < j or inner[j][0] > i:
            continue
        chosen.append((i, j))
        chosen_set.add((i, j))
        # (i, j) becomes the innermost wherever it nests inside the old one
        new = (i, j)
        inner[i + 1 : j] = [
            new if a <= i and j <= b else (a, b) for a, b in inner[i + 1 : j]
        ]
    return chosen


# ---------------------------------------------------------------------------
# path-outerplanar / outerplanar families
# ---------------------------------------------------------------------------


def random_path_outerplanar(
    n: int, rng: random.Random, density: float = 0.5
) -> Tuple[Graph, List[int]]:
    """A random path-outerplanar graph; returns (graph, witness path)."""
    if n <= 0:
        raise ValueError("n must be positive")
    chords = random_laminar_intervals(n, int(density * n), rng) if n >= 3 else []
    g = path_graph(n)
    for i, j in chords:
        g.add_edge(i, j)
    g, mapping = shuffle_labels(g, rng)
    path = [mapping[i] for i in range(n)]
    return g, path


def random_biconnected_outerplanar(
    n: int, rng: random.Random, density: float = 0.5
) -> Tuple[Graph, List[int]]:
    """A random biconnected outerplanar graph; returns (graph, Ham cycle)."""
    if n < 3:
        raise ValueError("need n >= 3")
    g = cycle_graph(n)
    # chords = laminar intervals that do not duplicate cycle edges
    for i, j in random_laminar_intervals(n, int(density * n), rng):
        if not (i == 0 and j == n - 1):
            g.add_edge(i, j)
    g, mapping = shuffle_labels(g, rng)
    cycle = [mapping[i] for i in range(n)]
    return g, cycle


def random_outerplanar(
    n: int, rng: random.Random, block_size: int = 8
) -> Graph:
    """A random connected outerplanar graph: a tree of biconnected blocks."""
    if n <= 0:
        raise ValueError("n must be positive")
    g = Graph(n)
    placed = 1  # node 0 exists
    anchors = [0]
    while placed < n:
        k = min(rng.randint(2, max(2, block_size)), n - placed + 1)
        anchor = rng.choice(anchors)
        block_nodes = [anchor] + list(range(placed, placed + k - 1))
        placed += k - 1
        if k == 2:
            g.add_edge(block_nodes[0], block_nodes[1])
        else:
            for i in range(k):
                g.add_edge(block_nodes[i], block_nodes[(i + 1) % k])
            for i, j in random_laminar_intervals(k, rng.randint(0, k // 2), rng):
                if not (i == 0 and j == k - 1):
                    g.add_edge(block_nodes[i], block_nodes[j])
        anchors.extend(block_nodes[1:])
    g, _ = shuffle_labels(g, rng)
    return g


# ---------------------------------------------------------------------------
# planar families
# ---------------------------------------------------------------------------


def random_apollonian(n: int, rng: random.Random) -> Graph:
    """A random stacked triangulation (maximal planar graph, m = 3n-6)."""
    if n < 3:
        raise ValueError("need n >= 3")
    g = Graph(n, [(0, 1), (1, 2), (0, 2)])
    faces: List[Tuple[int, int, int]] = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        idx = rng.randrange(len(faces))
        a, b, c = faces.pop(idx)
        g.add_edge(v, a)
        g.add_edge(v, b)
        g.add_edge(v, c)
        faces.extend([(a, b, v), (b, c, v), (a, c, v)])
    return g


def random_planar(
    n: int, rng: random.Random, keep_fraction: float = 0.7
) -> Graph:
    """A random connected planar graph (triangulation with edges deleted)."""
    g = random_apollonian(n, rng)
    edges = list(g.edges())
    rng.shuffle(edges)
    to_remove = int((1 - keep_fraction) * len(edges))
    for u, v in edges[:to_remove]:
        g.remove_edge(u, v)
        # the graph was connected, so deleting (u, v) can only cut the
        # u-v route: an early-exit reachability probe replaces the full
        # connectivity sweep without changing any verdict
        if not g.has_path(u, v):
            g.add_edge(u, v)
    g, _ = shuffle_labels(g, rng)
    return g


def hub_and_cycle(n: int, hub_degree: int) -> Graph:
    """A cycle on n-1 nodes plus a hub adjacent to ``hub_degree`` of them.

    Planar for any hub_degree; max degree = max(hub_degree, 3) -- the
    Delta-sweep workload of experiment E5.
    """
    if n < 4 or hub_degree < 1 or hub_degree > n - 1:
        raise ValueError("need 4 <= n and 1 <= hub_degree <= n-1")
    g = cycle_graph(n - 1)
    hub = Graph(n)
    for u, v in g.edges():
        hub.add_edge(u, v)
    step = max(1, (n - 1) // hub_degree)
    attached = 0
    i = 0
    while attached < hub_degree:
        hub.add_edge(n - 1, i % (n - 1))
        attached += 1
        i += step
    return hub


def wheel_graph(n: int) -> Graph:
    """Wheel W_n: planar with hub degree n-1; not outerplanar for n >= 5."""
    return hub_and_cycle(n, n - 1)


def random_planar_embedding_instance(
    n: int, rng: random.Random, keep_fraction: float = 0.8
) -> Tuple[Graph, RotationSystem]:
    """A random planar graph together with a valid planar rotation system."""
    g = random_planar(n, rng, keep_fraction)
    emb = find_planar_embedding(g)
    assert emb is not None
    return g, emb


# ---------------------------------------------------------------------------
# series-parallel / treewidth-2 families
# ---------------------------------------------------------------------------


def random_series_parallel(n: int, rng: random.Random) -> Graph:
    """A random two-terminal series-parallel graph grown by SP expansions.

    Starts from one edge; repeatedly either subdivides an edge (series) or
    adds a parallel length-2 path across an edge (parallel, simple-graph
    safe).  Every intermediate graph is TTSP.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    g = Graph(n, [(0, 1)])
    next_node = 2
    edges: List[Edge] = [(0, 1)]
    while next_node < n:
        u, v = edges[rng.randrange(len(edges))]
        w = next_node
        next_node += 1
        if rng.random() < 0.5:
            # series: subdivide (u, v) into u-w-v
            g.remove_edge(u, v)
            edges.remove(norm_edge(u, v))
            g.add_edge(u, w)
            g.add_edge(w, v)
            edges.append(norm_edge(u, w))
            edges.append(norm_edge(w, v))
        else:
            # parallel: add path u-w-v next to (u, v)
            g.add_edge(u, w)
            g.add_edge(w, v)
            edges.append(norm_edge(u, w))
            edges.append(norm_edge(w, v))
    g, _ = shuffle_labels(g, rng)
    return g


def random_two_tree(n: int, rng: random.Random) -> Graph:
    """A random 2-tree (maximal treewidth-2 graph)."""
    if n < 3:
        raise ValueError("need n >= 3")
    g = Graph(n, [(0, 1), (1, 2), (0, 2)])
    edges = [(0, 1), (1, 2), (0, 2)]
    for v in range(3, n):
        a, b = edges[rng.randrange(len(edges))]
        g.add_edge(v, a)
        g.add_edge(v, b)
        edges.append(norm_edge(v, a))
        edges.append(norm_edge(v, b))
    return g


def random_treewidth2(
    n: int, rng: random.Random, keep_fraction: float = 0.8
) -> Graph:
    """A random connected partial 2-tree (treewidth <= 2)."""
    g = random_two_tree(n, rng)
    edges = list(g.edges())
    rng.shuffle(edges)
    for u, v in edges[: int((1 - keep_fraction) * len(edges))]:
        g.remove_edge(u, v)
        if not g.has_path(u, v):
            g.add_edge(u, v)
    g, _ = shuffle_labels(g, rng)
    return g


# ---------------------------------------------------------------------------
# no-instances
# ---------------------------------------------------------------------------


def add_crossing_chord(
    graph: Graph, path: Sequence[int], rng: random.Random
) -> Graph:
    """Add one chord that strictly crosses an existing non-path chord,
    or two mutually crossing chords if there were none."""
    g = graph.copy()
    n = len(path)
    if n < 4:
        raise ValueError("need at least 4 path nodes to cross")
    pos = {v: i for i, v in enumerate(path)}
    path_edges = {norm_edge(path[i], path[i + 1]) for i in range(n - 1)}
    chords = [
        tuple(sorted((pos[u], pos[v])))
        for u, v in g.edges()
        if norm_edge(u, v) not in path_edges
    ]
    for _ in range(200):
        if chords:
            a, b = chords[rng.randrange(len(chords))]
            # pick i in (a, b), j outside, to interleave
            candidates = [
                (i, j)
                for i in range(a + 1, b)
                for j in range(b + 1, n)
            ] + [
                (j, i)
                for i in range(a + 1, b)
                for j in range(0, a)
            ]
            if not candidates:
                chords.remove((a, b))
                continue
            i, j = candidates[rng.randrange(len(candidates))]
            u, v = path[i], path[j]
            if not g.has_edge(u, v):
                g.add_edge(u, v)
                return g
        else:
            i = rng.randrange(0, n - 3)
            k = rng.randrange(i + 2, n - 1)
            g.add_edge(path[i], path[k])
            g.add_edge(path[i + 1], path[rng.randrange(k + 1, n)])
            return g
    raise RuntimeError("could not plant a crossing chord")


def subdivided_clique(
    k: int, segment_length: int, rng: Optional[random.Random] = None
) -> Graph:
    """K_k with every edge subdivided into a path of ``segment_length`` edges.

    For k = 5 this is the Section-3 "clustering attack" shape: a non-planar
    graph whose forbidden minor is spread over long distances, defeating any
    cluster-local certification.
    """
    if segment_length < 1:
        raise ValueError("segment_length must be >= 1")
    edges_k = [(i, j) for i in range(k) for j in range(i + 1, k)]
    n = k + len(edges_k) * (segment_length - 1)
    g = Graph(n)
    nxt = k
    for i, j in edges_k:
        prev = i
        for _ in range(segment_length - 1):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
        g.add_edge(prev, j)
    return g


def random_nonplanar(n: int, rng: random.Random) -> Graph:
    """A connected non-planar graph: subdivided K5 plus random planar padding."""
    seg = max(1, (n - 5) // 10 + 1)
    core = subdivided_clique(5, seg)
    g = Graph(max(n, core.n))
    for u, v in core.edges():
        g.add_edge(u, v)
    # pad with a random tree hanging off the core
    for v in range(core.n, g.n):
        g.add_edge(v, rng.randrange(v))
    g, _ = shuffle_labels(g, rng)
    return g


def random_planar_not_outerplanar(n: int, rng: random.Random) -> Graph:
    """Planar but not outerplanar: a subdivided K4 with tree padding."""
    seg = max(1, (n - 4) // 8 + 1)
    core = subdivided_clique(4, seg)
    g = Graph(max(n, core.n))
    for u, v in core.edges():
        g.add_edge(u, v)
    for v in range(core.n, g.n):
        g.add_edge(v, rng.randrange(v))
    g, _ = shuffle_labels(g, rng)
    return g


def random_not_treewidth2(n: int, rng: random.Random) -> Graph:
    """Treewidth >= 3 (K4 subdivision), connected; also not series-parallel."""
    return random_planar_not_outerplanar(n, rng)


def corrupt_rotation(
    graph: Graph, rotations: RotationSystem, rng: random.Random
) -> Optional[RotationSystem]:
    """Perturb rotations until they are no longer a planar embedding.

    Returns None if no perturbation breaks planarity (e.g. very sparse
    graphs whose every rotation system is planar).
    """
    from .embedding import embedding_is_planar, swap_rotation

    candidates = [v for v in graph.nodes() if graph.degree(v) >= 3]
    rng.shuffle(candidates)
    for v in candidates[:50]:
        d = graph.degree(v)
        for _ in range(20):
            i, j = rng.sample(range(d), 2)
            mutated = swap_rotation(rotations, v, i, j)
            if not embedding_is_planar(graph, mutated):
                return mutated
    return None
