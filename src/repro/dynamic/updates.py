"""Typed edge updates and seeded churn streams for long-lived instances.

A *churn campaign* certifies one long-lived graph instance over a stream
of edge insertions and deletions.  Everything here is a pure function of
``(task, n, seed, stream kind)`` driven through the hash-derived
:class:`~repro.runtime.seeds.SeedSequence` streams, so a campaign is
bit-reproducible no matter which driver replays it: any process that
regenerates the stream from the campaign seed gets the identical update
stream (pool shards skip even that and receive the parent's stream in
wire form).

Two stream kinds:

* ``preserving`` — every update keeps the task predicate true (and the
  graph connected): inserts are rejected-and-retried until one fits,
  deletions are connectivity- and predicate-safe.  The interesting
  measurement is label churn *within* the yes-region.
* ``crossing`` — occasionally inserts a violating edge (planar ->
  non-planar), then deletes it again on the next step, exercising both
  directions of the decision boundary.  The expected verdict flips with
  the graph; the honest prover's proof is rejected on the no-side,
  exactly as in the static soundness batches.

Update objects are tiny frozen dataclasses with an exact inverse, so a
stream followed by its :func:`inverse_stream` restores the original
graph — and therefore (same epoch seed) a byte-identical transcript.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, Union

from ..core.network import Graph
from ..graphs.outerplanar import is_outerplanar
from ..graphs.planarity import is_planar
from ..graphs.series_parallel import is_series_parallel
from ..graphs.treewidth2 import is_treewidth_at_most_2

#: task name -> the global predicate a churned graph is certified against
DYNAMIC_TASKS: Dict[str, Callable[[Graph], bool]] = {
    "planarity": is_planar,
    "outerplanarity": is_outerplanar,
    "series_parallel": is_series_parallel,
    "treewidth2": is_treewidth_at_most_2,
}

STREAM_KINDS = ("preserving", "crossing")


@dataclass(frozen=True)
class EdgeInsert:
    """Insert edge ``(u, v)``; inverse is the matching delete."""

    u: int
    v: int
    op = "insert"

    def apply(self, graph: Graph) -> None:
        graph.add_edge(self.u, self.v)

    def inverse(self) -> "EdgeDelete":
        return EdgeDelete(self.u, self.v)

    def as_tuple(self) -> Tuple[str, int, int]:
        return ("insert", self.u, self.v)


@dataclass(frozen=True)
class EdgeDelete:
    """Delete edge ``(u, v)``; inverse is the matching insert."""

    u: int
    v: int
    op = "delete"

    def apply(self, graph: Graph) -> None:
        graph.remove_edge(self.u, self.v)

    def inverse(self) -> "EdgeInsert":
        return EdgeInsert(self.u, self.v)

    def as_tuple(self) -> Tuple[str, int, int]:
        return ("delete", self.u, self.v)


EdgeUpdate = Union[EdgeInsert, EdgeDelete]


def update_from_tuple(item: Sequence) -> EdgeUpdate:
    """Rebuild one update from its wire form ``(op, u, v)``."""
    try:
        op, u, v = item
    except (TypeError, ValueError):
        raise ValueError(f"update must be (op, u, v), got {item!r}") from None
    if not isinstance(u, int) or not isinstance(v, int) or isinstance(u, bool) or isinstance(v, bool):
        raise ValueError(f"update endpoints must be ints, got {item!r}")
    if op == "insert":
        return EdgeInsert(u, v)
    if op == "delete":
        return EdgeDelete(u, v)
    raise ValueError(f"unknown update op {op!r} (want 'insert' or 'delete')")


def inverse_stream(updates: Sequence[EdgeUpdate]) -> List[EdgeUpdate]:
    """The exact undo of ``updates``: inverses in reverse order."""
    return [u.inverse() for u in reversed(updates)]


def apply_stream(graph: Graph, updates: Sequence[EdgeUpdate]) -> Graph:
    """Apply ``updates`` to a copy of ``graph`` (the original is untouched)."""
    g = graph.copy()
    for update in updates:
        update.apply(g)
    return g


def _deletion_safe(g: Graph, u: int, v: int, predicate) -> bool:
    """Would deleting ``(u, v)`` keep the graph connected and satisfying?"""
    g.remove_edge(u, v)
    try:
        return g.is_connected() and predicate(g)
    finally:
        g.add_edge(u, v)


def _try_insert(
    g: Graph, rng: random.Random, want: Callable[[Graph], bool], attempts: int
) -> Tuple[int, int]:
    """A uniform non-edge whose insertion satisfies ``want`` (or (-1, -1))."""
    for _ in range(attempts):
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v)
        if want(g):
            return (u, v)
        g.remove_edge(u, v)
    return (-1, -1)


def _try_delete(
    g: Graph, rng: random.Random, predicate, attempts: int
) -> Tuple[int, int]:
    """A uniform edge whose deletion is connectivity- and predicate-safe."""
    edges = g.edges()
    if not edges:
        return (-1, -1)
    for _ in range(attempts):
        u, v = edges[rng.randrange(len(edges))]
        if _deletion_safe(g, u, v, predicate):
            g.remove_edge(u, v)
            return (u, v)
    return (-1, -1)


def _exhaustive_move(
    g: Graph, rng: random.Random, predicate
) -> Tuple[EdgeUpdate, bool] | None:
    """Enumerate every legal preserving move and pick one uniformly.

    The sampled :func:`_try_insert` / :func:`_try_delete` can miss when
    legal moves are sparse (e.g. a near-maximal series-parallel graph
    whose spanning tree pins most deletions).  This fallback is O(n^2)
    predicate calls, so it only runs after sampling fails — which also
    keeps the rng draw sequence, and therefore every previously valid
    stream, unchanged.
    """
    moves: List[EdgeUpdate] = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                if _deletion_safe(g, u, v, predicate):
                    moves.append(EdgeDelete(u, v))
            else:
                g.add_edge(u, v)
                if predicate(g):
                    moves.append(EdgeInsert(u, v))
                g.remove_edge(u, v)
    if not moves:
        return None
    update = moves[rng.randrange(len(moves))]
    update.apply(g)
    return (update, True)


def generate_stream(
    task: str,
    graph: Graph,
    n_updates: int,
    rng: random.Random,
    kind: str = "preserving",
    insert_attempts: int = 64,
) -> List[Tuple[EdgeUpdate, bool]]:
    """A seeded churn stream of ``(update, expected_verdict)`` pairs.

    ``expected_verdict`` is the task predicate evaluated on the graph
    *after* the update — the ground truth each epoch's certification is
    checked against.  The stream is a deterministic function of the rng
    state and ``graph`` (which is never mutated; generation works on a
    private copy), so the same ``SeedSequence``-derived rng regenerates
    the identical stream in any process.
    """
    if task not in DYNAMIC_TASKS:
        raise ValueError(
            f"task {task!r} has no dynamic predicate; "
            f"choose from {sorted(DYNAMIC_TASKS)}"
        )
    if kind not in STREAM_KINDS:
        raise ValueError(f"unknown stream kind {kind!r}; choose from {STREAM_KINDS}")
    predicate = DYNAMIC_TASKS[task]
    g = graph.copy()
    if not predicate(g):
        raise ValueError(f"initial graph does not satisfy {task}")
    stream: List[Tuple[EdgeUpdate, bool]] = []
    #: crossing streams remember the edge that broke the predicate so the
    #: next step can repair the exact violation (LIFO restores the
    #: pre-break graph, hence the pre-break predicate)
    broken: List[Tuple[int, int]] = []
    while len(stream) < n_updates:
        if broken:
            u, v = broken.pop()
            update: EdgeUpdate = EdgeDelete(u, v)
            update.apply(g)
            stream.append((update, predicate(g)))
            continue
        if kind == "crossing" and rng.random() < 0.25:
            u, v = _try_insert(
                g, rng, lambda h: not predicate(h), insert_attempts
            )
            if u >= 0:
                broken.append((u, v))
                stream.append((EdgeInsert(u, v), False))
                continue
            # no single violating edge found (rare); fall through to a
            # preserving move so the stream keeps its length
        if rng.random() < 0.5:
            u, v = _try_insert(g, rng, predicate, insert_attempts)
            if u < 0:
                u, v = _try_delete(g, rng, predicate, insert_attempts)
                if u >= 0:
                    stream.append((EdgeDelete(u, v), True))
                    continue
                move = _exhaustive_move(g, rng, predicate)
                if move is None:
                    raise RuntimeError(
                        f"churn stalled after {len(stream)} updates: no "
                        f"{task}-preserving insert or delete exists"
                    )
                stream.append(move)
            else:
                stream.append((EdgeInsert(u, v), True))
        else:
            u, v = _try_delete(g, rng, predicate, insert_attempts)
            if u < 0:
                u, v = _try_insert(g, rng, predicate, insert_attempts)
                if u >= 0:
                    stream.append((EdgeInsert(u, v), True))
                    continue
                move = _exhaustive_move(g, rng, predicate)
                if move is None:
                    raise RuntimeError(
                        f"churn stalled after {len(stream)} updates: no "
                        f"{task}-preserving insert or delete exists"
                    )
                stream.append(move)
            else:
                stream.append((EdgeDelete(u, v), True))
    return stream
