"""Calibration probe: a fixed, stdlib-only workload that measures box speed.

The benchmark runs :func:`probe_ms` just before and just after every timed
call and scales the call's wall time by ``REFERENCE_PROBE_MS / local``, so
each reported time reads as "at reference speed".  The probe does the same
kinds of work the program does (dict and list churn, a BFS over an
adjacency list), so a box that runs it slowly runs the program slowly too.

This module must import nothing from ``repro``: a change to the program
must never change the yardstick it is measured with.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

#: median probe time on the reference box (2-core x86-64 container,
#: CPython 3.11); every calibrated time is expressed at this speed
REFERENCE_PROBE_MS = 9.5

_N = 3000  # nodes of the probe graph
_REPS = 3  # probe repetitions per reading; the median is kept


def _graph():
    """A fixed pseudo-random graph (LCG edges), rebuilt on every call."""
    adj = {v: [] for v in range(_N)}
    x = 12345
    for v in range(1, _N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = x % v
        adj[u].append(v)
        adj[v].append(u)
    for _ in range(_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = x % _N
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = x % _N
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def _work() -> int:
    adj = _graph()
    dist = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    order = sorted(dist, key=lambda v: (dist[v], -v))
    counts: dict = {}
    for v in order:
        key = (dist[v], len(adj[v]))
        counts[key] = counts.get(key, 0) + 1
    return len(order) + len(counts)


def probe_ms() -> float:
    """One probe reading: the median of a few runs of the fixed work, in ms."""
    times = []
    for _ in range(_REPS):
        t0 = time.perf_counter()
        _work()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)
