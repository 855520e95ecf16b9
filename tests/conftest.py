"""Shared helpers for the test suite.

The suite is split into a *fast* tier (`pytest -m "not slow"`, seconds)
and a *slow* tier holding the Monte Carlo soundness regressions and
growth-law fits.  `slow` is applied explicitly; everything else gets the
`fast` marker automatically below, so `-m fast` and `-m "not slow"` agree.
A plain `pytest` run still executes both tiers.
"""

import random

import pytest


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.get_closest_marker("slow") is None:
            item.add_marker(pytest.mark.fast)

from repro.core.network import Graph, norm_edge
from repro.graphs.generators import random_path_outerplanar
from repro.protocols.instances import LRSortingInstance


def make_lr_instance(n, rng, flip_edges=0, density=0.8):
    """A random LR-sorting instance; ``flip_edges`` back edges make it a
    no-instance."""
    g, path = random_path_outerplanar(n, rng, density=density)
    pos = {v: i for i, v in enumerate(path)}
    path_edges = {norm_edge(path[i], path[i + 1]) for i in range(n - 1)}
    orientation = {}
    non_path = [e for e in g.edges() if e not in path_edges]
    rng.shuffle(non_path)
    for k, (u, v) in enumerate(non_path):
        t, h = (u, v) if pos[u] < pos[v] else (v, u)
        if k < flip_edges:
            t, h = h, t
        orientation[norm_edge(u, v)] = (t, h)
    return LRSortingInstance(g, path, orientation)


def nx_graph(g: Graph):
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(autouse=True)
def _no_observability_leaks():
    """Hermeticity for observability: metrics enabled by one test must
    never keep recording into the next.  The metrics registry is the one
    process-wide sink left; taps and tracers live in a per-run context
    that closes with its ``with`` block."""
    from repro.obs import metrics

    yield
    metrics.disable()
