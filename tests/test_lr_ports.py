"""The LR-sorting port structure, computed once per instance.

Every node's port kinds, port roles (left port, right port, OUT and IN
ports) and each port's canonical edge key are instance data
(:attr:`LRSortingInstance.ports`): computed on first use and reused by
every later run on the same instance, as the proof server's instance
cache hands it out.  The per-run decide must not notice the sharing.
"""

import random
import threading

import pytest

from repro.core.network import norm_edge
from repro.protocols.instances import IN, OUT, PATH_LEFT, PATH_RIGHT, LRSortingInstance
from repro.protocols.lr_sorting import LRSortingProtocol
from repro.runtime.registry import get_task
from repro.runtime.runner import BatchRunner

SPEC = get_task("lr_sorting")


def _fresh_ports(instance):
    """Port kinds, roles and edge keys straight from the instance."""
    pos = instance.position()
    path_edges = instance.path_edge_set()
    kinds, roles, keys = [], [], []
    for v in instance.graph.nodes():
        nbrs = instance.graph.neighbors(v)
        node = []
        for u in nbrs:
            e = norm_edge(u, v)
            if e in path_edges:
                node.append(PATH_RIGHT if pos[u] > pos[v] else PATH_LEFT)
            else:
                node.append(OUT if instance.orientation[e][0] == v else IN)
        kinds.append(tuple(node))
        roles.append((
            node.index(PATH_LEFT) if PATH_LEFT in node else None,
            node.index(PATH_RIGHT) if PATH_RIGHT in node else None,
            tuple(q for q, kind in enumerate(node) if kind == OUT),
            tuple(q for q, kind in enumerate(node) if kind == IN),
        ))
        keys.append(tuple(norm_edge(u, v) for u in nbrs))
    return tuple(kinds), tuple(roles), tuple(keys)


def test_port_structure_survives_shared_instances():
    """Requests sharing a server's cached instances share its port
    structure; reports stay byte-identical and the structure equals a
    fresh computation from the instance."""
    from repro.service.client import ServiceClient
    from repro.service.server import ProofServer

    server = ProofServer()
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.wait_ready(10.0)
    try:
        client = ServiceClient((server.host, server.bound_port))
        first = client.submit("lr_sorting", runs=3, n=32, seed=5, request_id="first")
        instances = list(server._instance_cache._store.values())
        ports = [instance.ports for instance in instances]
        second = client.submit("lr_sorting", runs=3, n=32, seed=5, request_id="second")
    finally:
        server.request_drain()
        thread.join(30.0)
    assert first.ok and second.ok
    assert first.canonical_json() == second.canonical_json()
    local = BatchRunner(LRSortingProtocol(c=2), SPEC.yes_factory, workers=0).run(3, 32, seed=5)
    assert first.canonical_json() == local.canonical_json()
    assert server._instance_cache.hits >= 3
    assert len(instances) == 3
    for instance, cached in zip(instances, ports):
        assert isinstance(instance, LRSortingInstance)
        assert instance.ports is cached  # computed once, reused
        kinds, roles, keys = _fresh_ports(instance)
        assert (cached.kinds, cached.roles, cached.edge_keys) == (kinds, roles, keys)
        for v in instance.graph.nodes():
            assert cached.inputs[v] == {"port_kinds": kinds[v], "port_roles": roles[v]}


@pytest.mark.parametrize(
    "n, yes",
    [(n, True) for n in (1, 2, 3, 8, 33, 200)] + [(n, False) for n in (3, 8, 33, 200)],
)
def test_port_structure_equals_a_fresh_computation(n, yes):
    factory = SPEC.yes_factory if yes else SPEC.no_factory
    for seed in range(4):
        instance = factory(n, random.Random(seed))
        ports = instance.ports
        assert (ports.kinds, ports.roles, ports.edge_keys) == _fresh_ports(instance)
        assert instance.ports is ports
