"""The LR-sorting decide sweep against its per-view reference.

A standalone LR-sorting run is decided in one sweep over per-round field
tables (``sweep=`` of :meth:`Interaction.decide`); the per-view checker
stays as the reference.  Every decide below runs both on the same
finished transcript and compares the rejecting nodes, node by node:
honest and every registered adversary, yes and no instances, native and
simulated edge labels, and the 3-round ablation.
"""

import os
import subprocess
import sys

import pytest

from repro.core.protocol import Interaction
from repro.protocols.lr_sorting import LRSortingProtocol
from repro.runtime.registry import get_task
from repro.runtime.runner import BatchRunner

SPEC = get_task("lr_sorting")
ADVERSARIES = [None] + sorted(SPEC.adversaries)
VARIANTS = {
    "native": {},
    "simulated": {"simulate_edge_labels": True},
    "three_round": {"truncate_to_three_rounds": True},
}
NS = [1, 2, 3, 8, 32, 64, 200]


@pytest.fixture
def both_paths(monkeypatch):
    """Decide every sweep-carrying run both ways; collect the pairs."""
    pairs = []
    decide = Interaction.decide

    def both(self, check, *args, sweep=None, **kwargs):
        result = decide(self, check, *args, sweep=sweep, **kwargs)
        if sweep is not None:
            reference = decide(self, check, *args, **kwargs)
            pairs.append((result.rejecting_nodes, reference.rejecting_nodes))
        return result

    monkeypatch.setattr(Interaction, "decide", both)
    return pairs


def _batch(variant, adversary, yes, n, runs=2, seed=7):
    factory = SPEC.yes_factory if yes else SPEC.no_factory
    prover = SPEC.adversaries[adversary] if adversary else None
    runner = BatchRunner(
        LRSortingProtocol(c=2, **VARIANTS[variant]), factory, prover_factory=prover
    )
    return runner.run(runs, n, seed=seed)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a or "honest")
@pytest.mark.parametrize("yes", [True, False], ids=["yes", "no"])
def test_sweep_equals_per_view_node_by_node(variant, adversary, yes, both_paths):
    for n in NS:
        if not yes and n < 3:
            continue  # no non-path edge to flip
        for seed in (7, 8):
            _batch(variant, adversary, yes, n, seed=seed)
    assert both_paths
    for swept, reference in both_paths:
        assert swept == reference
    if adversary is None and yes:
        assert not any(swept for swept, _ in both_paths)  # perfect completeness


def test_sweep_rejects_where_the_reference_does(both_paths):
    """The comparison above is not vacuous: the sweep rejects liars."""
    _batch("native", "index_liar", True, 200, runs=4)
    _batch("native", None, False, 64, runs=4)
    assert any(swept for swept, _ in both_paths)


def test_per_view_decide_drops_the_sweep(per_view_decide, monkeypatch):
    """Under the ``per_view_decide`` fake every node goes through ``check``."""
    calls = []
    from repro.protocols import lr_sorting

    make = lr_sorting._make_checker

    def counting(pm, sessions=True):
        check = make(pm, sessions)
        return lambda view: calls.append(view) or check(view)

    monkeypatch.setattr(lr_sorting, "_make_checker", counting)
    _batch("native", None, True, 32, runs=1)
    assert len(calls) == 32


def test_lr_sorting_server_never_imports_numpy():
    """An in-process ProofServer answering lr_sorting requests decides
    them without numpy (the serve RSS bound depends on it)."""
    code = (
        "import sys, threading\n"
        "from repro.service.client import ServiceClient\n"
        "from repro.service.server import ProofServer\n"
        "server = ProofServer()\n"
        "thread = threading.Thread(target=server.run, daemon=True)\n"
        "thread.start()\n"
        "assert server.wait_ready(10.0)\n"
        "try:\n"
        "    client = ServiceClient((server.host, server.bound_port))\n"
        "    for seed in (1, 2):\n"
        "        result = client.submit('lr_sorting', runs=2, n=32, seed=seed)\n"
        "        assert result.ok, result.summary\n"
        "finally:\n"
        "    server.request_drain()\n"
        "    thread.join(30.0)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
