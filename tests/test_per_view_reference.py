"""The default decide against the per-view reference checker.

Every node's verdict is the paper's local decision function, written out
plainly as each protocol's per-view checker over a ``NodeView``.  The
production decide runs the columnar kernels or the LR-sorting sweep
instead; the ``per_view_decide`` fake sends every node through the
per-view checker.  These tests pin the canonical reports byte-identical
between the two for every registered task -- the default decide serially
and across worker processes, the reference serially (the fake patches
this process only).
"""

import pytest

from repro.runtime.registry import get_task, task_names
from repro.runtime.runner import BatchRunner

ALL_TASKS = sorted(task_names())


def _canonical(task, *, workers=0, n=24, runs=3, seed=11):
    spec = get_task(task)
    runner = BatchRunner(spec.protocol(c=2), spec.yes_factory, workers=workers)
    return runner.run(runs, n, seed=seed).canonical_json()


class TestBitIdentity:
    @pytest.mark.parametrize("task", ALL_TASKS)
    def test_default_matches_reference_serial(self, task, request):
        default = _canonical(task)
        request.getfixturevalue("per_view_decide")
        assert _canonical(task) == default

    @pytest.mark.parametrize("task", ALL_TASKS)
    def test_default_matches_reference_two_workers(self, task, request):
        default = _canonical(task, workers=2)
        request.getfixturevalue("per_view_decide")
        assert _canonical(task) == default
