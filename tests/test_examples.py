"""Every script under ``examples/`` runs to completion.

Each runs with its defaults, except ``batch_soundness.py``, whose test
runs a small batch serially and on two workers and compares the reports.
Each runs in its own interpreter with ``PYTHONPATH=src``, as the README
tells users to run them, and must exit 0.  Several read prover internals
(``lr_sorting_internals.py`` the LR prover's round columns and block
table), so a change to those surfaces shows here first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
#: examples run by a test of their own below rather than with their
#: defaults: batch_soundness.py defaults to 10,000 runs on 8 processes
OWN_TEST = {"batch_soundness.py"}
TIMEOUT_S = 120


def _run_example(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("name", [n for n in EXAMPLES if n not in OWN_TEST])
def test_example_exits_zero(name):
    _run_example(name)


def test_batch_soundness_report_ignores_sharding():
    """The example's promise: the same report serially and on a pool."""

    def verdict_lines(workers):
        lines = _run_example("batch_soundness.py", "--runs", "40", "--n", "32",
                             "--workers", str(workers)).splitlines()
        rejection = [ln for ln in lines if ln.startswith("rejection rate:")]
        fooled = [ln for ln in lines
                  if ln.startswith(("fooled on runs", "no accepting run"))]
        assert len(rejection) == len(fooled) == 1, lines
        return rejection + fooled

    assert verdict_lines(0) == verdict_lines(2)


def test_skipped_examples_exist():
    # a renamed script cannot drop out of both tests unnoticed
    assert OWN_TEST <= set(EXAMPLES)
