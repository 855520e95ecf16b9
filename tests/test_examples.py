"""Every script under ``examples/`` runs to completion with its defaults.

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
#: batch_soundness.py defaults to 10,000 runs on 8 worker processes: about
#: 97 s on a 2-core host, against 0.3-2.5 s for each other example
SKIP = {"batch_soundness.py"}
TIMEOUT_S = 120


@pytest.mark.parametrize("name", [n for n in EXAMPLES if n not in SKIP])
def test_example_exits_zero(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_skipped_examples_exist():
    assert SKIP <= set(EXAMPLES)  # a renamed script leaves no stale skip
