"""Tests for the benchmark itself (quick mode: tiny sizes, one cycle).

    python3 -m pytest perfbench -q

Every workload runs untraced and traced, so each correctness gate and the
wrap-everywhere tracer are exercised in seconds.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_probe_imports_nothing_from_repro():
    tree = ast.parse(open(os.path.join(HERE, "probe.py")).read())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(n == "repro" or n.startswith("repro.") for n in names)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, probe; probe.probe_ms(); "
         "print(any(m.split('.')[0] == 'repro' for m in sys.modules))"],
        cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    assert done.stdout.strip() == "False"


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_passes_every_gate(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = sum(metrics[m] for m in run.SELF_METRICS.values())
        assert layers + metrics["unattributed_ms"] == pytest.approx(metrics["traced.op_ms"])
        assert metrics["unattributed_ms"] >= 0
    else:
        assert all(v > 0 for v in metrics.values())
    stem = os.path.join(HERE, "out", f"{workload}-seed3-trace{trace}")
    with open(stem + ".json") as fh:
        details = json.load(fh)
    for op in details["ops"]:  # raw times and probe readings sit beside each value
        assert {"raw_ms", "probe_before_ms", "probe_after_ms", "calibrated_ms"} <= set(op)
    if trace:
        assert os.path.getsize(stem + "-spans.json") > 2


def test_wrapping_restores_every_original():
    import importlib

    rec = __import__("tracing").Recorder()
    sys.path.insert(0, workloads.SRC)
    wrapping = __import__("tracing").Wrapping(rec)
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in wrapping.sites]
    wrapping.install()
    assert all(vars(owner)[attr] is not raw for owner, attr, raw in before)
    wrapping.restore()
    assert all(vars(owner)[attr] is raw for owner, attr, raw in before)
    registry = importlib.import_module("repro.runtime.registry")
    generators = importlib.import_module("repro.graphs.generators")
    assert registry.random_planar is generators.random_planar


def test_soundness_digest_mismatch_fails_the_run(monkeypatch):
    monkeypatch.setitem(workloads.SOUNDNESS_VERDICTS, "16:21", "0" * 16)
    assert run.main(["--workload", "soundness-n64", "--seed", "0", "--seconds", "1",
                     "--quick"]) == 1


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench("--workload", "certify-n1024", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
