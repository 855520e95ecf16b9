"""E10-bench: recovery overhead of the resilient batch runtime.

Measures, on one seed and one task (Theorem-1.2 path-outerplanarity):

1. **engine overhead** — a fault-free batch under the retry policy
   (``failure_policy="retry"``) vs. the same batch under the default
   strict policy of the one batch engine, with byte-identical canonical
   reports asserted;
2. **recovery overhead** — the same batch with transient ``raise``
   faults injected at rate 0.15 (each clears on its first retry),
   asserting the recovered report is *still* byte-identical to the
   fault-free reference;
3. **degraded throughput** — persistent faults under
   ``failure_policy="degrade"``, recording the surviving fraction and
   asserting the survivors are an index-subset of the reference with
   matching canonical dicts.

Numbers land in ``BENCH_resilience.json`` at the repo root.  Overheads
are recorded, not asserted (1-core CI containers time noisily); the
determinism invariants are asserted everywhere.

    pytest benchmarks/bench_resilience.py -q
    REPRO_BENCH_RUNS=50 pytest benchmarks/bench_resilience.py -q   # quick look
"""

import json
import os
import platform
from pathlib import Path

from repro.runtime import BatchRunner, FaultPlan, PERSISTENT, get_task

RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "200"))
N = 64
SEED = 0
FAULT_RATE = 0.15
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"


def _batch(**kwargs):
    spec = get_task("path_outerplanarity")
    kwargs.setdefault("backoff_base", 0.001)
    kwargs.setdefault("backoff_cap", 0.01)
    runner = BatchRunner(spec.protocol(c=2), spec.yes_factory, **kwargs)
    return runner.run(RUNS, N, seed=SEED)


def test_resilience_overhead_and_recovery():
    reference = _batch()  # the engine's default strict policy

    fault_free = _batch(failure_policy="retry")
    assert fault_free.canonical_json() == reference.canonical_json()

    plan = FaultPlan(7, rate=FAULT_RATE, kinds=("raise",), fires=1)
    n_faulted = len(plan.faulted_indices(RUNS))
    recovered = _batch(failure_policy="retry", fault_plan=plan, max_retries=2)
    assert recovered.canonical_json() == reference.canonical_json()

    persistent = FaultPlan(7, rate=0.1, kinds=("raise",), fires=PERSISTENT)
    degraded = _batch(
        failure_policy="degrade", fault_plan=persistent, max_retries=1
    )
    ref_by_index = {r.index: r for r in reference.records}
    for rec in degraded.records:
        assert rec.canonical_dict() == ref_by_index[rec.index].canonical_dict()
    assert len(degraded.records) + degraded.n_failed == RUNS

    payload = {
        "experiment": f"{RUNS}-run resilient batch, path_outerplanarity, n={N}",
        "runs": RUNS,
        "n": N,
        "master_seed": SEED,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "strict_s": round(reference.wall_clock_total, 3),
        "resilient_fault_free_s": round(fault_free.wall_clock_total, 3),
        "engine_overhead": round(
            fault_free.wall_clock_total / reference.wall_clock_total, 3
        ),
        "chaos_recovery": {
            "fault_rate": FAULT_RATE,
            "faulted_runs": n_faulted,
            "wall_clock_s": round(recovered.wall_clock_total, 3),
            "recovery_overhead": round(
                recovered.wall_clock_total / reference.wall_clock_total, 3
            ),
            "canonical_identical_to_reference": True,
        },
        "degraded": {
            "fault_rate": 0.1,
            "survivors": len(degraded.records),
            "failed": degraded.n_failed,
            "surviving_fraction": round(len(degraded.records) / RUNS, 4),
            "survivors_match_reference": True,
        },
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
