"""Per-run state stays with its run: no tap, tracer or cache crosses runs.

In the DIP model each node decides from its own coins and labels, so one
run's adversary must never rewrite another run's labels, and one run's
tracer must never record another run's rounds.  Three pins:

- a fuzzed batch and a traced, journaled honest batch run on two threads
  at once, with their runs forced to interleave mid-execution, and every
  output (canonical report, per-run mutation records, journal) is
  byte-identical to the same batch run alone;
- a stress run: more threads than cores, each running a small fuzzed or
  traced batch with a short switch interval, all matching their serial
  runs;
- an AST guard over ``src/repro``: the only ``global`` statements are the
  allowlisted process-wide ones, so per-run state cannot come back as a
  module slot.
"""

import ast
import json
import sys
import threading
from pathlib import Path

from repro.obs import Journal, Tracer, strip_timing
from repro.protocols.lr_sorting import HonestLRSortingProver
from repro.runtime import BatchRunner, get_task

TASK = "lr_sorting"
N = 64
RUNS = 3
FUZZ_SEED = 1
HONEST_SEED = 2
WAIT_S = 60.0

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: the process-wide state that is allowed to live in module globals: the
#: pool worker's batch spec, the metrics on/off switch, and the lazily
#: probed numpy module
ALLOWED_GLOBALS = {"_WORKER_SPEC", "_ENABLED", "_NP", "_NP_CHECKED"}


def _fuzzed_batch():
    spec = get_task(TASK)
    report = BatchRunner(
        spec.protocol(c=2), spec.yes_factory,
        prover_factory=spec.adversaries["fuzz_r3"],
    ).run(RUNS, N, seed=FUZZ_SEED)
    extras = json.dumps([r.extra for r in report.records], sort_keys=True)
    return report.canonical_json(), extras


def _honest_batch():
    spec = get_task(TASK)
    journal = Journal()
    report = BatchRunner(
        spec.protocol(c=2), spec.yes_factory, journal=journal
    ).run(RUNS, N, seed=HONEST_SEED)
    events = json.dumps([strip_timing(e) for e in journal.events], sort_keys=True)
    return report.canonical_json(), events


def _pause_once(thread_name, reached, resume):
    """A hook body: the first call on ``thread_name`` signals and waits."""
    fired = []

    def pause():
        if threading.current_thread().name == thread_name and not fired:
            fired.append(True)
            reached.set()
            if not resume.wait(WAIT_S):
                raise TimeoutError(f"{thread_name} was never resumed")

    return pause


def test_concurrent_fuzzed_and_traced_batches_match_their_serial_runs(monkeypatch):
    fuzz_serial = _fuzzed_batch()
    honest_serial = _honest_batch()
    assert json.loads(honest_serial[0])["acceptance_rate"] == 1.0

    # The schedule, forced by two one-shot pauses:
    # 1. fuzz run 0 stops inside its execution, just before its round-3
    #    message (the one its tap corrupts), with the tap armed;
    # 2. honest run 0 executes whole, then honest run 1 stops in its
    #    tracer's on_interaction_start, with its tracer open;
    # 3. the fuzzed batch finishes, then the honest batch finishes.
    fuzz_armed, honest_traced, fuzz_done = (threading.Event() for _ in range(3))
    pause_fuzz = _pause_once("fuzzed", fuzz_armed, honest_traced)
    pause_honest = _pause_once("honest", honest_traced, fuzz_done)

    real_round3 = HonestLRSortingProver.round3

    def round3(self, *args, **kwargs):
        pause_fuzz()
        return real_round3(self, *args, **kwargs)

    real_start = Tracer.on_interaction_start

    def on_interaction_start(self, interaction):
        if self._run is not None and self._run.trace.run_index == 1:
            pause_honest()
        real_start(self, interaction)

    monkeypatch.setattr(HonestLRSortingProver, "round3", round3)
    monkeypatch.setattr(Tracer, "on_interaction_start", on_interaction_start)

    results, errors = {}, []

    def fuzzed():
        try:
            results["fuzzed"] = _fuzzed_batch()
        except BaseException as exc:  # surfaced by the main thread below
            errors.append(exc)
        finally:
            fuzz_armed.set()
            fuzz_done.set()

    def honest():
        try:
            if not fuzz_armed.wait(WAIT_S):
                raise TimeoutError("fuzzed run never reached round 3")
            results["honest"] = _honest_batch()
        except BaseException as exc:
            errors.append(exc)
        finally:
            honest_traced.set()

    threads = [
        threading.Thread(target=fuzzed, name="fuzzed"),
        threading.Thread(target=honest, name="honest"),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(2 * WAIT_S)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert fuzz_armed.is_set() and honest_traced.is_set()
    assert results["fuzzed"] == fuzz_serial
    assert results["honest"] == honest_serial


#: (task, adversary or None for a traced honest batch) per stress thread
STRESS = (
    ("lr_sorting", "fuzz_r1"),
    ("lr_sorting", None),
    ("path_outerplanarity", "fuzz_r3"),
    ("planarity", None),
    ("series_parallel", "fuzz_r1"),
    ("outerplanarity", "fuzz_r5"),
)


def _stress_batch(task, adversary):
    spec = get_task(task)
    kwargs = (
        {"prover_factory": spec.adversaries[adversary]}
        if adversary else {"trace": True}
    )
    report = BatchRunner(spec.protocol(c=2), spec.yes_factory, **kwargs).run(
        2, 32, seed=5
    )
    extras = [
        {k: v for k, v in (r.extra or {}).items() if k != "trace"}
        for r in report.records
    ]
    traces = [
        strip_timing((r.extra or {}).get("trace") or {}) for r in report.records
    ]
    return report.canonical_json(), json.dumps([extras, traces], sort_keys=True)


def test_many_threads_with_a_short_switch_interval_match_serial():
    serial = [_stress_batch(*job) for job in STRESS]
    results = [None] * len(STRESS)
    errors = []

    def work(i):
        try:
            results[i] = _stress_batch(*STRESS[i])
        except BaseException as exc:  # surfaced by the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(STRESS))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(2 * WAIT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == serial


def _global_names():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Global):
                for name in node.names:
                    found.setdefault(name, []).append(str(path.relative_to(SRC)))
    return found


def test_only_allowlisted_module_globals():
    found = _global_names()
    assert set(found) == ALLOWED_GLOBALS, found
