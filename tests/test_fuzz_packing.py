"""The label tap edits only what it mutates, and a failed run leaves no tap.

Three pins around the fuzzing path through ``Interaction.prover_round``:

- a build-count guard: every label of an honest run is born from a format
  (no field is appended to a label afterwards), and a fuzzed run edits
  one label's payload (two for a swap), never whole prover rounds;
- golden fuzz records (``tests/data/fuzz_golden.json``): the canonical
  report and the per-run mutation records (owner, path, old/new values,
  wire offset/width) of every task x {fuzz_r1, fuzz_r3, fuzz_r5} at
  n=16, seed 21, two serial runs, byte for byte;
- the multi-block composite golden
  (``tests/data/fuzz_golden_composite.json``): the same records for the
  fan-out tasks (outerplanarity, series_parallel, treewidth2) at n=64,
  where every run has many block / ear sub-runs, seed 21, four serial
  runs;
- a fuzzed run that raises before its tap fired must not leave the tap
  behind to corrupt the next honest batch in the same process.
"""

import json
from pathlib import Path

import pytest

from repro.core import labels
from repro.core.network import path_graph
from repro.core.protocol import Interaction
from repro.runtime import BatchRunner, get_task
from repro.runtime.registry import task_names

FUZZ = ("fuzz_r1", "fuzz_r3", "fuzz_r5")
GOLDEN_PATH = Path(__file__).parent / "data" / "fuzz_golden.json"
GOLDEN_N = 16
GOLDEN_SEED = 21
COMPOSITE_GOLDEN_PATH = Path(__file__).parent / "data" / "fuzz_golden_composite.json"
COMPOSITE_TASKS = ("outerplanarity", "series_parallel", "treewidth2")
#: a fired mutation edits one label, or two for a swap.  A whole prover
#: round is at least n labels, so any rebuild of a round breaks this bound
#: at both sizes below
MAX_FUZZ_EDITS = 2
#: the tap must not rebuild a round at either size (n=256: 256+ labels)
FUZZ_EDIT_NS = (32, 256)


def fuzz_records(task: str, adversary: str, n: int = GOLDEN_N, runs: int = 2) -> dict:
    """The golden-fixture entry for one (task, adversary) serial batch."""
    spec = get_task(task)
    report = BatchRunner(
        spec.protocol(c=2), spec.yes_factory,
        prover_factory=spec.adversaries[adversary], workers=0,
    ).run(runs, n, seed=GOLDEN_SEED)
    return {
        "canonical": report.canonical_json(),
        "extra": json.dumps(
            [r.extra for r in report.records], sort_keys=True, default=str
        ),
    }


@pytest.fixture
def label_builds(monkeypatch):
    """Count every label assembled after birth: a field appended by the
    chained builder (``Label._put``) or an edit (``Label.with_value``)."""
    calls = []
    for name in ("_put", "with_value"):
        real = getattr(labels.Label, name)

        def counting(self, *args, _real=real, _name=name):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(labels.Label, name, counting)
    return calls


@pytest.mark.parametrize("task", task_names())
def test_honest_run_builds_no_label_after_birth(task, label_builds):
    spec = get_task(task)
    report = BatchRunner(spec.protocol(c=2), spec.yes_factory).run(1, 32, seed=4)
    assert report.acceptance_rate == 1.0
    assert label_builds == []


@pytest.mark.parametrize("n", FUZZ_EDIT_NS)
@pytest.mark.parametrize("adversary", FUZZ)
@pytest.mark.parametrize("task", task_names())
def test_fuzzed_run_edits_only_the_mutated_labels(task, adversary, n, label_builds):
    spec = get_task(task)
    report = BatchRunner(
        spec.protocol(c=2), spec.yes_factory,
        prover_factory=spec.adversaries[adversary],
    ).run(1, n, seed=4)
    assert report.records[0].extra["mutated"]
    assert "_put" not in label_builds
    assert 1 <= len(label_builds) <= MAX_FUZZ_EDITS


def test_golden_fuzz_records():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(f"{t}/{a}" for t in task_names() for a in FUZZ)
    for key, want in sorted(golden.items()):
        task, adversary = key.split("/")
        assert fuzz_records(task, adversary) == want, key


def test_golden_composite_fuzz_records():
    golden = json.loads(COMPOSITE_GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(f"{t}/{a}" for t in COMPOSITE_TASKS for a in FUZZ)
    for key, want in sorted(golden.items()):
        task, adversary = key.split("/")
        assert fuzz_records(task, adversary, n=64, runs=4) == want, key


def test_failed_fuzz_run_detaches_its_tap(monkeypatch):
    spec = get_task("lr_sorting")
    real = Interaction.verifier_round
    raised = []

    def raise_once(self, widths):
        if not raised:
            raised.append(1)
            raise RuntimeError("injected verifier failure")
        return real(self, widths)

    monkeypatch.setattr(Interaction, "verifier_round", raise_once)
    # round 2 raises before the round-3 tap can fire
    fuzzed = BatchRunner(
        spec.protocol(c=2), spec.yes_factory,
        prover_factory=spec.adversaries["fuzz_r3"],
        failure_policy="degrade", max_retries=0,
    ).run(1, 64, seed=3)
    assert raised and [f.index for f in fuzzed.failures] == [0]
    assert Interaction(path_graph(2))._tap is None  # the run context unwound
    honest = BatchRunner(spec.protocol(c=2), spec.yes_factory).run(4, 64, seed=1)
    assert [r.accepted for r in honest.records] == [True] * 4
