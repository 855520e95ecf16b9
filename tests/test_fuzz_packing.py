"""The label tap packs nothing on its own, and a failed run leaves no tap.

Three pins around the fuzzing path through ``Interaction.prover_round``:

- a pack-count guard: honest runs pack no label at all, and a fuzzed run
  packs only the mutated label's subtree (``wire_leaf_span`` needs its
  schema to report the wire coordinates), never whole prover rounds;
- golden fuzz records (``tests/data/fuzz_golden.json``): the canonical
  report and the per-run mutation records (owner, path, old/new values,
  wire offset/width) of every task x {fuzz_r1, fuzz_r3, fuzz_r5} at
  n=16, seed 21, two serial runs, byte for byte;
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
#: one label subtree: the mutated label plus its nested sub-labels
MAX_FUZZ_PACKS = 50


def fuzz_records(task: str, adversary: str) -> dict:
    """The golden-fixture entry for one (task, adversary) serial batch."""
    spec = get_task(task)
    report = BatchRunner(
        spec.protocol(c=2), spec.yes_factory,
        prover_factory=spec.adversaries[adversary], workers=0,
    ).run(2, GOLDEN_N, seed=GOLDEN_SEED)
    return {
        "canonical": report.canonical_json(),
        "extra": json.dumps(
            [r.extra for r in report.records], sort_keys=True, default=str
        ),
    }


@pytest.fixture
def pack_calls(monkeypatch):
    """Count every tree-to-wire packing (``Label.pack`` on a cold cache)."""
    calls = []
    real = labels._pack_fields

    def counting(fields):
        calls.append(1)
        return real(fields)

    monkeypatch.setattr(labels, "_pack_fields", counting)
    return calls


@pytest.mark.parametrize("task", task_names())
def test_honest_run_packs_nothing(task, pack_calls):
    spec = get_task(task)
    report = BatchRunner(spec.protocol(c=2), spec.yes_factory).run(1, 32, seed=4)
    assert report.acceptance_rate == 1.0
    assert len(pack_calls) == 0


@pytest.mark.parametrize("adversary", FUZZ)
@pytest.mark.parametrize("task", task_names())
def test_fuzzed_run_packs_only_the_mutated_label(task, adversary, pack_calls):
    spec = get_task(task)
    report = BatchRunner(
        spec.protocol(c=2), spec.yes_factory,
        prover_factory=spec.adversaries[adversary],
    ).run(1, 32, seed=4)
    assert report.records[0].extra["mutated"]
    assert 0 < len(pack_calls) <= MAX_FUZZ_PACKS


def test_golden_fuzz_records():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(f"{t}/{a}" for t in task_names() for a in FUZZ)
    for key, want in sorted(golden.items()):
        task, adversary = key.split("/")
        assert fuzz_records(task, adversary) == want, key


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
