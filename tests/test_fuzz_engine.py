"""The protocol-agnostic mutation engine: taps, wrappers, reports.

Fast-tier checks of the machinery itself (the per-protocol soundness
statistics live in test_fuzz_protocols.py and the slow regression suite):
single-shot tap semantics, deterministic replay, op semantics, report
shape, and -- critically -- that a tap only ever reaches the
interactions of its own run context, never a later honest execution.
"""

import random

import pytest

from repro.adversaries import (
    MUTATION_OPS,
    MutatingProver,
    MutationTap,
    SeededMutatingProver,
)
from repro.analysis.fuzz_coverage import fuzz_coverage
from repro.core.protocol import run_context
from repro.protocols.lr_sorting import HonestLRSortingProver, LRSortingProtocol
from repro.protocols.outerplanarity import OuterplanarityProtocol, OuterplanarityProver
from repro.runtime.registry import get_task

from conftest import make_lr_instance


def _lr_fuzzed_run(seed, target_round=3, op="random", n=60):
    inst = make_lr_instance(n, random.Random(11))
    proto = LRSortingProtocol(c=2)
    prover = MutatingProver(
        inst, HonestLRSortingProver(inst), random.Random(seed),
        target_round=target_round, op=op,
    )
    with run_context(tap=prover.tap):
        result = proto.execute(inst, prover=prover, rng=random.Random(1))
    report = prover.finalize_report(result)
    return result, report


def test_mutation_fires_and_is_caught():
    result, report = _lr_fuzzed_run(seed=4)
    assert report["mutated"]
    assert report["round"] == 3
    assert not report["accepted"]
    assert report["site"] in ("node", "edge")
    assert report["applied_op"] in MUTATION_OPS
    assert report["old"] != report["new"]
    assert report["caught_by"] in ("owner", "neighbor", "distant", "sub-run")


def test_fuzzed_run_is_deterministic_in_the_rng():
    _, a = _lr_fuzzed_run(seed=17)
    _, b = _lr_fuzzed_run(seed=17)
    _, c = _lr_fuzzed_run(seed=18)
    assert a == b
    assert (a["path"], a["owner"], a["new"]) != (c["path"], c["owner"], c["new"])


@pytest.mark.parametrize("op", MUTATION_OPS)
def test_each_op_produces_a_wire_change(op):
    _, report = _lr_fuzzed_run(seed=23, op=op)
    assert report["mutated"]
    assert report["op"] == op
    assert report["old"] != report["new"]


def test_zero_out_falls_back_when_already_zero():
    """zero_out on an already-zero field silently becomes a bit flip, so a
    fired mutation always changes the wire image."""
    for seed in range(12):
        _, report = _lr_fuzzed_run(seed=seed, op="zero_out")
        assert report["old"] != report["new"]
        assert report["applied_op"] in ("zero_out", "bit_flip")


def test_honest_run_after_a_fuzzed_run_recovers():
    _lr_fuzzed_run(seed=5)
    inst = make_lr_instance(60, random.Random(11))
    result = LRSortingProtocol(c=2).execute(inst, rng=random.Random(2))
    assert result.accepted


def test_tap_is_single_shot():
    """A fired tap is inert: a second execution under the same (stale)
    tap stays honest."""
    inst = make_lr_instance(60, random.Random(11))
    proto = LRSortingProtocol(c=2)
    prover = MutatingProver(
        inst, HonestLRSortingProver(inst), random.Random(3), target_round=1
    )
    with run_context(tap=prover.tap):
        r1 = proto.execute(inst, prover=prover, rng=random.Random(1))
        assert prover.mutation is not None and not r1.accepted
        # tap deliberately NOT finalized: it must have disarmed itself
        r2 = proto.execute(inst, rng=random.Random(1))
    assert r2.accepted


def test_constructing_a_prover_arms_nothing():
    """A tap acts only inside a run context that carries it: building a
    MutatingProver (and running it outside any context) stays honest."""
    inst = make_lr_instance(60, random.Random(11))
    prover = MutatingProver(
        inst, HonestLRSortingProver(inst), random.Random(0), target_round=1
    )
    result = LRSortingProtocol(c=2).execute(
        inst, prover=prover, rng=random.Random(1)
    )
    assert result.accepted and prover.mutation is None


def test_delegation_preserves_inner_prover_surface():
    inst = make_lr_instance(60, random.Random(11))
    inner = HonestLRSortingProver(inst)
    prover = MutatingProver(inst, inner, random.Random(0), target_round=1)
    assert prover.params is inner.params  # attribute delegation


def test_composite_delegation_reaches_prover_hooks():
    """Composite protocols read hook attributes off the wrapped prover."""
    spec = get_task("outerplanarity")
    inst = spec.yes_factory(36, random.Random(2))
    prover = MutatingProver(
        inst, OuterplanarityProver(inst), random.Random(9), target_round=3
    )
    with run_context(tap=prover.tap):
        result = OuterplanarityProtocol(c=2).execute(
            inst, prover=prover, rng=random.Random(4)
        )
    report = prover.finalize_report(result)
    assert report["mutated"]
    assert not report["accepted"]


def test_folded_edge_copies_are_excluded_from_the_pool():
    """Mutating the Lemma-2.4 folded 'edges' sub-label would be invisible
    (checkers read the native edge labels); the engine must never pick it."""
    for seed in range(25):
        _, report = _lr_fuzzed_run(seed=seed, target_round=1)
        assert report["mutated"]
        assert not report["path"].startswith("edges.")


def test_rejects_bad_parameters():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        MutationTap(rng, target_round=2)
    with pytest.raises(ValueError):
        MutationTap(rng, target_round=1, op="scramble")


def test_seeded_factory_is_picklable_and_deterministic():
    import pickle

    factory = SeededMutatingProver(HonestLRSortingProver, target_round=3)
    clone = pickle.loads(pickle.dumps(factory))
    inst = make_lr_instance(60, random.Random(11))
    proto = LRSortingProtocol(c=2)
    reports = []
    for f in (factory, clone):
        prover = f(inst, random.Random(77))
        with run_context(tap=prover.tap):
            result = proto.execute(inst, prover=prover, rng=random.Random(5))
        reports.append(prover.finalize_report(result))
    assert reports[0] == reports[1]


def test_fuzz_coverage_report_shape():
    report = fuzz_coverage("lr_sorting", rounds=[3], n=48, trials=6, seed=41)
    assert report.honest_ok
    assert report.mutated_runs == 6
    payload = report.to_dict()
    assert payload["task"] == "lr_sorting"
    assert payload["honest"]["ok"]
    assert payload["fields"], "no per-field rows aggregated"
    for row in payload["fields"]:
        assert row["round"] == 3
        assert 0.0 <= row["rejection_rate"] <= 1.0
        assert sum(row["caught_by"].values()) == row["trials"]
    table = report.format_table()
    assert "field path" in table and "honest control" in table


@pytest.mark.parametrize(
    "task,floor",
    [("lr_sorting", 0.95), ("path_outerplanarity", 0.89)],
)
def test_coverage_does_not_regress(task, floor):
    """Pin the measured checker coverage against its recorded baseline.

    The floors are the PR-6 baselines (deterministic in the seed): a run
    below one means a checker got looser or the mutation engine stopped
    reaching part of the wire image.
    """
    report = fuzz_coverage(task, n=48, trials=20, seed=2025)
    assert report.honest_ok
    assert report.overall_rejection_rate >= floor, report.format_table()


def test_coverage_bit_buckets_span_the_wire():
    """Mutations land in every wire-position quartile, and the matrix
    exports the histogram (the PR-2 packed-leaf blind spot stays closed)."""
    report = fuzz_coverage("lr_sorting", n=48, trials=20, seed=2025)
    totals = report.bit_bucket_totals()
    assert set(totals) == {"q1", "q2", "q3", "q4"}, totals
    assert sum(totals.values()) == report.mutated_runs
    payload = report.to_dict()
    per_field = [row["bit_buckets"] for row in payload["fields"]]
    assert any(per_field), "bit_buckets missing from the exported matrix"
    assert sum(c for b in per_field for c in b.values()) == report.mutated_runs
