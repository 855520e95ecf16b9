"""Differential harness: one canonical report however a run is decided.

Labels cross process boundaries in their packed form only (the shard
transport ships each prover round as one schema table plus one payload
blob).  These tests pin the paths that remain *observationally
identical* for every registered task: canonical batch reports (which
cover acceptance, proof-size bits, and rejection counts per run) must be
byte-identical between serial runs and 2-worker runs, fuzz adversaries
must mutate the same fields with the same outcomes and the same reported
wire offsets, and the default decide (the columnar kernels or the
LR-sorting sweep) against the per-view checker must collapse to a single
canonical report.  The per-view fake patches this process only, so it
runs serially; the 2-worker legs run the default path.

The worker legs matter most: shard results cross a process boundary, so
they exercise the packed ``ProverRound`` blob transport end to end.
That born-packed labels equal the chained builder's labels field by field
is pinned one layer down, in ``test_born_packed.py``.
"""

import pickle

import pytest

from repro.runtime.registry import FUZZ_ROUNDS, get_task, task_names
from repro.runtime.runner import BatchRunner

ALL_TASKS = sorted(task_names())
FUZZ_ADVERSARIES = [f"fuzz_r{r}" for r in FUZZ_ROUNDS]

#: the extra keys a mutation report must agree on across decide paths
#: (the rest of ``extra`` is timing/bookkeeping outside the invariant)
MUTATION_KEYS = (
    "mutated", "round", "path", "stage", "site", "applied_op", "caught_by",
    "wire_offset", "wire_width", "wire_label_bits",
)


def _run(task, adversary=None, *, workers=0, n=24, runs=3, seed=11):
    spec = get_task(task)
    factory = spec.adversaries[adversary] if adversary else None
    runner = BatchRunner(
        spec.protocol(), spec.yes_factory, prover_factory=factory, workers=workers
    )
    return runner.run(runs, n, seed=seed)


def _outcomes(report):
    """The soundness-relevant view of a batch: per-run verdict triples."""
    return [
        (r.accepted, r.proof_size_bits, r.n_rejecting, r.n_rounds)
        for r in report.records
    ]


class TestHonestDifferential:
    @pytest.mark.parametrize("task", ALL_TASKS)
    def test_serial_vs_two_workers(self, task):
        serial = _run(task)
        pooled = _run(task, workers=2)
        assert pooled.canonical_json() == serial.canonical_json()
        assert _outcomes(pooled) == _outcomes(serial)


class TestFuzzDifferential:
    @pytest.mark.parametrize("task", ALL_TASKS)
    @pytest.mark.parametrize("adversary", FUZZ_ADVERSARIES)
    def test_serial_vs_two_workers(self, task, adversary):
        serial = _run(task, adversary)
        pooled = _run(task, adversary, workers=2)
        assert pooled.canonical_json() == serial.canonical_json()
        assert _outcomes(pooled) == _outcomes(serial)
        # same mutations, same catchers, same *wire* coordinates on both
        # sides of the process boundary
        for a, b in zip(serial.records, pooled.records):
            extra_a = a.extra or {}
            extra_b = b.extra or {}
            for key in MUTATION_KEYS:
                assert extra_a.get(key) == extra_b.get(key), (task, adversary, key)


class TestFullCross:
    """Default decide serially and on 2 workers, per-view checker
    serially: one report."""

    @pytest.mark.parametrize("task", ["lr_sorting", "path_outerplanarity"])
    def test_decide_cross_is_byte_identical(self, task, request):
        baseline = _run(task).canonical_json()
        assert _run(task, workers=2).canonical_json() == baseline, "workers"
        request.getfixturevalue("per_view_decide")
        assert _run(task).canonical_json() == baseline, "per-view"


class TestVectorDifferential:
    """The columnar kernels against the per-view checker.

    Kernel verdicts must collapse to the per-view path's byte for byte --
    honest and adversarial.
    """

    @pytest.mark.parametrize("task", ALL_TASKS)
    @pytest.mark.parametrize("adversary", [None] + FUZZ_ADVERSARIES)
    def test_vector_cross(self, task, adversary, request):
        reports = {True: _run(task, adversary)}
        request.getfixturevalue("per_view_decide")
        reports[False] = _run(task, adversary)
        baseline = reports[False]
        base_json = baseline.canonical_json()
        for combo, report in reports.items():
            assert report.canonical_json() == base_json, combo
            assert _outcomes(report) == _outcomes(baseline), combo
            if adversary:
                # fuzz wire coordinates unchanged across the vector axis
                for a, b in zip(baseline.records, report.records):
                    extra_a = a.extra or {}
                    extra_b = b.extra or {}
                    for key in MUTATION_KEYS:
                        assert extra_a.get(key) == extra_b.get(key), (combo, key)

    @pytest.mark.parametrize("task", ALL_TASKS)
    def test_vector_cross_workers(self, task, request):
        """Kernels serial and on 2 workers, per-view serial: shard decides
        cross a process boundary, so the kernels run on wire-backed labels
        there."""
        kernels = _run(task).canonical_json()
        assert _run(task, workers=2).canonical_json() == kernels, "workers"
        request.getfixturevalue("per_view_decide")
        assert _run(task).canonical_json() == kernels, "per-view"


def _tree_of(label):
    """The label as plain nested field dicts (the object-tree shape)."""
    return {
        name: (kind, _tree_of(value) if kind == "label" else value, width)
        for name, kind, value, width in label.fields()
    }


class TestPackedTransport:
    def test_packed_transport_is_smaller(self):
        """The point of the blob: shard bytes drop vs. pickled trees."""
        spec = get_task("path_outerplanarity")
        from repro.runtime.seeds import SeedSequence

        run_ss = SeedSequence(11).child(0)
        factory = spec.yes_factory
        if hasattr(factory, "build_seeded"):
            instance = factory.build_seeded(24, run_ss.child("instance").seed_int())
        else:
            instance = factory(24, run_ss.child("instance").rng())
        result = spec.protocol().execute(
            instance, rng=run_ss.child("protocol").rng()
        )
        packed_bytes = len(pickle.dumps(result.transcript))
        tree_bytes = len(
            pickle.dumps(
                [
                    (
                        {v: _tree_of(l) for v, l in rnd.labels.items()},
                        {e: _tree_of(l) for e, l in rnd.edge_labels.items()},
                    )
                    for rnd in result.transcript.prover_rounds()
                ]
            )
        )
        assert packed_bytes < tree_bytes / 2, (packed_bytes, tree_bytes)
        # and the packed pickle round-trips to an equal transcript
        clone = pickle.loads(pickle.dumps(result.transcript))
        assert clone.wire_hex() == result.transcript.wire_hex()
