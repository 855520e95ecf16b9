"""Checker coverage: single-field corruption of honest messages is caught.

Every field of every honest LR-sorting label is load-bearing: a random
flip in any round is rejected at a ~1.0 rate (the rare survivals are
no-op corruptions, e.g. a multiplicity clamped back to its old value).
"""

import random

import pytest

from repro.adversaries import FuzzingLRProver
from repro.core.protocol import run_context
from repro.protocols.lr_sorting import LRSortingProtocol

from conftest import make_lr_instance


@pytest.mark.parametrize("target_round", [1, 3, 5])
@pytest.mark.slow
def test_single_field_corruption_rejected(target_round):
    rng = random.Random(target_round)
    proto = LRSortingProtocol(c=2)
    rejected = 0
    trials = 40
    for t in range(trials):
        inst = make_lr_instance(100, rng)
        prover = FuzzingLRProver(
            inst, random.Random(5000 + t), target_round=target_round
        )
        with run_context(tap=prover.tap):
            res = proto.execute(inst, prover=prover, rng=random.Random(t))
        if prover.corrupted is None:
            rejected += 1  # nothing to corrupt: vacuous
            continue
        rejected += not res.accepted
    assert rejected >= trials - 3


def test_corruption_record_is_kept():
    rng = random.Random(9)
    inst = make_lr_instance(80, rng)
    prover = FuzzingLRProver(inst, random.Random(0), target_round=3)
    with run_context(tap=prover.tap):
        LRSortingProtocol(c=2).execute(inst, prover=prover, rng=random.Random(0))
    assert prover.corrupted is not None
    kind, owner, key, old, new = prover.corrupted
    assert kind in ("node", "edge")
    assert old != new or key in ("idx", "I", "M")
