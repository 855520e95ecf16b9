"""Deterministic fault injection for the batched runtime (chaos engine).

One seeded tap at a single choke point
(:class:`~repro.adversaries.mutation.MutationTap` inside
``Interaction.prover_round``) is enough to make *adversarial* corruption
reproducible.  This module applies the same idea to *infrastructure*
faults: a :class:`FaultPlan` is a seeded, picklable description of which
run indices of a batch suffer which failure mode, so that every crash,
hang, and worker death of a chaos experiment replays exactly from
``(master_seed, plan_seed)`` — on any worker layout.

Fault classes (:data:`FAULT_KINDS`):

``raise``
    raise :class:`InjectedFault` (a transient error: the run itself is
    untouched, a retry with the same per-run streams succeeds).
``hang``
    sleep ``hang_s`` seconds — chosen to exceed any sane per-run
    timeout, so the resilience layer's deadline machinery must notice.
``kill``
    hard-kill the hosting worker process with ``os._exit`` (no cleanup,
    no exception), which surfaces to the coordinator as a broken pool.
    In-process (serial) execution never hard-kills the coordinator:
    there the kill degrades to a transient :class:`InjectedFault`.

A fault *fires* on attempts ``0 .. fires-1`` of its run and then goes
quiet, so ``fires=1`` models a transient glitch that a single retry
clears, while ``fires=PERSISTENT`` models a run that can never succeed
(the ``degrade`` policy's bread and butter).

The plan decides per run index, positionally, via the same
:class:`~repro.runtime.seeds.SeedSequence` discipline the runner uses
for instances — the fault at run ``i`` is a pure function of
``(plan_seed, i)``, independent of execution order, retries elsewhere,
and worker assignment.

A plan travels with its batch, never through a module slot: it rides on
the batch spec (``spec.fault_plan``) that every worker receives, and the
resilient execution path fires it per attempt with
``spec.fault_plan.fire(...)``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .seeds import SeedSequence

FAULT_KINDS = ("raise", "hang", "kill")

#: ``fires`` value meaning "this fault never stops firing" (any retry
#: budget is exhausted long before 10**9 attempts).
PERSISTENT = 10**9

#: exit status used by ``kill`` faults (visible in pool diagnostics).
KILL_EXIT_CODE = 23


class InjectedFault(RuntimeError):
    """A transient infrastructure fault raised by a :class:`FaultPlan`."""


@dataclass(frozen=True)
class PlannedFault:
    """The fault (if any) a plan assigns to one run index."""

    run_index: int
    kind: str  #: one of :data:`FAULT_KINDS`
    fires: int  #: fires on attempts ``0 .. fires-1``

    def fires_on(self, attempt: int) -> bool:
        return attempt < self.fires


class FaultPlan:
    """Seeded per-run fault assignment for one batch.

    ``rate`` of the run indices draw a fault, uniformly over ``kinds``;
    ``overrides`` pins specific indices to ``(kind, fires)`` regardless
    of the draw (handy for targeted tests).  Instances are immutable in
    spirit, picklable, and cheap to ship to workers inside the batch
    spec.
    """

    def __init__(
        self,
        plan_seed: int,
        rate: float = 0.0,
        kinds: Sequence[str] = FAULT_KINDS,
        fires: int = 1,
        hang_s: float = 30.0,
        overrides: Optional[Dict[int, Tuple[str, int]]] = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        kinds = tuple(kinds)
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")
        if rate > 0.0 and not kinds:
            raise ValueError("rate > 0 needs at least one fault kind")
        if fires < 1:
            raise ValueError("fires must be >= 1")
        if hang_s <= 0:
            raise ValueError("hang_s must be > 0")
        self.plan_seed = plan_seed
        self.rate = rate
        self.kinds = kinds
        self.fires = fires
        self.hang_s = hang_s
        self.overrides = dict(overrides or {})
        for index, (kind, n_fires) in self.overrides.items():
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r} at run {index}")
            if n_fires < 1:
                raise ValueError(f"fires must be >= 1 at run {index}")

    # -- the deterministic assignment -------------------------------------

    def fault_at(self, run_index: int) -> Optional[PlannedFault]:
        """The fault assigned to ``run_index`` (pure in ``(plan_seed, i)``)."""
        if run_index in self.overrides:
            kind, fires = self.overrides[run_index]
            return PlannedFault(run_index, kind, fires)
        if self.rate <= 0.0:
            return None
        rng = SeedSequence(self.plan_seed).child("fault").child(run_index).rng()
        if rng.random() >= self.rate:
            return None
        return PlannedFault(run_index, rng.choice(self.kinds), self.fires)

    def faulted_indices(self, n_runs: int) -> Dict[int, PlannedFault]:
        """All planned faults among runs ``0 .. n_runs-1`` (for reports)."""
        out = {}
        for i in range(n_runs):
            fault = self.fault_at(i)
            if fault is not None:
                out[i] = fault
        return out

    # -- firing ------------------------------------------------------------

    def fire(self, run_index: int, attempt: int, *, in_worker: bool) -> None:
        """Inject the planned fault for ``(run_index, attempt)``, if any.

        Called by the resilient execution path at the top of every run
        attempt.  ``in_worker`` distinguishes a disposable pool worker
        (where ``kill`` really calls ``os._exit``) from the coordinating
        process (where it degrades to a transient raise — killing the
        caller's interpreter is never a useful experiment).
        """
        fault = self.fault_at(run_index)
        if fault is None or not fault.fires_on(attempt):
            return
        if fault.kind == "raise":
            raise InjectedFault(
                f"injected transient fault at run {run_index} (attempt {attempt})"
            )
        if fault.kind == "hang":
            # interruptible by the resilience layer's SIGALRM deadline
            time.sleep(self.hang_s)
            return
        # kind == "kill"
        if in_worker:
            os._exit(KILL_EXIT_CODE)  # pragma: no cover - dies before coverage flushes
        raise InjectedFault(
            f"injected kill at run {run_index} (attempt {attempt}) "
            f"downgraded to a transient raise: not in a worker process"
        )

    # -- parsing -----------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the CLI's compact ``--inject-faults`` spec string.

        Comma-separated ``key=value`` entries::

            rate=0.25,kinds=raise|hang,seed=7,fires=2,hang=5.0
            at=3:raise+9:kill:inf,seed=1

        Keys: ``rate`` (fault probability per run), ``kinds``
        (``|``-separated subset of raise/hang/kill), ``seed`` (plan
        seed), ``fires`` (attempts each fault fires on; ``inf`` =
        persistent), ``hang`` (hang duration in seconds), and ``at``
        (``+``-separated pinned faults ``index:kind[:fires]``).
        """
        rate = 0.0
        kinds: Tuple[str, ...] = FAULT_KINDS
        seed = 0
        fires = 1
        hang_s = 30.0
        overrides: Dict[int, Tuple[str, int]] = {}
        try:
            for entry in spec.split(","):
                entry = entry.strip()
                if not entry:
                    continue
                key, _, value = entry.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "rate":
                    rate = float(value)
                elif key == "kinds":
                    kinds = tuple(k.strip() for k in value.split("|") if k.strip())
                elif key == "seed":
                    seed = int(value)
                elif key == "fires":
                    fires = PERSISTENT if value == "inf" else int(value)
                elif key == "hang":
                    hang_s = float(value)
                elif key == "at":
                    for pin in value.split("+"):
                        parts = pin.split(":")
                        if len(parts) == 2:
                            index, kind = parts
                            n_fires = fires
                        elif len(parts) == 3:
                            index, kind, raw = parts
                            n_fires = PERSISTENT if raw == "inf" else int(raw)
                        else:
                            raise ValueError(f"bad at-entry {pin!r}")
                        overrides[int(index)] = (kind, n_fires)
                else:
                    raise ValueError(f"unknown key {key!r}")
        except ValueError:
            raise
        except Exception as exc:  # int()/float() garbage etc.
            raise ValueError(f"bad fault spec {spec!r}: {exc}") from exc
        return cls(
            seed, rate=rate, kinds=kinds, fires=fires, hang_s=hang_s,
            overrides=overrides,
        )

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.plan_seed}, rate={self.rate}, "
            f"kinds={self.kinds}, fires={self.fires}, "
            f"overrides={len(self.overrides)})"
        )
