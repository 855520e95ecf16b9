"""Named, picklable task specs for the batched runtime.

``ProcessPoolExecutor`` ships every task to workers by pickling it, and
lambdas (the idiom of ``cli._tasks`` and the benchmark conftests) do not
pickle.  This module is the process-safe catalogue: for every verification
task it exposes module-level factory functions (yes-instances,
no-instances) and adversary factories, bundled into :class:`TaskSpec`
objects that the CLI, benchmarks, and examples can fan out across workers.

Everything here is resolvable by name::

    spec = get_task("path_outerplanarity")
    runner = BatchRunner(spec.protocol(), spec.no_factory, workers=4)

Names accept both underscore and hyphen forms (``path-outerplanarity``).

A whole batch is nameable too: :func:`resolve_batch` maps ``(task,
instance kind, adversary, fault spec)`` to the factories a batch runs,
and :func:`batch_identity` maps a batch spec back to those names.  The
proof server and the remote workers build batches from names only.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..adversaries import (
    ForcedWitnessProver,
    FuzzingLRProver,
    IndexLiarProver,
    InnerBlockLiarProver,
    SeededMutatingProver,
    StealthIndexLiarProver,
    SwappedBlocksProver,
)
from ..core.network import norm_edge
from ..graphs.generators import (
    add_crossing_chord,
    random_nonplanar,
    random_not_treewidth2,
    random_outerplanar,
    random_path_outerplanar,
    random_planar,
    random_planar_embedding_instance,
    random_planar_not_outerplanar,
    random_series_parallel,
    random_treewidth2,
)
from ..protocols.instances import (
    LRSortingInstance,
    OuterplanarInstance,
    PathOuterplanarInstance,
    PlanarEmbeddingInstance,
    PlanarityInstance,
    SeriesParallelInstance,
    Treewidth2Instance,
)
from ..protocols.lr_sorting import HonestLRSortingProver, LRSortingProtocol
from ..protocols.outerplanarity import OuterplanarityProtocol, OuterplanarityProver
from ..protocols.path_outerplanarity import (
    HonestPathOuterplanarityProver,
    PathOuterplanarityProtocol,
)
from ..protocols.planar_embedding import PlanarEmbeddingProtocol, PlanarEmbeddingProver
from ..protocols.planarity import PlanarityProtocol, PlanarityProver
from ..protocols.series_parallel import SeriesParallelProtocol, SeriesParallelProver
from ..protocols.treewidth2 import Treewidth2Protocol, Treewidth2Prover
from .cache import CachedFactory
from .faults import FaultPlan

# -- yes-instance factories (all deterministic in (n, rng state)) ----------


def path_outerplanarity_yes(n: int, rng: random.Random) -> PathOuterplanarInstance:
    g, path = random_path_outerplanar(n, rng)
    return PathOuterplanarInstance(g, witness_path=path)


def outerplanarity_yes(n: int, rng: random.Random) -> OuterplanarInstance:
    return OuterplanarInstance(random_outerplanar(n, rng))


def planar_embedding_yes(n: int, rng: random.Random) -> PlanarEmbeddingInstance:
    g, rot = random_planar_embedding_instance(max(4, n), rng)
    return PlanarEmbeddingInstance(g, rot)


def planarity_yes(n: int, rng: random.Random) -> PlanarityInstance:
    return PlanarityInstance(random_planar(max(4, n), rng))


def series_parallel_yes(n: int, rng: random.Random) -> SeriesParallelInstance:
    return SeriesParallelInstance(random_series_parallel(n, rng))


def treewidth2_yes(n: int, rng: random.Random) -> Treewidth2Instance:
    return Treewidth2Instance(random_treewidth2(max(3, n), rng))


def lr_sorting_yes(n: int, rng: random.Random) -> LRSortingInstance:
    return lr_sorting_instance(n, rng, flip_edges=0)


def lr_sorting_instance(
    n: int, rng: random.Random, flip_edges: int = 0, density: float = 0.5
) -> LRSortingInstance:
    """Random LR-sorting instance; ``flip_edges`` back edges make it a no."""
    g, path = random_path_outerplanar(n, rng, density=density)
    pos = {v: i for i, v in enumerate(path)}
    path_edges = {norm_edge(path[i], path[i + 1]) for i in range(n - 1)}
    orientation = {}
    non_path = [e for e in g.edges() if e not in path_edges]
    rng.shuffle(non_path)
    for k, (u, v) in enumerate(non_path):
        t, h = (u, v) if pos[u] < pos[v] else (v, u)
        if k < flip_edges:
            t, h = h, t
        orientation[norm_edge(u, v)] = (t, h)
    return LRSortingInstance(g, path, orientation)


# -- no-instance factories --------------------------------------------------


def path_outerplanarity_no(n: int, rng: random.Random) -> PathOuterplanarInstance:
    """Crossing-chord no-instance; keeps the (now useless) witness path so
    witness-abusing adversaries like ForcedWitnessProver can run."""
    g, path = random_path_outerplanar(n, rng, density=0.6)
    return PathOuterplanarInstance(add_crossing_chord(g, path, rng), witness_path=path)


def outerplanarity_no(n: int, rng: random.Random) -> OuterplanarInstance:
    return OuterplanarInstance(random_planar_not_outerplanar(n, rng))


def planarity_no(n: int, rng: random.Random) -> PlanarityInstance:
    return PlanarityInstance(random_nonplanar(n, rng))


def series_parallel_no(n: int, rng: random.Random) -> SeriesParallelInstance:
    return SeriesParallelInstance(random_not_treewidth2(n, rng))


def treewidth2_no(n: int, rng: random.Random) -> Treewidth2Instance:
    return Treewidth2Instance(random_not_treewidth2(n, rng))


def lr_sorting_no(n: int, rng: random.Random) -> LRSortingInstance:
    return lr_sorting_instance(n, rng, flip_edges=1)


# -- adversary factories ----------------------------------------------------


def forced_witness_prover(instance: PathOuterplanarInstance) -> ForcedWitnessProver:
    if instance.witness_path is None:
        raise ValueError("ForcedWitnessProver needs an instance with a witness path")
    return ForcedWitnessProver(instance, forced_path=instance.witness_path)


class SeededFuzzingProver:
    """Picklable factory for :class:`FuzzingLRProver` at a fixed round.

    The fuzz RNG comes from the run's own stream (the runner passes it when
    the factory sets ``wants_rng``), so a fuzzed batch replays exactly.
    """

    wants_rng = True

    def __init__(self, target_round: int = 1):
        self.target_round = target_round

    def __call__(self, instance, rng: random.Random) -> FuzzingLRProver:
        return FuzzingLRProver(instance, fuzz_rng=rng, target_round=self.target_round)

    def __repr__(self) -> str:
        return f"SeededFuzzingProver(target_round={self.target_round})"


#: the rounds in which the paper's 5-round protocols send prover messages
FUZZ_ROUNDS = (1, 3, 5)


def fuzz_adversaries(prover_cls) -> Dict[str, SeededMutatingProver]:
    """The universal ``fuzz_rK`` adversary family for one honest prover class.

    One picklable :class:`~repro.adversaries.SeededMutatingProver` per
    prover round, each applying one random single-field mutation
    (``op="random"``) to that round's wire labels.
    """
    return {
        f"fuzz_r{r}": SeededMutatingProver(prover_cls, target_round=r)
        for r in FUZZ_ROUNDS
    }


# -- chaos factories --------------------------------------------------------


def exiting_worker_factory(n: int, rng: random.Random) -> None:
    """Instance factory that hard-kills its hosting worker process.

    Registered here (module-level, so it pickles by reference) for chaos
    tests of the ``BrokenProcessPool`` paths: a worker executing this
    factory dies without raising, tracing, or flushing — the way an
    OOM-killed or segfaulted worker dies in production.  Never call it
    in-process.
    """
    os._exit(23)  # pragma: no cover - the process dies before coverage flushes


# -- the catalogue ----------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    """Everything the runtime needs to batch one verification task."""

    name: str
    protocol: Callable[..., object]  # protocol class; call with c=...
    yes_factory: Callable[[int, random.Random], object]
    no_factory: Optional[Callable[[int, random.Random], object]] = None
    instance_cls: Optional[type] = None
    #: name -> prover factory, each taking (instance) or (instance, rng)
    adversaries: Dict[str, Callable] = field(default_factory=dict)


_TASKS: Dict[str, TaskSpec] = {}


def _register(spec: TaskSpec) -> TaskSpec:
    _TASKS[spec.name] = spec
    return spec


_register(
    TaskSpec(
        name="path_outerplanarity",
        protocol=PathOuterplanarityProtocol,
        yes_factory=path_outerplanarity_yes,
        no_factory=path_outerplanarity_no,
        instance_cls=PathOuterplanarInstance,
        adversaries={
            "forced_witness": forced_witness_prover,
            **fuzz_adversaries(HonestPathOuterplanarityProver),
        },
    )
)
_register(
    TaskSpec(
        name="outerplanarity",
        protocol=OuterplanarityProtocol,
        yes_factory=outerplanarity_yes,
        no_factory=outerplanarity_no,
        instance_cls=OuterplanarInstance,
        adversaries=fuzz_adversaries(OuterplanarityProver),
    )
)
_register(
    TaskSpec(
        name="planar_embedding",
        protocol=PlanarEmbeddingProtocol,
        yes_factory=planar_embedding_yes,
        instance_cls=None,
        adversaries=fuzz_adversaries(PlanarEmbeddingProver),
    )
)
_register(
    TaskSpec(
        name="planarity",
        protocol=PlanarityProtocol,
        yes_factory=planarity_yes,
        no_factory=planarity_no,
        instance_cls=PlanarityInstance,
        adversaries=fuzz_adversaries(PlanarityProver),
    )
)
_register(
    TaskSpec(
        name="series_parallel",
        protocol=SeriesParallelProtocol,
        yes_factory=series_parallel_yes,
        no_factory=series_parallel_no,
        instance_cls=SeriesParallelInstance,
        adversaries=fuzz_adversaries(SeriesParallelProver),
    )
)
_register(
    TaskSpec(
        name="treewidth2",
        protocol=Treewidth2Protocol,
        yes_factory=treewidth2_yes,
        no_factory=treewidth2_no,
        instance_cls=Treewidth2Instance,
        adversaries=fuzz_adversaries(Treewidth2Prover),
    )
)
_register(
    TaskSpec(
        name="lr_sorting",
        protocol=LRSortingProtocol,
        yes_factory=lr_sorting_yes,
        no_factory=lr_sorting_no,
        instance_cls=LRSortingInstance,
        adversaries={
            "swapped_blocks": SwappedBlocksProver,
            "inner_block_liar": InnerBlockLiarProver,
            "index_liar": IndexLiarProver,
            "stealth_index_liar": StealthIndexLiarProver,
            "fuzzing_r1": SeededFuzzingProver(target_round=1),
            "fuzzing_r3": SeededFuzzingProver(target_round=3),
            "fuzzing_r5": SeededFuzzingProver(target_round=5),
            **fuzz_adversaries(HonestLRSortingProver),
        },
    )
)


#: historical CLI spellings -> registry names
_ALIASES = {"treewidth_2": "treewidth2"}


def canonical_name(name: str) -> str:
    key = name.replace("-", "_")
    return _ALIASES.get(key, key)


def get_task(name: str) -> TaskSpec:
    key = canonical_name(name)
    if key not in _TASKS:
        raise KeyError(f"unknown task {name!r}; choose from {sorted(_TASKS)}")
    return _TASKS[key]


def task_names() -> Tuple[str, ...]:
    return tuple(sorted(_TASKS))


def conformance_cases() -> Tuple[Tuple[str, Optional[str]], ...]:
    """``(task, adversary-or-None)`` pairs for cross-backend conformance.

    Every task honest (adversary None) plus its universal ``fuzz_rK``
    family — the same coverage the E13 wire differential runs, so
    backend conformance and wire-format conformance pin the same surface.
    """
    cases: list = []
    for name in task_names():
        spec = _TASKS[name]
        cases.append((name, None))
        for adv in sorted(spec.adversaries):
            if adv.startswith("fuzz_r"):
                cases.append((name, adv))
    return tuple(cases)


# -- batches by name --------------------------------------------------------


class UnnamedBatchError(ValueError):
    """A batch the registry cannot name, or a name the registry lacks."""


@dataclass(frozen=True)
class NamedBatch:
    """The factories a batch's registry names stand for."""

    spec: TaskSpec
    kind: str  #: "yes" or "no": which instance factory
    factory: Callable[[int, random.Random], object]
    prover_factory: Optional[Callable]
    fault_plan: Optional[FaultPlan]

    @property
    def expect_accept(self) -> bool:
        """Whether every run should accept: honest runs on yes-instances."""
        return self.kind == "yes" and self.prover_factory is None


def resolve_batch(
    task: str,
    *,
    no_instance: bool = False,
    adversary: Optional[str] = None,
    inject_faults: Optional[str] = None,
) -> NamedBatch:
    """The batch a task, instance kind, adversary and fault spec name.

    Raises :class:`UnnamedBatchError` with an operator-readable message
    for an unknown task or adversary, a task without a no-instance
    generator, or a fault spec :meth:`FaultPlan.from_spec` refuses.
    """
    try:
        spec = get_task(task)
    except KeyError as exc:
        raise UnnamedBatchError(exc.args[0]) from None
    factory = spec.no_factory if no_instance else spec.yes_factory
    if factory is None:
        raise UnnamedBatchError(f"no built-in no-instance generator for {task}")
    prover_factory = None
    if adversary is not None:
        prover_factory = spec.adversaries.get(adversary)
        if prover_factory is None:
            raise UnnamedBatchError(
                f"unknown adversary {adversary!r} for {task}; "
                f"choose from {sorted(spec.adversaries)}"
            )
    fault_plan = None
    if inject_faults is not None:
        try:
            fault_plan = FaultPlan.from_spec(inject_faults)
        except ValueError as exc:
            raise UnnamedBatchError(f"bad inject_faults spec: {exc}") from None
    return NamedBatch(
        spec, "no" if no_instance else "yes", factory, prover_factory, fault_plan
    )


def _protocol_state(obj: Any) -> Any:
    """A protocol's attributes, its sub-protocols' included."""
    if callable(getattr(obj, "execute", None)) and hasattr(obj, "__dict__"):
        return type(obj), {k: _protocol_state(v) for k, v in vars(obj).items()}
    return obj


def batch_identity(batch) -> Dict[str, Any]:
    """The registry names of a batch spec, as a JSON-safe dict.

    :func:`resolve_batch` maps the names back to the same factories, so
    the names rebuild a batch whose runs match the original's.  Raises
    :class:`UnnamedBatchError` for a batch the names cannot rebuild:
    a protocol that is not a registry task's, a protocol parameter
    other than ``c`` off its default, an instance factory that is
    neither of the task's generators (a :class:`CachedFactory` counts
    as its builder), an unregistered adversary, or a fault plan that is
    not a :class:`FaultPlan`.
    """
    protocol = batch.protocol
    spec = next((s for s in _TASKS.values() if type(protocol) is s.protocol), None)
    if spec is None:
        raise UnnamedBatchError(
            f"protocol {protocol!r} is not the protocol of a registry task"
        )
    c = getattr(protocol, "c", None)
    if type(c) is not int or _protocol_state(protocol) != _protocol_state(
        spec.protocol(c=c)
    ):
        raise UnnamedBatchError(
            f"{spec.name}: a protocol parameter other than c is off its default"
        )
    cached = isinstance(batch.instance_factory, CachedFactory)
    factory = batch.instance_factory.builder if cached else batch.instance_factory
    if factory is spec.yes_factory:
        no_instance = False
    elif factory is not None and factory is spec.no_factory:
        no_instance = True
    else:
        raise UnnamedBatchError(
            f"{spec.name}: instance factory {factory!r} is not a registry generator"
        )
    adversary = None
    if batch.prover_factory is not None:
        adversary = next(
            (k for k, v in spec.adversaries.items() if v is batch.prover_factory),
            None,
        )
        if adversary is None:
            raise UnnamedBatchError(
                f"{spec.name}: prover factory {batch.prover_factory!r} "
                "is not a registry adversary"
            )
    plan = batch.fault_plan
    if plan is not None and not isinstance(plan, FaultPlan):
        raise UnnamedBatchError(f"fault plan {plan!r} is not a FaultPlan")
    if type(batch.n) is not int or type(batch.master_seed) is not int:
        raise UnnamedBatchError("n and the master seed must be ints")
    return {
        "task": spec.name,
        "c": c,
        "no_instance": no_instance,
        "adversary": adversary,
        "n": batch.n,
        "seed": batch.master_seed,
        "faults": None if plan is None else plan.to_spec(),
        "trace": bool(batch.trace),
        "cached": cached,
    }
