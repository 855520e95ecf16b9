"""Pluggable execution backends for the batched runtime.

A backend decides *where* the runs of a batch execute; *how* they
execute is the same everywhere: each backend hands the batch to the one
wave engine of :mod:`repro.runtime.resilience`, whose failure policy
(``strict``, ``retry`` or ``degrade``) decides what a failed run does.
The backends differ only in how one wave of shards executes:

* :class:`SerialBackend` — in process, the ``workers=0`` reference path.
* :class:`ProcessPoolBackend` — a local ``ProcessPoolExecutor``; each
  shard submission carries the batch spec (a few hundred bytes), and a
  pool broken by a dead or hung worker is terminated and rebuilt.
* :class:`~repro.runtime.remote.RemoteWorkerBackend` — socket-dispatched
  agents started by ``repro worker --connect host:port``, which run
  batches the registry can name (its own module; resolvable here by the
  ``remote:host:port`` spec string).

The load-bearing invariant is inherited from
:mod:`repro.runtime.seeds` and restated here because every backend must
preserve it: run ``i`` of a batch with master seed ``s`` derives all of
its randomness from ``SeedSequence(s).child(i)`` — keyed by *run index*,
never by shard layout, worker assignment, or backend — so all backends
produce byte-identical ``BatchReport.canonical_json()`` for the same
``(task, n, seeds)`` batch.  ``tests/test_backends.py`` pins that
differentially.

Backends are addressable by name (:func:`resolve_backend`): ``"serial"``,
``"process"``, and ``"remote:host:port"``; ``None`` keeps the legacy
mapping from ``workers`` (0 means serial, anything else the pool).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: records + failures + cache-stats triple every batch execution returns
BatchResult = Tuple[List[Any], List[Any], Optional[Dict[str, int]]]


def shard_size(
    n_indices: int, *, workers: int = 1, chunk_size: Optional[int] = None
) -> int:
    """Runs per shard: ``chunk_size`` if given, else ~4 shards per worker."""
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return chunk_size or max(1, math.ceil(n_indices / (max(1, workers) * 4)))


def plan_shards(
    indices: Iterable[int],
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
) -> List[List[int]]:
    """Partition run indices into dispatchable shards, order-preserving.

    The plan is a *permutation-free tiling*: concatenating the shards
    reproduces the input order exactly, every shard is non-empty, and no
    index is dropped or duplicated.  Nothing downstream may depend on
    the tiling — per-run seed streams are keyed by run index alone — but
    the property keeps shard/record bookkeeping trivially auditable
    (``tests/test_backends.py`` holds the hypothesis proof).

    Without an explicit ``chunk_size`` the default granularity is ~4
    shards per worker, the historical ``BatchRunner`` heuristic.
    """
    indices = list(indices)
    chunk = shard_size(len(indices), workers=workers, chunk_size=chunk_size)
    return [indices[lo : lo + chunk] for lo in range(0, len(indices), chunk)]


class ExecutionBackend(ABC):
    """Where (and how) the runs of one batch execute.

    A backend receives a ``_BatchSpec`` (the pool pickles it into each
    shard; the remote backend sends its registry names) plus a run
    count and returns per-run records; it owns worker lifecycle, shard
    dispatch, and transport.  Determinism is not its job — the spec's
    seed streams guarantee byte-identical records on every backend — but
    *transparency* is: a backend must never reorder, drop, or duplicate
    run indices, and failure metadata must stay outside the canonical
    identity.

    ``last_run_info`` is refreshed by each execution with a JSON-safe
    description of how it went (spawn width, worker losses, bytes moved,
    ...); the runner surfaces it as ``report.meta["backend"]``.
    """

    name: str = "?"

    def __init__(self) -> None:
        self.last_run_info: Dict[str, Any] = {}

    def describe(self) -> Dict[str, Any]:
        """Static JSON-safe description (subclasses extend)."""
        return {"backend": self.name}

    @abstractmethod
    def run(
        self,
        spec,
        n_runs: int,
        *,
        chunk_size: Optional[int] = None,
        failure_policy: str = "strict",
        run_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> BatchResult:
        """Execute the batch through the wave engine under ``failure_policy``."""

    def close(self) -> None:
        """Release backend resources (idempotent; serial/pool hold none)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process execution — the reference every other backend is pinned to."""

    name = "serial"

    def run(self, spec, n_runs, *, chunk_size=None, **knobs) -> BatchResult:
        from .resilience import _BatchExecution

        self.last_run_info = self.describe()
        return _BatchExecution(
            spec, n_runs, workers=0, chunk_size=chunk_size, **knobs
        ).run_serial()


class ProcessPoolBackend(ExecutionBackend):
    """Local ``ProcessPoolExecutor`` sharding.

    Waves run on the pool side of the engine in
    :mod:`repro.runtime.resilience`: each shard submission carries the
    batch spec, a strict abort cancels the queued shards and terminates
    the workers, and the engine owns pool rebuilds after
    ``BrokenProcessPool`` and the hung-worker backstop.

    ``workers`` is the *configured* width; the width actually spawned is
    re-clamped against :func:`~repro.runtime.runner._usable_cores` at
    every execution (see :meth:`spawn_width`), so a backend constructed
    under one CPU affinity — or swapped onto a runner later — never
    spawns more processes than the box can schedule.
    """

    name = "process"

    def __init__(self, workers: int, chunk_size: Optional[int] = None):
        super().__init__()
        if workers < 1:
            raise ValueError("process backend needs workers >= 1")
        self.workers = workers
        self.chunk_size = chunk_size

    def describe(self) -> Dict[str, Any]:
        return {"backend": self.name, "workers": self.workers}

    def spawn_width(self) -> int:
        """Worker processes to actually spawn, re-checked per execution.

        Looked up through the runner module (not a captured import) so
        both affinity changes and test monkeypatches of
        ``runner._usable_cores`` are honoured at run time.
        """
        from . import runner

        return max(1, min(self.workers, runner._usable_cores()))

    def _note_spawn(self, width: int) -> None:
        info = self.describe()
        info["workers_spawned"] = width
        if width != self.workers:
            info["clamped_to_cores"] = True
        self.last_run_info = info

    def run(self, spec, n_runs, *, chunk_size=None, **knobs) -> BatchResult:
        from .resilience import _BatchExecution

        width = self.spawn_width()
        self._note_spawn(width)
        return _BatchExecution(
            spec,
            n_runs,
            workers=width,
            chunk_size=chunk_size or self.chunk_size,
            **knobs,
        ).run_pooled()


# ---------------------------------------------------------------------------
# the name registry
# ---------------------------------------------------------------------------

#: name -> factory(workers, chunk_size, spec_tail) building a backend
_BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {}


def register_backend(name: str, factory: Callable[..., ExecutionBackend]) -> None:
    """Register a backend factory under ``name`` (idempotent overwrite)."""
    _BACKENDS[name] = factory


def backend_names() -> Tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def _make_serial(workers: int, chunk_size: Optional[int], tail: str) -> ExecutionBackend:
    return SerialBackend()


def _make_process(workers: int, chunk_size: Optional[int], tail: str) -> ExecutionBackend:
    if workers < 1:
        raise ValueError(
            "backend 'process' needs workers >= 1 (pass workers=k, or use "
            "'serial' for in-process execution)"
        )
    return ProcessPoolBackend(workers, chunk_size)


def _make_remote(workers: int, chunk_size: Optional[int], tail: str) -> ExecutionBackend:
    from .remote import RemoteWorkerBackend, parse_address

    host, port = parse_address(tail or "127.0.0.1:0")
    return RemoteWorkerBackend(
        host, port, min_workers=max(1, workers), chunk_size=chunk_size
    )


register_backend("serial", _make_serial)
register_backend("process", _make_process)
register_backend("remote", _make_remote)


def resolve_backend(
    backend: Any = None,
    *,
    workers: int = 0,
    chunk_size: Optional[int] = None,
) -> ExecutionBackend:
    """Resolve a backend argument into an :class:`ExecutionBackend`.

    ``backend`` may be:

    * ``None`` — the legacy mapping: ``workers == 0`` runs serially,
      anything else on a local process pool;
    * an :class:`ExecutionBackend` instance — returned as-is (caller
      owns its lifecycle);
    * a name — ``"serial"``, ``"process"``, or ``"remote[:host:port]"``
      (the spec tail after the first ``:`` goes to the factory, so
      ``"remote:127.0.0.1:7077"`` listens there; bare ``"remote"``
      binds an ephemeral localhost port).
    """
    if backend is None:
        return SerialBackend() if workers == 0 else ProcessPoolBackend(workers, chunk_size)
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        name, _, tail = backend.partition(":")
        key = name.strip().lower()
        if key in _BACKENDS:
            return _BACKENDS[key](workers, chunk_size, tail.strip())
        raise ValueError(
            f"unknown backend {backend!r}; choose from {backend_names()} "
            "(or pass an ExecutionBackend instance)"
        )
    raise TypeError(
        f"backend must be None, a name, or an ExecutionBackend; got {backend!r}"
    )
