"""Parallel batched protocol runtime with deterministic RNG streams.

The pieces, bottom-up:

* :mod:`~repro.runtime.seeds` — ``SeedSequence``, positional derivation of
  per-run RNG streams (run ``i`` of seed ``s`` is the same stream on any
  worker layout).
* :mod:`~repro.runtime.cache` — ``InstanceCache`` / ``CachedFactory``,
  memoizing graph construction keyed by ``(family, n, seed)``.
* :mod:`~repro.runtime.backends` — the ``ExecutionBackend`` interface:
  where shards execute (``serial``, ``process``, ``remote``) without the
  canonical report being able to tell the difference.
* :mod:`~repro.runtime.remote` — socket-dispatched worker agents
  (``repro worker --connect host:port``) and their coordinator backend.
* :mod:`~repro.runtime.runner` — ``BatchRunner``, sharding runs over a
  backend and aggregating ``BatchReport`` objects whose canonical
  payload is byte-identical for serial and parallel execution.
* :mod:`~repro.runtime.registry` — named, picklable task specs (protocol +
  instance factories + adversaries) for the CLI, benchmarks, and examples.
* :mod:`~repro.runtime.faults` — ``FaultPlan``, seeded deterministic
  injection of infrastructure faults (transient raises, hangs past the
  deadline, hard worker kills).
* :mod:`~repro.runtime.resilience` — per-run timeouts, retry with capped
  backoff + deterministic jitter, pool rebuilds, and degraded partial
  reports carrying typed ``FailureRecord`` entries.
"""

from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    backend_names,
    plan_shards,
    register_backend,
    resolve_backend,
)
from .cache import CachedFactory, InstanceCache, process_cache
from .faults import (
    FAULT_KINDS,
    PERSISTENT,
    FaultPlan,
    InjectedFault,
    PlannedFault,
)
from .registry import TaskSpec, get_task, task_names
from .resilience import (
    FAILURE_POLICIES,
    FailureRecord,
    RetryExhaustedError,
    RunTimeoutError,
    backoff_delay,
)
from .remote import InProcessWorker, RemoteWorkerBackend, parse_address, serve_worker
from .runner import BatchReport, BatchRunner, RunRecord
from .seeds import SeedSequence, retry_jitter, run_streams

__all__ = [
    "BatchReport",
    "BatchRunner",
    "CachedFactory",
    "ExecutionBackend",
    "FAILURE_POLICIES",
    "FAULT_KINDS",
    "FailureRecord",
    "FaultPlan",
    "InProcessWorker",
    "InjectedFault",
    "InstanceCache",
    "PERSISTENT",
    "PlannedFault",
    "ProcessPoolBackend",
    "RemoteWorkerBackend",
    "RetryExhaustedError",
    "RunRecord",
    "RunTimeoutError",
    "SeedSequence",
    "SerialBackend",
    "TaskSpec",
    "backend_names",
    "backoff_delay",
    "get_task",
    "parse_address",
    "plan_shards",
    "process_cache",
    "register_backend",
    "resolve_backend",
    "retry_jitter",
    "run_streams",
    "serve_worker",
    "task_names",
]
