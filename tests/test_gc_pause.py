"""The GC pause around every top-level run, and the invariant it rests on.

Each top-level run executes with automatic cyclic collection paused
(:func:`repro.core.protocol.gc_paused`), so the collector never rescans a
run's live transcript heap.  That is only free because a run makes no
cyclic garbage: reference counting frees the whole run heap before the
pause ends.  These tests pin both halves -- no run leaves anything for
the collector, and the pause nests, spans threads, survives exceptions
and respects a caller that disabled collection itself.

They stay unmarked (fast tier) on purpose: since CPython 3.12 automatic
collections run from the eval breaker instead of at allocation time, so
the pause is exercised on both sides of that change.
"""

import gc
import multiprocessing
import random
import sys
import threading
import time

import pytest

from repro.core.protocol import acceptance_rate, gc_paused
from repro.dynamic.driver import ChurnCampaignSpec, run_campaign
from repro.protocols.planarity import PlanarityProtocol
from repro.runtime.registry import get_task, task_names
from repro.runtime.runner import BatchRunner

N = 32
FUZZ = ("fuzz_r1", "fuzz_r3", "fuzz_r5")
WAIT_S = 30.0
STRESS_S = 5.0


@pytest.fixture
def gc_restored():
    """Leave the collector exactly as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def _every_run_kind():
    """All 7 tasks honest and under each fuzzer, plus one churn campaign."""
    for name in task_names():
        spec = get_task(name)
        BatchRunner(spec.protocol(c=2), spec.yes_factory).run(1, N, seed=5)
        for adv in FUZZ:
            BatchRunner(
                spec.protocol(c=2), spec.yes_factory,
                prover_factory=spec.adversaries[adv],
            ).run(1, N, seed=5)
    run_campaign(ChurnCampaignSpec(
        task="planarity", n=N, seed=3, n_updates=4, stream="preserving"))


def _garbage_sources() -> str:
    """What the next collection would free, by type and function name."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        kinds = {}
        for obj in gc.garbage:
            key = getattr(obj, "__qualname__", None) if callable(obj) else None
            key = key or type(obj).__name__
            kinds[key] = kinds.get(key, 0) + 1
        return ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items()))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_runs_leave_no_cyclic_garbage(gc_restored):
    _every_run_kind()  # warm-up: lazy imports, caches, interned schemas
    gc.collect()
    gc.disable()
    _every_run_kind()
    freed = gc.collect()
    if freed:
        _every_run_kind()
        pytest.fail(f"runs left {freed} objects in reference cycles: {_garbage_sources()}")


def _collections_during(fn):
    """``fn()``'s result and the collections that started while it ran."""
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(on_gc)
    try:
        return fn(), starts
    finally:
        gc.callbacks.remove(on_gc)


def _container_churn():
    """Enough container allocations to trigger young collections."""
    keep = []
    for i in range(20000):
        keep.append([i, (i,), {}])
    return gc.isenabled()


def test_pause_suppresses_automatic_collection(gc_restored):
    gc.enable()
    enabled, starts = _collections_during(_container_churn)
    assert enabled and starts, "the allocation loop must trigger collections"
    enabled, starts = _collections_during(gc_paused(_container_churn))
    assert not enabled
    assert starts == []
    assert gc.isenabled()


def test_nested_pauses_resume_only_at_the_outermost(gc_restored):
    gc.enable()
    inner = gc_paused(gc.isenabled)

    @gc_paused
    def outer():
        return inner(), gc.isenabled()

    assert outer() == (False, False)
    assert gc.isenabled()


def test_caller_disabled_collection_stays_disabled(gc_restored):
    gc.disable()
    assert gc_paused(gc.isenabled)() is False
    spec = get_task("lr_sorting")
    BatchRunner(spec.protocol(c=2), spec.yes_factory).run(1, 16, seed=1)
    assert not gc.isenabled()


def test_exception_inside_the_pause_resumes_collection(gc_restored):
    gc.enable()

    @gc_paused
    def boom():
        raise RuntimeError("run failed")

    with pytest.raises(RuntimeError, match="run failed"):
        boom()
    assert gc.isenabled()


def test_pause_is_shared_by_concurrent_threads(gc_restored):
    gc.enable()
    entered = threading.Barrier(5)
    release = [threading.Event() for _ in range(4)]

    @gc_paused
    def run(k):
        entered.wait(WAIT_S)
        if not release[k].wait(WAIT_S):
            raise TimeoutError(f"thread {k} was never released")

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    entered.wait(WAIT_S)  # all four are inside the pause
    for step, k in enumerate((2, 0, 3, 1)):
        assert not gc.isenabled()
        release[k].set()
        threads[k].join(WAIT_S)
        assert not threads[k].is_alive()
        assert gc.isenabled() == (step == 3)


def test_pause_counter_survives_thread_stress(gc_restored):
    """Many short overlapping pauses: a lost depth update would either
    resume collection under a running pause or never resume it."""
    gc.enable()
    violations = []

    @gc_paused
    def step():
        if gc.isenabled():
            violations.append(threading.current_thread().name)

    def hammer():
        # 10,000 pauses per thread, or fewer if a starved scheduler makes
        # the 1us switch interval crawl: the test's own time limit
        stop = time.monotonic() + STRESS_S
        for i in range(10000):
            step()
            if i % 100 == 0 and time.monotonic() > stop:
                break

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert violations == []
    assert gc.isenabled()


def _child_collector_state(queue):
    """In a forked child: (collection on?, inside a nested pause?, after it?)."""
    queue.put((gc.isenabled(), gc_paused(gc.isenabled)(), gc.isenabled()))


def _fork_and_report(ctx):
    queue = ctx.Queue()
    child = ctx.Process(target=_child_collector_state, args=(queue,))
    child.start()
    try:
        return queue.get(timeout=WAIT_S)
    finally:
        child.join(WAIT_S)
        if child.is_alive():
            child.kill()


def test_child_forked_during_another_threads_pause_collects(gc_restored):
    """Only the forking thread lives on in a forked pool worker: the pause
    another thread was inside must not stay on for the child's lifetime."""
    gc.enable()
    ctx = multiprocessing.get_context("fork")
    inside, release = threading.Event(), threading.Event()

    @gc_paused
    def hold():
        inside.set()
        release.wait(WAIT_S)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert inside.wait(WAIT_S)
        assert not gc.isenabled()
        assert _fork_and_report(ctx) == (True, False, True)
    finally:
        release.set()
        holder.join(WAIT_S)
    assert gc.isenabled()

    @gc_paused
    def fork_inside():
        return _fork_and_report(ctx)

    # the forking thread's own pause does carry over, and ends with it
    assert fork_inside() == (False, False, False)
    assert gc.isenabled()


def test_forks_racing_pauses_never_strand_the_child(gc_restored):
    """A fork never copies the pause's lock in its held state."""
    gc.enable()
    ctx = multiprocessing.get_context("fork")
    stop = threading.Event()
    noop = gc_paused(lambda: None)

    def hammer():
        while not stop.is_set():
            noop()

    threads = [threading.Thread(target=hammer) for _ in range(2)]
    for t in threads:
        t.start()
    try:
        for _ in range(20):
            assert _fork_and_report(ctx) == (True, False, True)
    finally:
        stop.set()
        for t in threads:
            t.join(WAIT_S)
    assert gc.isenabled()


class _Observed:
    """Wraps a protocol; records the collector state inside each execute."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.name = protocol.name
        self.seen = []

    def execute(self, *args, **kwargs):
        result, starts = _collections_during(
            lambda: self.protocol.execute(*args, **kwargs))
        self.seen.append((gc.isenabled(), starts))
        return result


def test_interleaved_runs_on_four_threads(gc_restored):
    gc.enable()
    spec = get_task("path_outerplanarity")
    protocols = [_Observed(spec.protocol(c=2)) for _ in range(4)]
    start = threading.Barrier(4)

    def batch(protocol):
        start.wait(WAIT_S)
        BatchRunner(protocol, spec.yes_factory).run(3, 24, seed=9)

    threads = [threading.Thread(target=batch, args=(p,)) for p in protocols]
    for t in threads:
        t.start()
    for t in threads:
        t.join(WAIT_S)
    assert not any(t.is_alive() for t in threads)
    seen = [s for p in protocols for s in p.seen]
    assert len(seen) == 12
    assert seen == [(False, [])] * 12
    assert gc.isenabled()


def test_batch_runs_are_paused_and_collection_resumes(gc_restored):
    gc.enable()
    spec = get_task("planarity")
    protocol = _Observed(spec.protocol(c=2))
    report = BatchRunner(protocol, spec.yes_factory).run(2, N, seed=4)
    assert report.acceptance_rate == 1.0
    assert protocol.seen == [(False, [])] * 2
    assert gc.isenabled()


def test_acceptance_rate_trials_are_paused(gc_restored):
    gc.enable()
    spec = get_task("lr_sorting")
    protocol = _Observed(spec.protocol(c=2))
    instances = [spec.yes_factory(16, random.Random(s)) for s in range(2)]
    assert acceptance_rate(protocol, instances, trials_per_instance=2) == 1.0
    assert protocol.seen == [(False, [])] * 4
    assert gc.isenabled()


def test_churn_epochs_are_paused_and_collection_resumes(gc_restored, monkeypatch):
    gc.enable()
    seen = []
    inner = PlanarityProtocol.execute

    def execute(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(PlanarityProtocol, "execute", execute)
    report = run_campaign(ChurnCampaignSpec(
        task="planarity", n=N, seed=3, n_updates=2, stream="preserving"),
        verify_full=True)
    assert report.all_sound
    assert seen == [False] * 6  # 3 epochs, each also re-proved from scratch
    assert gc.isenabled()


def test_churn_stream_generation_is_paused(gc_restored, monkeypatch):
    """The stream's planarity tests of insert candidates run in the pause."""
    from repro.dynamic import updates

    gc.enable()
    seen = []
    predicate = updates.DYNAMIC_TASKS["planarity"]

    def recording(g):
        seen.append(gc.isenabled())
        return predicate(g)

    monkeypatch.setitem(updates.DYNAMIC_TASKS, "planarity", recording)
    report = run_campaign(ChurnCampaignSpec(
        task="planarity", n=N, seed=3, n_updates=4, stream="preserving"))
    assert report.all_sound
    assert seen and not any(seen)
    assert gc.isenabled()
