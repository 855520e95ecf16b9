"""Calibrated layer-ledger benchmark for the repro certification system.

Run from the repository root::

    python3 perfbench/run.py --workload certify-n1024 --seed 1 --seconds 16 --trace 0

Workloads: ``certify-n1024``, ``soundness-n64``, ``serve-open-loop`` and
``churn-n256`` (see ``workloads.py``).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same operations alternately untraced and
traced and prints the per-layer metrics.  ``--quick`` shrinks every size to
a smoke test.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record of the
run (raw wall times, probe times, calibration factors, spans) is written
to ``perfbench/out/``.  The exit code is non-zero when any correctness gate
fails.

Every time is calibrated: the stdlib-only probe in ``probe.py`` runs just
before and just after each timed call, and the call's wall time is scaled
by ``REFERENCE_PROBE_MS / mean(probe before, probe after)``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402  (stdlib only; must not pull in repro)
import tracing  # noqa: E402
import workloads  # noqa: E402

if any(m == "repro" or m.startswith("repro.") for m in sys.modules):
    raise SystemExit("calibration guard: repro was imported before set-up")

OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("certify-n1024", "soundness-n64", "serve-open-loop", "churn-n256")
SETUP_SAMPLES = 5
#: a run measures whole cycles of its fixed input set for about --seconds,
#: but never fewer than MIN_OPS ops, so the median rests on enough samples
MIN_OPS = 12

#: serve: offered load is one request per SERVE_INTERVAL_MS at reference
#: speed (about half the serial lane's capacity), in bursts of SERVE_BURST
#: requests with a probe reading between bursts
SERVE_INTERVAL_MS = 40.0
SERVE_BURST = 20
SERVE_CLIENTS = 2

#: span key -> per-layer metric holding its self time (ms per op)
SELF_METRICS = {
    "generators": "generators.ms",
    "graphs": "graphs.ms",
    "protocols": "protocols.ms",
    "labels.pack": "labels.pack_ms",
    "protocol.coins": "protocol.coins_ms",
    "protocol.record": "protocol.record_ms",
    "protocol.checker": "protocol.checker_ms",
    "views.build": "views.build_ms",
    "columnar.kernel": "columnar.kernel_ms",
    "adversaries.mutate": "adversaries.mutate_ms",
    "runtime.overhead": "runtime.overhead_ms",
    "runtime.report": "runtime.report_ms",
    "wire.codec": "wire.codec_ms",
    "queue": "queue.ms",
    "server.loop": "server.loop_ms",
    "server.lane": "server.lane_ms",
    "dynamic.signatures": "dynamic.signatures_ms",
    "dynamic.diff": "dynamic.diff_ms",
    "dynamic.stream": "dynamic.stream_ms",
    "dynamic.driver": "dynamic.driver_ms",
}
PRIMITIVES = ("spanning_tree_verification", "forest_encoding", "multiset_equality",
              "edge_labels")

END_TO_END = {
    "setup_s": "s", "op_ms_p50": "ms", "ops_per_s": "1/s",
    "proof_bits_max": "bits", "rss_peak_mb": "MB",
}
PER_LAYER = {
    **{m: "ms" for m in SELF_METRICS.values()},
    **{f"primitives.{p}.ms": "ms" for p in PRIMITIVES},
    "graphs.calls": "count", "labels.pack_calls": "count",
    "protocol.decode_hit_ratio": "ratio", "columnar.coverage": "ratio",
    "adversaries.reject_rate": "ratio",
    "wire.frame_bytes": "bytes",
    "queue.wait_ms_p50": "ms", "queue.wait_ms_p90": "ms", "queue.depth_max": "count",
    "dynamic.changed_ratio": "ratio", "dynamic.resent_bits_mean": "bits",
    "decide_share": "ratio", "traced.op_ms": "ms", "unattributed_ms": "ms",
    "obs.trace_overhead": "ratio",
}


# -- calibration -------------------------------------------------------------


def calibrated(raw_s: float, before_ms: float, after_ms: float) -> Dict[str, float]:
    """A raw wall time, the probe readings around it, and its scaled value."""
    factor = probe.REFERENCE_PROBE_MS / ((before_ms + after_ms) / 2.0)
    return {"raw_ms": raw_s * 1000.0, "probe_before_ms": before_ms,
            "probe_after_ms": after_ms, "factor": factor,
            "calibrated_ms": raw_s * 1000.0 * factor}


class Clock:
    """Times calls one by one, each calibrated by the probes around it.

    Consecutive segments share a probe reading: the one after segment ``i``
    is the one before segment ``i + 1``.  A long call can be cut into
    segments with :meth:`split`, which a workload hooks onto a layer
    boundary inside the call; probe time is never counted.
    """

    def __init__(self, rec: Optional[tracing.Recorder] = None):
        self.rec = rec  # when tracing, probe readings are recorded as spans
        self.last = probe.probe_ms()
        self.start_op()

    def start_op(self) -> None:
        self.raw = self.cal = 0.0
        self.probes = [self.last]

    def __call__(self, fn, *args):
        self._t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close()

    def split(self) -> None:
        """End the current segment, read the probe, start the next one."""
        self._close()
        self._t0 = time.perf_counter()

    def _close(self) -> None:
        raw = time.perf_counter() - self._t0
        after = self.rec.record("probe", probe.probe_ms) if self.rec else probe.probe_ms()
        self.raw += raw
        self.cal += raw * probe.REFERENCE_PROBE_MS / ((self.last + after) / 2.0)
        self.probes.append(after)
        self.last = after

    def entry(self) -> Dict[str, Any]:
        return {"raw_ms": self.raw * 1000.0, "probe_before_ms": self.probes[0],
                "probe_after_ms": self.probes[-1], "probes_ms": self.probes,
                "factor": self.cal / self.raw if self.raw else 1.0,
                "calibrated_ms": self.cal * 1000.0}


def percentile(values: List[float], q: float) -> Optional[float]:
    """The q-quantile, only if at least ten samples lie beyond it."""
    if len(values) * (1.0 - q) < 10:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- set-up ------------------------------------------------------------------


def setup_sample(workload) -> Dict[str, Any]:
    """One timed set-up in this process: imports, warm-up ops, one gc pass."""
    clock = Clock()
    workload.setup(clock)
    clock(gc.collect)
    return clock.entry()


def child_setup_sample(args) -> Dict[str, float]:
    """A set-up in a fresh interpreter, which pays every first-call cost."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--setup-sample"] + (["--quick"] if args.quick else [])
    done = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- batch workloads ---------------------------------------------------------


class TraceSession:
    """Wrappers, span recorder and metrics registry for the traced ops."""

    def __init__(self, hooks: Optional[Dict[str, dict]] = None):
        from repro.obs import metrics as obs_metrics

        self.metrics = obs_metrics
        self.rec = tracing.Recorder()
        hooks = dict(hooks or {})
        hooks["repro.core.protocol.Interaction.decide"] = {
            "after": lambda rec, a, r: rec.count("decide.nodes", a[0].graph.n)}
        hooks["repro.service.wire.encode_message"] = {
            "after": lambda rec, a, r: rec.count("wire.frame_bytes", len(r) + 5)}
        self.wrapping = tracing.Wrapping(self.rec, hooks)
        obs_metrics.REGISTRY.reset()  # counts accumulate over every traced op

    def __enter__(self):
        self.wrapping.install()
        self._metrics_on = self.metrics.enabled_metrics(fresh=False)
        self._metrics_on.__enter__()
        return self

    def __exit__(self, *exc):
        self._metrics_on.__exit__(*exc)
        self.wrapping.restore()
        return False

    def counter(self, name: str) -> float:
        reg = self.metrics.REGISTRY
        return reg.counter(name).value() if name in reg.names() else 0.0


def run_batch(workload, args, report: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Timed ops over whole cycles of the fixed input set."""
    session = TraceSession() if args.trace else None
    k = len(workload.seeds)
    keys = [workload.seeds[(args.seed + j) % k] for j in range(k)]
    ops: List[Dict[str, Any]] = []
    first_exact: Dict[int, dict] = {}
    clock = Clock()
    cycle, cycles = 0, None
    while cycles is None or cycle < cycles:
        for j, key in enumerate(keys):
            modes = [False]
            if args.trace:
                modes = [False, True] if (j + cycle) % 2 == 0 else [True, False]
            for traced in modes:
                op_id = len(ops)
                clock.start_op()
                try:
                    if traced:
                        session.rec.set_op(op_id)
                        clock.rec = session.rec
                        with session:
                            result = workload.op(key, clock)
                        clock.rec = None
                        session.rec.set_op(None)
                    else:
                        result = workload.op(key, clock)
                except Exception as exc:  # a crashed op is a failed op
                    result = workloads.OpResult(False, repr(exc))
                entry = {"op": op_id, "input": key, "cycle": cycle, "traced": traced,
                         **clock.entry(), "ok": result.ok, "why": result.why}
                if result.ok:
                    if key not in first_exact:
                        first_exact[key] = result.exact
                    elif result.exact != first_exact[key]:
                        entry.update(ok=False, why=f"exact facts of input {key} changed "
                                                   f"between cycles")
                ops.append(entry)
        cycle += 1
        if cycles is None:  # whole cycles only, a fixed number per run length
            per_cycle = workload.cycle_s * (2 if args.trace else 1)
            floor = 1 if args.trace else -(-MIN_OPS // k)  # traced runs pair ops
            cycles = 1 if args.quick else max(floor, round(args.seconds / per_cycle))
    report["exact"] = (workloads.exact_metrics([first_exact[s] for s in keys])
                       if len(first_exact) == k else {})
    report["exact_inputs"] = first_exact
    report["session"] = session
    return ops


# -- the service workload ----------------------------------------------------


def serve_burst(serve, address, jobs, tag: str, rec=None) -> Dict[int, tuple]:
    """Send ``jobs`` (op, seed, due) on schedule from two client threads."""
    results: Dict[int, tuple] = {}
    lock = threading.Lock()
    pending = iter(jobs)

    def client_loop(cid: int) -> None:
        client = serve.client_cls(address, client_id=f"perfbench-{cid}", timeout=60.0)
        while True:
            with lock:
                job = next(pending, None)
            if job is None:
                return
            op_id, seed, due = job
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            if rec is not None:
                rec.set_op(op_id)
            try:
                result = serve.request(client, seed, f"pb-{tag}-{op_id}")
            except Exception as exc:  # a crashed request is a failed request
                result = workloads.OpResult(False, repr(exc))
            results[op_id] = (due, sent, time.perf_counter(), result)

    threads = [threading.Thread(target=client_loop, args=(c,))
               for c in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def run_serve(serve, args, report: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Open-loop bursts; each burst is calibrated by the probes around it."""
    k = len(serve.seeds)
    burst_size = 2 if args.quick else SERVE_BURST
    session = server = thread = None
    op_by_id: Dict[str, int] = {}
    queue: Dict[str, Any] = {"offered": {}, "waits": {}, "depth_max": 0}
    if args.trace:
        session = TraceSession(_serve_hooks(op_by_id, queue))
        from repro.service.server import ProofServer

        before = probe.probe_ms()  # no program thread is alive yet
        server = ProofServer(port=0, backend="serial")
        thread = threading.Thread(target=server.run, name="perfbench-server")
        thread.start()
        if not server.wait_ready(30.0):
            raise RuntimeError("in-process server did not start")
        address = server.address
        for i, seed in enumerate(serve.seeds):
            warm = serve.request(serve.client_cls(address), seed, f"warm-{i}")
            if not warm.ok:
                raise RuntimeError(f"warm-up request failed: {warm.why}")
    else:
        address = report["server"].address
        before = probe.probe_ms()
    ops: List[Dict[str, Any]] = []
    start = time.perf_counter()
    n_bursts = 0
    while True:
        traced = bool(args.trace) and n_bursts % 2 == 1
        interval = SERVE_INTERVAL_MS / 1000.0 * before / probe.REFERENCE_PROBE_MS
        t_first = time.perf_counter() + 0.005
        jobs = []
        for j in range(burst_size):
            op_id = len(ops) + j
            seed = serve.seeds[(args.seed + op_id) % k]
            op_by_id[f"pb-{args.seed}-{op_id}"] = op_id
            jobs.append((op_id, seed, t_first + j * interval))
        if traced:
            with session:
                results = serve_burst(serve, address, jobs, str(args.seed), session.rec)
        else:
            results = serve_burst(serve, address, jobs, str(args.seed))
        after = before if args.trace else probe.probe_ms()
        span = max(r[2] for r in results.values()) - t_first
        for op_id, seed, due in jobs:
            due, sent, done, result = results[op_id]
            ops.append({"op": op_id, "input": seed, "burst": n_bursts, "traced": traced,
                        **calibrated(done - due, before, after),
                        "late_ms": (sent - due) * 1000.0, "burst_raw_s": span,
                        "ok": result.ok, "why": result.why})
        before = after
        n_bursts += 1
        if (time.perf_counter() - start >= args.seconds
                and (not args.trace or n_bursts >= 2)) or args.quick and n_bursts >= 2:
            break
    if args.trace:
        server.request_drain()
        thread.join(60.0)
        after = probe.probe_ms()
        for entry in ops:  # one calibration for the whole in-process run
            entry.update(calibrated(entry["raw_ms"] / 1000.0, entry["probe_before_ms"],
                                    after))
    report["exact"] = dict(serve.exact)
    report["session"] = session
    report["queue"] = queue
    return ops


def _serve_hooks(op_by_id: Dict[str, int], queue: Dict[str, Any]) -> Dict[str, dict]:
    def job_op(index):
        return lambda a: op_by_id.get(a[index].id)

    def offered(rec, a, position):
        job = a[2]
        rec.tag_open(op_by_id.get(job.id))
        queue["offered"][job.id] = time.perf_counter()
        queue["depth_max"] = max(queue["depth_max"], position or 0)

    def dispatched(rec, a, job):
        if job is not None and job.id in queue["offered"]:
            wait = time.perf_counter() - queue["offered"].pop(job.id)
            queue["waits"][op_by_id.get(job.id)] = wait

    return {
        "repro.service.queue.FairQueue.offer": {"op_of": job_op(2), "after": offered},
        "repro.service.queue.FairQueue.next": {"after": dispatched},
        "repro.service.server.ProofServer._execute": {"op_of": job_op(1)},
        "repro.service.server.ProofServer._finish": {"op_of": job_op(1)},
    }


def serve_setup(serve, args, report: Dict[str, Any]) -> List[Dict[str, float]]:
    """Build the local references, start the server and warm it over every
    seed; keep the last server."""
    if args.trace:  # the traced run serves in-process (see run_serve)
        serve.prepare()
        return []
    samples = []
    for i in range(1 if args.quick else SETUP_SAMPLES):
        clock = Clock()
        clock(serve.prepare)
        server = clock(workloads.ServerProcess)
        try:
            for j, seed in enumerate(serve.seeds):
                result = clock(serve.request, serve.client_cls(server.address), seed,
                               f"warm-{i}-{j}")
                if not result.ok:
                    raise RuntimeError(f"warm-up request failed: {result.why}")
        except BaseException:
            server.stop()
            raise
        samples.append(clock.entry())
        if report.get("server") is not None:
            report["server"].stop()
        report["server"] = server
    gc.collect()
    return samples


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(ops, report) -> Dict[str, float]:
    """Per-layer self times per traced op, plus counts and ratios."""
    session = report["session"]
    rec = session.rec
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    n = len(traced)
    selfs = tracing.self_times(rec)
    events = tracing.event_totals(rec)
    calls: Dict[Any, Dict[str, int]] = {}
    for span in rec.spans:
        op = tracing.resolve_op(span)
        per = calls.setdefault(op, {})
        per[span.key] = per.get(span.key, 0) + 1
    out = {name: 0.0 for name in PER_LAYER}
    for o in traced:
        f = o["factor"]
        for key, secs in selfs.get(o["op"], {}).items():
            if key == "probe":
                continue
            ms = secs * 1000.0 * f / n
            if key.startswith("primitives."):
                out[key + ".ms"] += ms
                out["protocols.ms"] += ms
            else:
                out[SELF_METRICS[key]] += ms
        per_calls = calls.get(o["op"], {})
        out["graphs.calls"] += per_calls.get("graphs", 0) / n
        out["labels.pack_calls"] += per_calls.get("labels.pack", 0) / n
        out["wire.frame_bytes"] += events.get(o["op"], {}).get("wire.frame_bytes", 0) / n
    decided = sum(e.get("decide.nodes", 0) for e in events.values())
    out["columnar.coverage"] = (session.counter("repro_vector_decide_nodes_total") / decided
                                if decided else 0.0)
    hits = session.counter("repro_decode_cache_hits_total")
    misses = session.counter("repro_decode_cache_misses_total")
    out["protocol.decode_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    exact = report["exact"]
    out["adversaries.reject_rate"] = exact.get("reject_rate", 0.0)
    out["dynamic.changed_ratio"] = exact.get("changed_ratio", 0.0)
    out["dynamic.resent_bits_mean"] = exact.get("resent_bits_mean", 0.0)
    queue = report.get("queue")
    if queue:
        waits = [queue["waits"][o["op"]] * 1000.0 * o["factor"] for o in traced
                 if o["op"] in queue["waits"]]
        if waits:
            out["queue.wait_ms_p50"] = statistics.median(waits)
            out["queue.wait_ms_p90"] = percentile(waits, 0.9) or max(waits)
        out["queue.depth_max"] = float(queue["depth_max"])
    op_ms = statistics.fmean(o["calibrated_ms"] for o in traced)
    layer_sum = sum(out[m] for m in SELF_METRICS.values())
    out["traced.op_ms"] = op_ms
    out["unattributed_ms"] = op_ms - layer_sum
    out["decide_share"] = (out["views.build_ms"] + out["protocol.checker_ms"]
                           + out["columnar.kernel_ms"]) / op_ms
    out["obs.trace_overhead"] = (statistics.median(o["calibrated_ms"] for o in traced)
                                 / statistics.median(o["calibrated_ms"] for o in plain))
    report["calls"] = dict(sorted(rec.calls.items(), key=lambda kv: -kv[1]))
    t0 = min((s.start for s in rec.spans), default=0.0)
    report["spans"] = [[s.key, round((s.start - t0) * 1e6), round((s.end - t0) * 1e6),
                        tracing.resolve_op(s)] for s in rec.spans]
    return out


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and one cycle: a smoke test of every gate")
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(workloads.SRC, "repro")):
        print(f"no program source at {workloads.SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, workloads.SRC)

    if args.workload == "serve-open-loop":
        workload = workloads.Serve(args.quick)
    else:
        workload = workloads.BATCH_WORKLOADS[args.workload](args.quick)
    if args.setup_sample:
        print(json.dumps(setup_sample(workload)))
        return 0

    report: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "quick": args.quick,
                              "reference_probe_ms": probe.REFERENCE_PROBE_MS}
    try:
        if args.workload == "serve-open-loop":
            setups = serve_setup(workload, args, report)
            ops = run_serve(workload, args, report)
            rss = (report["server"].rss_peak_mb() if "server" in report
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        else:
            setups = []
            if not (args.quick or args.trace):
                setups = [child_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
            setups.append(setup_sample(workload))
            ops = run_batch(workload, args, report)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if report.get("server") is not None:
            report.pop("server").stop()

    failed = [o for o in ops if not o["ok"]]
    timed = [o["calibrated_ms"] for o in ops if not o["traced"]]
    probes = [o["probe_before_ms"] for o in ops] + [ops[-1]["probe_after_ms"]]
    gates_ok = not failed and "proof_bits_max" in report["exact"]
    if args.workload == "serve-open-loop" and not args.trace:
        bursts: Dict[int, tuple] = {}
        for o in ops:
            bursts[o["burst"]] = (o["burst_raw_s"], o["factor"])
        busy_s = sum(raw * f for raw, f in bursts.values())
    else:
        busy_s = sum(timed) / 1000.0
    end_to_end = {
        "setup_s": statistics.median(s["calibrated_ms"] for s in setups) / 1000.0
        if setups else 0.0,
        "op_ms_p50": statistics.median(timed),
        "ops_per_s": len(timed) / busy_s,
        "proof_bits_max": float(report["exact"].get("proof_bits_max", 0)),
        "rss_peak_mb": rss,
    }
    extras = {
        "op_ms_p90": percentile(timed, 0.9),
        "error_rate": len(failed) / len(ops),
        "reject_rate": report["exact"].get("reject_rate"),
        "resent_bits_mean": report["exact"].get("resent_bits_mean"),
        "raw_op_ms_p50": statistics.median(o["raw_ms"] for o in ops if not o["traced"]),
        "probe_ms_median": statistics.median(probes),
        "ops": len(timed),
    }
    if args.workload == "serve-open-loop":
        extras["late_ms_mean"] = statistics.fmean(o["late_ms"] for o in ops)
        extras["late_ms_max"] = max(o["late_ms"] for o in ops)
    if args.trace:
        metrics = layer_metrics(ops, report)
        units = PER_LAYER
    else:
        metrics, units = end_to_end, END_TO_END
    report.pop("session", None)
    report.update(setups=setups, ops=ops, extras=extras, metrics=metrics)

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, value in extras.items():
        if value is not None:
            print(f"{args.workload} [detail] {name} = {value:.6g}")
    for o in failed[:10]:
        print(f"{args.workload} GATE FAILED op {o['op']}: {o['why']}")
    if not report["exact"]:
        print(f"{args.workload} GATE FAILED: no full cycle of the fixed input set")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = report.pop("spans", None)
    if spans is not None:  # [layer key, start us, end us, op], run-relative
        with open(stem + "-spans.json", "w") as fh:
            json.dump(spans, fh, separators=(",", ":"))
    out_path = stem + ".json"
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(f"{args.workload} details written to {os.path.relpath(out_path, workloads.ROOT)}")
    print(json.dumps({
        "correct": gates_ok,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if gates_ok else 1


if __name__ == "__main__":
    sys.exit(main())
