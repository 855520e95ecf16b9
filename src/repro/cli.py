"""Command-line interface: run any protocol on a generated or supplied graph.

    python -m repro run path-outerplanarity --n 256 --seed 7
    python -m repro run planarity --n 200 --no-instance
    python -m repro sweep outerplanarity --ns 64,256,1024 --workers 4
    python -m repro batch planarity --runs 10000 --n 128 --workers 8
    python -m repro trace path_outerplanarity --n 64 --runs 3
    python -m repro batch planarity --runs 200 --journal runs.journal.jsonl
    python -m repro fuzz --task treewidth2 --round 3 --trials 60
    python -m repro attack --n 1024 --bits 6
    python -m repro run planarity --edges graph.txt   # one "u v" pair per line
    python -m repro serve --port 7080 --backend process --workers 2
    python -m repro submit planarity --connect 127.0.0.1:7080 --runs 200

``serve`` runs the long-lived proof service (``repro.service``): bounded
admission queue with BUSY backpressure, per-client fairness, idempotent
request ids, and graceful drain on SIGTERM (exit 0).  ``submit`` is the
matching client; exit codes: 0 ok, 1 failed/unsound, 2 usage, 3 busy,
4 draining.

``sweep`` and ``batch`` accept ``--workers k`` to shard runs over ``k``
worker processes via ``repro.runtime.BatchRunner``; results are identical
to ``--workers 0`` (serial) for the same seed, because run ``i`` always
draws from the stream ``SeedSequence(seed).child(i)``.

Both also accept ``--backend`` to pick *where* the runs execute
(``serial``, ``process``, or ``remote:host:port`` — see
``repro.runtime.backends``); every backend produces byte-identical
canonical reports.  A remote coordinator waits for agents started on
any reachable machine::

    python -m repro batch planarity --runs 10000 \\
        --backend remote:0.0.0.0:7077 --min-workers 2
    # on each worker box:
    python -m repro worker --connect coordinator-host:7077

Both subcommands also expose the resilience layer::

    python -m repro batch planarity --runs 200 --failure-policy degrade \\
        --run-timeout 5 --max-retries 2 \\
        --inject-faults rate=0.1,kinds=raise|hang,seed=7

``--failure-policy retry`` retries failed runs (runs that succeed after
retries are byte-identical to the fault-free serial reference);
``degrade`` returns a partial report plus a failure table and still
exits 0; ``strict`` (the default) aborts on the first failure with a
non-zero exit.  ``--inject-faults`` installs a deterministic chaos plan
(see ``repro.runtime.faults.FaultPlan.from_spec``).

Observability (``repro.obs``): ``trace`` runs a task with the
round-level tracer installed and prints the per-round bits x time
table; ``--journal PATH`` on ``batch``/``sweep`` enables tracing,
streams a JSONL event journal to PATH, and prints the same table.
Neither changes any canonical result.

Exit status is 0 when the verdict matches the instance (accepted
yes-instance / rejected no-instance), 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Optional

from .analysis.experiments import run_batch, size_sweep
from .core.network import Graph, norm_edge
from .graphs.generators import random_nonplanar
from .protocols.instances import PathOuterplanarInstance
from .runtime import registry
from .runtime.faults import FaultPlan
from .runtime.resilience import FAILURE_POLICIES


def _add_resilience_args(parser) -> None:
    """The shared resilience flags of the ``batch`` and ``sweep`` subcommands."""
    parser.add_argument(
        "--failure-policy", choices=FAILURE_POLICIES, default="strict",
        help="strict: first failure aborts (default); retry: retry failed "
             "runs; degrade: partial report + failure table, exit 0",
    )
    parser.add_argument(
        "--run-timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock deadline (default: none)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="retry budget per run under retry/degrade (default: 2)",
    )
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic chaos plan, e.g. "
             "'rate=0.1,kinds=raise|hang|kill,seed=7,fires=1' or "
             "'at=3:raise+9:kill:inf' (see FaultPlan.from_spec)",
    )


def _add_backend_args(parser) -> None:
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend: serial, process, or remote[:host:port] "
             "(default: picked from --workers); canonical results are "
             "byte-identical on every backend",
    )
    parser.add_argument(
        "--min-workers", type=int, default=None, metavar="K",
        help="remote backend: wait for K registered worker agents before "
             "dispatching (default: max(1, --workers))",
    )


def _resolve_cli_backend(args):
    """``(backend, error)`` from ``--backend``; backend is None for default.

    The caller owns the returned backend's lifecycle (``close()`` it).
    """
    if not getattr(args, "backend", None):
        return None, None
    from .runtime.backends import resolve_backend

    workers = args.workers
    if args.backend.partition(":")[0].strip().lower() == "remote":
        if args.min_workers is not None:
            workers = args.min_workers
        workers = max(1, workers)
    try:
        backend = resolve_backend(args.backend, workers=workers)
    except (ValueError, OSError) as exc:
        return None, f"bad --backend: {exc}"
    connect = getattr(backend, "connect_spec", None)
    if connect is not None:
        print(f"remote coordinator listening on {connect}; start agents "
              f"with: python -m repro worker --connect {connect}")
    return backend, None


def _parse_fault_plan(args):
    """``(plan, error)`` from ``--inject-faults``; error is a usage string."""
    if not args.inject_faults:
        return None, None
    try:
        return FaultPlan.from_spec(args.inject_faults), None
    except ValueError as exc:
        return None, f"bad --inject-faults spec: {exc}"


def _add_journal_arg(parser) -> None:
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="enable round-level tracing, stream a JSONL event journal "
             "to PATH, and print the per-round bits x time table",
    )


def _open_journal(args):
    """A Journal bound to ``--journal PATH``, or None."""
    if not getattr(args, "journal", None):
        return None
    from .obs.journal import Journal

    return Journal(args.journal)


def _print_journal_tables(journal) -> None:
    from .analysis.trace_report import format_journal_tables

    print()
    print(format_journal_tables(journal))
    print(f"journal:     {journal.path} ({len(journal)} events)")


def _cli_path_outerplanarity_no(n: int, rng: random.Random) -> PathOuterplanarInstance:
    """Historical CLI no-instance for path-outerplanarity: non-planar."""
    return PathOuterplanarInstance(random_nonplanar(n, rng))


#: CLI task name -> (protocol class, yes factory, no factory, instance class)
def _tasks():
    out = {}
    for cli_name, reg_name in [
        ("path-outerplanarity", "path_outerplanarity"),
        ("outerplanarity", "outerplanarity"),
        ("planar-embedding", "planar_embedding"),
        ("planarity", "planarity"),
        ("series-parallel", "series_parallel"),
        ("treewidth-2", "treewidth2"),
    ]:
        spec = registry.get_task(reg_name)
        no_factory = spec.no_factory
        if cli_name == "path-outerplanarity":
            no_factory = _cli_path_outerplanarity_no
        instance_cls = spec.instance_cls if cli_name != "planar-embedding" else None
        out[cli_name] = (spec.protocol, spec.yes_factory, no_factory, instance_cls)
    return out


def _load_graph(path: str) -> Graph:
    edges = []
    seen = set()
    max_node = -1
    with open(path) as f:
        for line in f:
            line = line.split("#")[0].strip()
            if not line:
                continue
            u, v = (int(x) for x in line.split()[:2])
            if norm_edge(u, v) in seen:  # edge lists repeat both directions
                continue
            seen.add(norm_edge(u, v))
            edges.append((u, v))
            max_node = max(max_node, u, v)
    return Graph(max_node + 1, edges)


def cmd_run(args) -> int:
    tasks = _tasks()
    if args.task not in tasks:
        print(f"unknown task {args.task}; choose from {sorted(tasks)}")
        return 2
    proto_cls, yes_factory, no_factory, instance_cls = tasks[args.task]
    rng = random.Random(args.seed)
    if args.edges:
        if instance_cls is None:
            print("this task needs a rotation system; use a generated instance")
            return 2
        instance = instance_cls(_load_graph(args.edges))
        expect: Optional[bool] = None
    elif args.no_instance:
        if no_factory is None:
            print("no built-in no-instance generator for this task")
            return 2
        instance = no_factory(args.n, rng)
        expect = False
    else:
        instance = yes_factory(args.n, rng)
        expect = True
    protocol = proto_cls(c=args.c)
    result = protocol.execute(instance, rng=random.Random(args.seed + 1))
    print(f"task:        {args.task}")
    print(f"nodes/edges: {instance.graph.n} / {instance.graph.m}")
    print(f"verdict:     {'accept' if result.accepted else 'reject'}")
    print(f"rounds:      {result.n_rounds}")
    print(f"proof size:  {result.proof_size_bits} bits")
    if not result.accepted:
        shown = result.rejecting_nodes[:8]
        print(f"rejecting:   {len(result.rejecting_nodes)} nodes, e.g. {shown}")
    if expect is None:
        return 0
    return 0 if result.accepted == expect else 1


def cmd_sweep(args) -> int:
    tasks = _tasks()
    if args.task not in tasks:
        print(f"unknown task {args.task}; choose from {sorted(tasks)}")
        return 2
    proto_cls, yes_factory, _, _ = tasks[args.task]
    ns = [int(x) for x in args.ns.split(",")]
    plan, plan_err = _parse_fault_plan(args)
    if plan_err:
        print(plan_err)
        return 2
    backend, backend_err = _resolve_cli_backend(args)
    if backend_err:
        print(backend_err)
        return 2
    journal = _open_journal(args)
    try:
        data = size_sweep(
            proto_cls(c=args.c),
            yes_factory,
            ns,
            seed=args.seed,
            repeats=args.repeats,
            workers=args.workers,
            failure_policy=args.failure_policy,
            run_timeout=args.run_timeout,
            max_retries=args.max_retries,
            fault_plan=plan,
            journal=journal,
            backend=backend,
        )
    except RuntimeError as exc:
        print(f"sweep aborted ({args.failure_policy} policy): {exc}")
        return 1
    finally:
        if backend is not None:
            backend.close()
        if journal is not None:
            journal.close()
    failed = data.get("failed_runs", [0] * len(ns))
    print(f"{'n':>8} | {'proof bits':>10} | rounds")
    for n, s, r, k in zip(data["ns"], data["sizes"], data["rounds"], failed):
        note = f"  ({k} runs failed)" if k else ""
        print(f"{n:>8} | {s:>10} | {r}{note}")
    if "log_fit" in data:
        print(f"fit vs log2(n):       {data['log_fit']}")
        print(f"fit vs log2(log2 n):  {data['loglog_fit']}")
    if journal is not None:
        _print_journal_tables(journal)
    return 0


def cmd_batch(args) -> int:
    try:
        named = registry.resolve_batch(
            args.task, no_instance=args.no_instance, adversary=args.adversary or None
        )
    except registry.UnnamedBatchError as exc:
        print(exc)
        return 2
    plan, plan_err = _parse_fault_plan(args)
    if plan_err:
        print(plan_err)
        return 2
    backend, backend_err = _resolve_cli_backend(args)
    if backend_err:
        print(backend_err)
        return 2
    journal = _open_journal(args)
    try:
        report = run_batch(
            named.spec.protocol(c=args.c),
            named.factory,
            n_runs=args.runs,
            n=args.n,
            seed=args.seed,
            prover_factory=named.prover_factory,
            workers=args.workers,
            failure_policy=args.failure_policy,
            run_timeout=args.run_timeout,
            max_retries=args.max_retries,
            fault_plan=plan,
            journal=journal,
            backend=backend,
        )
    except ValueError as exc:
        print(f"bad batch parameters: {exc}")
        return 2
    except RuntimeError as exc:
        # strict abort on a fault/timeout, or an exhausted retry budget
        print(f"batch aborted ({args.failure_policy} policy): {exc}")
        return 1
    finally:
        if backend is not None:
            backend.close()
        if journal is not None:
            journal.close()
    print(report.summary())
    lo, hi = report.rejection_wilson_95()
    print(f"rejection:   {report.rejection_rate:.4f}  Wilson 95% [{lo:.4f}, {hi:.4f}]")
    if report.cache_stats:
        print(f"cache:       {report.cache_stats}")
    if report.failures:
        print(f"\n{report.n_failed} of {report.n_runs} runs failed "
              f"(policy {report.failure_policy}):")
        print(report.failure_table())
    if args.json:
        payload = report.canonical_dict()
        payload["timing"] = {
            "wall_clock_total": report.wall_clock_total,
            "wall_time_per_run": report.wall_time_per_run,
            "workers": report.workers,
        }
        payload["failure_policy"] = report.failure_policy
        payload["failures"] = [rec.as_dict() for rec in report.failures]
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
        print(f"report:      {args.json}")
    if journal is not None:
        _print_journal_tables(journal)
    if named.expect_accept:
        return 0 if report.acceptance_rate == 1.0 else 1
    return 0


def cmd_trace(args) -> int:
    from .analysis.trace_report import trace_task
    from .obs import metrics as obs_metrics

    if args.metrics:
        obs_metrics.enable()
    try:
        report, cost = trace_task(
            args.task,
            n=args.n,
            seed=args.seed,
            runs=args.runs,
            c=args.c,
            workers=args.workers,
        )
    except KeyError as exc:
        print(exc.args[0])
        return 2
    print(cost.format_table())
    if args.json:
        with open(args.json, "w") as f:
            json.dump(cost.to_dict(), f, indent=2, sort_keys=True)
        print(f"report: {args.json}")
    if args.metrics:
        print()
        print(obs_metrics.REGISTRY.render(), end="")
    if report.acceptance_rate != 1.0:
        print("FAIL: honest traced runs did not all accept")
        return 1
    return 0


def cmd_fuzz(args) -> int:
    from .adversaries.mutation import MUTATION_OPS
    from .analysis.fuzz_coverage import fuzz_coverage
    from .runtime.registry import FUZZ_ROUNDS

    if args.round == "all":
        rounds = list(FUZZ_ROUNDS)
    else:
        try:
            rounds = [int(args.round)]
        except ValueError:
            print(f"bad --round {args.round!r}: expected one of 1/3/5 or 'all'")
            return 2
        if rounds[0] not in FUZZ_ROUNDS:
            print(f"bad --round {rounds[0]}: prover rounds are {FUZZ_ROUNDS}")
            return 2
    if args.op != "random" and args.op not in MUTATION_OPS:
        print(f"unknown --op {args.op!r}; choose from {MUTATION_OPS} or 'random'")
        return 2
    try:
        report = fuzz_coverage(
            args.task,
            rounds=rounds,
            n=args.n,
            trials=args.trials,
            seed=args.seed,
            op=args.op,
            workers=args.workers,
        )
    except KeyError as exc:
        print(exc.args[0])
        return 2
    print(report.format_table())
    if args.json:
        with open(args.json, "w") as f:
            f.write(report.to_json(indent=2))
        print(f"report: {args.json}")
    if not report.honest_ok:
        print("FAIL: honest control runs did not all accept")
        return 1
    return 0


def cmd_worker(args) -> int:
    from .runtime.remote import RemoteProtocolError, parse_address, serve_worker

    address = args.connect
    try:
        # validate eagerly so a typo is a usage error, not a silent retry loop
        parse_address(address)
    except ValueError as exc:
        print(exc)
        return 2
    print(f"worker {os.getpid()} connecting to {address} ...")
    try:
        status = serve_worker(
            address,
            connect_timeout=args.connect_timeout,
            reconnect=args.reconnect,
            max_reconnects=args.max_reconnects,
            reconnect_seed=args.reconnect_seed,
        )
    except RemoteProtocolError as exc:
        print(f"coordinator at {address} broke the worker protocol "
              f"({type(exc).__name__}): {exc}")
        return 1
    if status != 0:
        print(f"could not reach a coordinator at {address} "
              f"within {args.connect_timeout}s")
    return status


def cmd_serve(args) -> int:
    import threading

    from .service.server import ProofServer

    try:
        server = ProofServer(
            host=args.host,
            port=args.port,
            backend=args.backend or "serial",
            workers=args.workers,
            queue_limit=args.queue_limit,
            io_timeout=args.io_timeout,
            drain_timeout=args.drain_timeout,
            journal_path=args.journal,
        )
    except ValueError as exc:
        print(f"bad serve parameters: {exc}")
        return 2

    def _announce() -> None:
        if server.wait_ready(30.0):
            print(
                f"proof server listening on {server.host}:{server.bound_port} "
                f"(backend {args.backend or 'serial'}, queue limit "
                f"{args.queue_limit}); submit with: python -m repro submit "
                f"--connect {server.host}:{server.bound_port} <task>",
                flush=True,
            )

    threading.Thread(target=_announce, daemon=True).start()
    # SIGTERM/SIGINT begin a graceful drain: finish in-flight + queued,
    # reject new requests with a typed frame, flush journals, exit 0
    status = server.run(install_signal_handlers=True)
    if server.drain_duration is not None:
        print(f"drained clean in {server.drain_duration:.2f}s "
              f"({server.stats['completed']} completed, "
              f"{server.stats['failed']} failed, "
              f"{server.stats['rejected_busy']} busy-rejected)", flush=True)
    return status


def cmd_submit(args) -> int:
    from .service.client import RequestFailed, ServiceClient, ServiceUnavailable

    client = ServiceClient(args.connect, client_id=args.client)
    try:
        request = client.build_request(
            args.task,
            runs=args.runs,
            n=args.n,
            seed=args.seed,
            c=args.c,
            no_instance=args.no_instance,
            adversary=args.adversary,
            failure_policy=args.failure_policy,
            run_timeout=args.run_timeout,
            max_retries=args.max_retries,
            inject_faults=args.inject_faults,
            stream=args.stream,
            request_id=args.request_id,
        )
    except ValueError as exc:
        print(f"bad request: {exc}")
        return 2
    try:
        result = client.submit_request(request)
    except ServiceUnavailable as exc:
        if exc.kind == "busy":
            hint = f"; retry after {exc.retry_after}s" if exc.retry_after else ""
            print(f"service busy (queue full){hint}")
            return 3
        print("service is draining; resubmit to the next instance")
        return 4
    except RequestFailed as exc:
        print(f"request {request['id']} failed ({exc.fault}): {exc.error}")
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach service at {args.connect}: {exc}")
        return 2
    print(result.summary)
    if result.degraded:
        print(f"{len(result.failures)} of {request['runs']} runs failed "
              f"(policy {request['failure_policy']})")
    if args.stream:
        print(f"events:      {len(result.events)} streamed")
        if not result.events and result.ack_status == "replay":
            # the id names a finished unstreamed job, whose frames replay
            print(f"request {request['id']} replayed an earlier unstreamed "
                  "run, so no events were kept; resubmit with a fresh "
                  "--request-id to stream them")
    if args.json:
        payload = {
            "request": request,
            "report": result.report,
            "events": result.events,
            "ack_status": result.ack_status,
            "ok": result.ok,
            "degraded": result.degraded,
            "failures": result.failures,
            "meta": result.meta,
        }
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
        print(f"report:      {args.json}")
    return 0 if result.ok else 1


def cmd_dynamic(args) -> int:
    from .dynamic import DYNAMIC_TASKS, ChurnCampaignSpec, run_campaign
    from .obs.journal import Journal

    task = registry.canonical_name(args.task)
    if task not in DYNAMIC_TASKS:
        print(
            f"task {args.task!r} does not support dynamic certification; "
            f"choose from {sorted(DYNAMIC_TASKS)}"
        )
        return 2
    spec = ChurnCampaignSpec(
        task=task,
        n=args.n,
        seed=args.seed,
        n_updates=args.updates,
        stream=args.stream,
        c=args.c,
    )
    if args.connect:
        return _dynamic_over_service(args, spec)
    journal = Journal(args.journal) if args.journal else None
    try:
        report = run_campaign(
            spec,
            workers=args.workers,
            chunk_size=args.chunk,
            verify_full=args.verify_full,
            journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
    print(report.summary())
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report.canonical_dict(), f, indent=2, sort_keys=True)
        print(f"report:      {args.json}")
    return 0 if report.all_sound else 1


def _dynamic_over_service(args, spec) -> int:
    """Drive the same campaign through a live server's UPDATE path."""
    from .dynamic import campaign_stream, initial_graph
    from .service.client import RequestFailed, ServiceClient, ServiceUnavailable

    client = ServiceClient(args.connect, client_id="cli-dynamic")
    stream = campaign_stream(spec, initial_graph(spec))
    try:
        target = client.submit(
            spec.task, runs=1, n=spec.n, seed=spec.seed, c=spec.c
        )
        result = client.submit_update(target.id, [u for u, _ in stream])
    except ServiceUnavailable as exc:
        print(f"service {exc.kind}; retry later")
        return 3 if exc.kind == "busy" else 4
    except RequestFailed as exc:
        print(f"update failed ({exc.fault}): {exc.error}")
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach service at {args.connect}: {exc}")
        return 2
    print(result.summary)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(result.report, f, indent=2, sort_keys=True)
        print(f"report:      {args.json}")
    return 0 if result.ok else 1


def cmd_attack(args) -> int:
    from .lowerbound import CutAndPasteAttack, TruncatedPositionScheme
    from .lowerbound.cut_and_paste import views_preserved

    attack = CutAndPasteAttack(args.n)
    result = attack.run(TruncatedPositionScheme(args.bits), random.Random(args.seed))
    if result is None:
        print(
            f"no surgery found at {args.bits}-bit labels on C_{args.n} "
            f"(need ~log2(n) = {args.n.bit_length() - 1} bits to resist)"
        )
        return 1
    print(
        f"surgery found on C_{args.n} with {args.bits}-bit labels: "
        f"spliced at edges ({result.i}, {result.i + 1}) and "
        f"({result.j}, {result.j + 1})"
    )
    print(f"views preserved: {views_preserved(result, args.n)}")
    print(f"result is two disjoint cycles: {not result.graph.is_connected()}")
    return 0


def main(argv=None) -> int:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed interactive proofs for planarity (Gil & Parter, PODC 2025)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one protocol on one instance")
    p_run.add_argument("task")
    p_run.add_argument("--n", type=int, default=256)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--c", type=int, default=2, help="soundness constant")
    p_run.add_argument("--no-instance", action="store_true")
    p_run.add_argument("--edges", help="edge-list file: one 'u v' per line")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="proof-size sweep over n")
    p_sweep.add_argument("task")
    p_sweep.add_argument("--ns", default="64,256,1024")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--c", type=int, default=2)
    p_sweep.add_argument("--repeats", type=int, default=2)
    p_sweep.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0 = serial; same results either way)",
    )
    _add_resilience_args(p_sweep)
    _add_backend_args(p_sweep)
    _add_journal_arg(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_batch = sub.add_parser(
        "batch", help="aggregated batch of runs (soundness/completeness estimation)"
    )
    p_batch.add_argument("task", help=f"one of {', '.join(registry.task_names())}")
    p_batch.add_argument("--runs", type=int, default=1000)
    p_batch.add_argument("--n", type=int, default=128)
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument("--c", type=int, default=2, help="soundness constant")
    p_batch.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0 = serial; same results either way)",
    )
    p_batch.add_argument("--no-instance", action="store_true")
    p_batch.add_argument(
        "--adversary", help="named cheating prover from the task's registry entry"
    )
    p_batch.add_argument("--json", help="write canonical report + timing to this file")
    _add_resilience_args(p_batch)
    _add_backend_args(p_batch)
    _add_journal_arg(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_trace = sub.add_parser(
        "trace",
        help="round-level trace: per-round bits x time table for one task",
    )
    p_trace.add_argument("task", help=f"one of {', '.join(registry.task_names())}")
    p_trace.add_argument("--n", type=int, default=64)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--c", type=int, default=2, help="soundness constant")
    p_trace.add_argument("--runs", type=int, default=3,
                         help="traced honest runs to aggregate (default: 3)")
    p_trace.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0 = serial; same results either way)",
    )
    p_trace.add_argument("--json", help="write the aggregated breakdown to this file")
    p_trace.add_argument(
        "--metrics", action="store_true",
        help="also print the Prometheus-style metrics registry",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="single-field label fuzzing: per-field checker-coverage matrix",
    )
    p_fuzz.add_argument("--task", required=True,
                        help=f"one of {', '.join(registry.task_names())}")
    p_fuzz.add_argument("--round", default="all",
                        help="prover round to mutate: 1, 3, 5, or 'all'")
    p_fuzz.add_argument("--n", type=int, default=64)
    p_fuzz.add_argument("--trials", type=int, default=40,
                        help="mutated runs per round (plus one honest control batch)")
    p_fuzz.add_argument("--seed", type=int, default=2025)
    p_fuzz.add_argument("--op", default="random",
                        help="mutation operator: bit_flip, rerandomize, "
                             "swap_between_nodes, zero_out, or random")
    p_fuzz.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0 = serial; same results either way)",
    )
    p_fuzz.add_argument("--json", help="write the coverage matrix to this file")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_worker = sub.add_parser(
        "worker",
        help="remote worker agent: execute shards for a batch coordinator",
    )
    p_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the coordinator's --backend remote:HOST:PORT address",
    )
    p_worker.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="SECONDS",
        help="keep retrying the initial connection this long (default: 30)",
    )
    p_worker.add_argument(
        "--reconnect", action="store_true",
        help="rejoin after a lost coordinator with capped-exponential "
             "backoff instead of exiting",
    )
    p_worker.add_argument(
        "--max-reconnects", type=int, default=None, metavar="K",
        help="give up after K reconnect attempts (default: unbounded)",
    )
    p_worker.add_argument(
        "--reconnect-seed", type=int, default=None, metavar="SEED",
        help="seed for the deterministic reconnect jitter (default: pid)",
    )
    p_worker.set_defaults(func=cmd_worker)

    p_serve = sub.add_parser(
        "serve",
        help="proof service: accept certification requests over a socket",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port (0 = ephemeral, printed at startup)")
    p_serve.add_argument(
        "--backend", default=None, metavar="NAME",
        help="warm execution backend: serial, process, or remote[:host:port] "
             "(default: serial)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=0,
        help="worker processes for the process backend (default: 0)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=16, metavar="K",
        help="admission bound: requests queued past K get BUSY (default: 16)",
    )
    p_serve.add_argument(
        "--io-timeout", type=float, default=10.0, metavar="SECONDS",
        help="cut connections stalling mid-frame after this long (default: 10)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="on SIGTERM, fail still-queued requests after this long "
             "(default: 30)",
    )
    p_serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append every request's journal events (tagged by request id) "
             "to this JSONL file",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit one certification request to a running proof service",
    )
    p_submit.add_argument("task", help=f"one of {', '.join(registry.task_names())}")
    p_submit.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the service address printed by repro serve",
    )
    p_submit.add_argument("--runs", type=int, default=100)
    p_submit.add_argument("--n", type=int, default=64)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--c", type=int, default=2, help="soundness constant")
    p_submit.add_argument("--no-instance", action="store_true")
    p_submit.add_argument(
        "--adversary", help="named cheating prover from the task's registry entry"
    )
    p_submit.add_argument(
        "--request-id", default=None, metavar="ID",
        help="idempotency key (default: derived from the request parameters; "
             "resubmitting the same id replays instead of re-executing)",
    )
    p_submit.add_argument(
        "--client", default="cli", metavar="NAME",
        help="client identity for the fairness rotation (default: cli)",
    )
    p_submit.add_argument(
        "--stream", action="store_true",
        help="also stream the per-run journal events back (printed as a "
             "count, saved under \"events\" with --json)",
    )
    p_submit.add_argument(
        "--json", help="write request, canonical report and events to this file"
    )
    _add_resilience_args(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    p_dynamic = sub.add_parser(
        "dynamic",
        help="churn campaign: re-certify a long-lived instance per edge update",
    )
    p_dynamic.add_argument(
        "task", help="a task with a dynamic predicate (e.g. planarity)"
    )
    p_dynamic.add_argument("--n", type=int, default=64)
    p_dynamic.add_argument("--seed", type=int, default=0)
    p_dynamic.add_argument("--updates", type=int, default=100, metavar="K",
                           help="update-stream length (default: 100)")
    p_dynamic.add_argument(
        "--stream", choices=("preserving", "crossing"), default="preserving",
        help="churn kind: predicate-preserving or boundary-crossing",
    )
    p_dynamic.add_argument("--c", type=int, default=2, help="soundness constant")
    p_dynamic.add_argument(
        "--workers", type=int, default=0,
        help="shard the epoch range over worker processes (default: serial)",
    )
    p_dynamic.add_argument(
        "--chunk", type=int, default=None, metavar="K",
        help="epochs per pool shard (default: one shard per worker)",
    )
    p_dynamic.add_argument(
        "--verify-full", action="store_true",
        help="re-prove every epoch from scratch and fail on any divergence",
    )
    p_dynamic.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="drive the campaign through a live proof service's UPDATE path",
    )
    p_dynamic.add_argument("--journal", default=None, metavar="PATH",
                           help="write campaign events to this JSONL file")
    p_dynamic.add_argument("--json", help="write the canonical report to this file")
    p_dynamic.set_defaults(func=cmd_dynamic)

    p_attack = sub.add_parser("attack", help="Theorem 1.8 cut-and-paste attack")
    p_attack.add_argument("--n", type=int, default=1024)
    p_attack.add_argument("--bits", type=int, default=6)
    p_attack.add_argument("--seed", type=int, default=0)
    p_attack.set_defaults(func=cmd_attack)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
