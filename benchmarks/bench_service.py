"""E15-bench: the certification service under sustained client load.

One live :class:`ProofServer` per backend (serial lane, process pool),
hammered by a small fleet of synchronous clients issuing fresh
certification requests back-to-back, then drained.  Recorded per backend
in ``BENCH_service.json``:

* requests completed (every request of the fleet must complete),
* admission rejections seen by the fleet (BUSY + Retry-After retries),
* graceful-drain duration with the fleet still connected,
* the server's own request counters.

Request latency and throughput are not recorded here: perfbench's
``serve-open-loop`` workload measures them in paired runs
(``python3 perfbench/run.py --workload serve-open-loop``), compared as
alternating parent/change pairs on one box state.

    pytest benchmarks/bench_service.py -q
    REPRO_BENCH_QUICK=1 pytest benchmarks/bench_service.py -q   # smoke
"""

import json
import os
import platform
import threading
import time
from pathlib import Path

from repro.service.client import ServiceClient
from repro.service.server import ProofServer

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
CLIENTS = 3
REQUESTS_PER_CLIENT = 4 if QUICK else 25
RUNS = 3 if QUICK else 5
N = 32
TASK = "lr_sorting"
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _fleet(address, *, clients, requests_per_client):
    """Synchronous client fleet; returns the number of completed requests."""
    completed = [0]
    lock = threading.Lock()

    def _one_client(cid):
        client = ServiceClient(address, client_id=f"bench-{cid}", timeout=600.0)
        for i in range(requests_per_client):
            request = client.build_request(
                TASK, runs=RUNS, n=N, seed=cid * 10_000 + i,
                request_id=f"bench-{cid}-{i}",
            )
            result = client.submit_with_retry(request, attempts=50, max_wait=0.5)
            assert result.ok
            with lock:
                completed[0] += 1

    threads = [
        threading.Thread(target=_one_client, args=(cid,))
        for cid in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return completed[0]


def _bench_backend(backend, workers):
    server = ProofServer(backend=backend, workers=workers, queue_limit=16)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.wait_ready(30.0)
    address = (server.host, server.bound_port)

    completed = _fleet(
        address, clients=CLIENTS, requests_per_client=REQUESTS_PER_CLIENT
    )

    # drain while the fleet's sockets are still warm: measure the
    # SIGTERM-equivalent shutdown the operator would see
    t0 = time.perf_counter()
    server.request_drain()
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    drain = time.perf_counter() - t0

    return {
        "requests_completed": completed,
        "drain_s": round(drain, 3),
        "drain_reported_s": round(server.drain_duration or 0.0, 3),
        "admission_rejections": server.stats["rejected_busy"],
        "server_stats": dict(server.stats),
    }


def test_service_throughput_and_drain():
    results = {
        "serial": _bench_backend("serial", 0),
        "process": _bench_backend("process", 2),
    }
    for stats in results.values():
        assert stats["requests_completed"] == CLIENTS * REQUESTS_PER_CLIENT
        assert stats["server_stats"]["completed"] == CLIENTS * REQUESTS_PER_CLIENT

    payload = {
        "experiment": (
            f"{CLIENTS}-client sustained certification load "
            f"({REQUESTS_PER_CLIENT} requests each, {TASK} runs={RUNS} n={N}) "
            "against a live proof server, then graceful drain"
        ),
        "quick": QUICK,
        "task": TASK,
        "runs_per_request": RUNS,
        "n": N,
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "backends": results,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
