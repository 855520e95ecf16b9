"""The benchmark's workloads, driven through the program's public entry points.

Each batch workload has a fixed input set (seeds) that every run covers in
full, so the exact metrics computed over it never depend on run length.
``op(key, clock)`` runs one operation on one input, passing each of its
timed calls through ``clock`` (which probes and times them), and returns an
:class:`OpResult` carrying its correctness verdict and its exact-metric
contributions.

Nothing from ``repro`` is imported at module load: set-up does the imports,
so set-up time includes them.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FUZZ = ("fuzz_r1", "fuzz_r3", "fuzz_r5")
ROUNDS = 5  # the paper's protocols use exactly five interaction rounds


@dataclass
class OpResult:
    ok: bool
    why: str = ""
    #: exact per-input facts (bits, verdict counts); identical on every cycle
    exact: Dict[str, Any] = field(default_factory=dict)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _honest_gate(report) -> str:
    for rec in report.records:
        if not rec.accepted or rec.n_rounds != ROUNDS:
            return (f"{report.protocol_name} run {rec.index}: accepted={rec.accepted} "
                    f"rounds={rec.n_rounds}")
    return ""


class Certify:
    """One honest run of each of the seven registry tasks at n=1024."""

    name = "certify-n1024"
    cycle_s = 12.8  # one pass over the seeds, in calibrated seconds

    def __init__(self, quick: bool):
        self.n = 64 if quick else 1024
        self.warm_n = 32 if quick else 64
        self.seeds = (11,) if quick else (11, 12, 13, 14)

    def setup(self, clock) -> None:
        clock(self._imports)
        self._certify(self.warm_n, 1, clock)

    def _imports(self) -> None:
        from repro.runtime.registry import get_task, task_names
        from repro.runtime.runner import BatchRunner

        self._runner = BatchRunner
        self.tasks = [(name, get_task(name)) for name in task_names()]

    def _run(self, spec, n: int, seed: int):
        report = self._runner(spec.protocol(c=2), spec.yes_factory, workers=0).run(
            1, n, seed=seed)
        return report, report.canonical_json()

    def _certify(self, n: int, seed: int, clock) -> OpResult:
        bits = 0
        canon = []
        for _, spec in self.tasks:
            report, text = clock(self._run, spec, n, seed)
            canon.append(text)
            why = _honest_gate(report)
            if why:
                return OpResult(False, why)
            bits = max(bits, report.proof_size_max)
        return OpResult(True, exact={"proof_bits_max": bits, "digest": _digest(canon)})

    def op(self, seed: int, clock) -> OpResult:
        return self._certify(self.n, seed, clock)


#: sha256 prefixes of the soundness verdicts, keyed "n:seed"; a change in any
#: fuzzed run's verdict fails the per-op gate
SOUNDNESS_VERDICTS = {
    "16:21": "793549a82e5b5151",
    "64:21": "1cdbc5a6a02a58c7",
    "64:22": "b6b81bce7b6fd472",
    "64:23": "aa7d8eb936ece30b",
    "64:24": "3b1ff1948f6cfd0d",
}


class Soundness:
    """Per task x {fuzz_r1, fuzz_r3, fuzz_r5}: one serial batch of 2 runs."""

    name = "soundness-n64"
    cycle_s = 5.0

    def __init__(self, quick: bool):
        self.n = 16 if quick else 64
        self.runs = 2
        self.seeds = (21,) if quick else (21, 22, 23, 24)

    def setup(self, clock) -> None:
        clock(self._imports)
        self._campaign(8, 1, clock)

    _imports = Certify._imports

    def _batches(self, spec, n: int, seed: int) -> list:
        reports = []
        for adv in FUZZ:
            report = self._runner(
                spec.protocol(c=2), spec.yes_factory,
                prover_factory=spec.adversaries[adv], workers=0,
            ).run(self.runs, n, seed=seed)
            report.canonical_json()
            reports.append((adv, report))
        return reports

    def _campaign(self, n: int, seed: int, clock) -> Tuple[list, int, int, int]:
        verdicts = []
        rejected = total = bits = 0
        for name, spec in self.tasks:
            for adv, report in clock(self._batches, spec, n, seed):
                verdicts.append([name, adv, [r.accepted for r in report.records]])
                rejected += sum(not r.accepted for r in report.records)
                total += len(report.records)
                bits = max(bits, report.proof_size_max)
        return verdicts, rejected, total, bits

    def op(self, seed: int, clock) -> OpResult:
        verdicts, rejected, total, bits = self._campaign(self.n, seed, clock)
        digest = _digest(verdicts)
        want = SOUNDNESS_VERDICTS.get(f"{self.n}:{seed}")
        exact = {"proof_bits_max": bits, "rejected": rejected, "runs": total,
                 "digest": digest}
        if digest != want:
            return OpResult(False, f"verdict digest {digest} != {want} (seed {seed})", exact)
        return OpResult(True, exact=exact)


class Churn:
    """One serial planarity churn campaign: preserving stream, 8 updates."""

    name = "churn-n256"
    cycle_s = 9.5

    def __init__(self, quick: bool):
        self.n = 32 if quick else 256
        self.updates = 2 if quick else 8
        self.seeds = (31,) if quick else (31, 32, 33, 34)

    def setup(self, clock) -> None:
        clock(self._imports)
        self._campaign(32, 1, 2, clock)

    def _imports(self) -> None:
        from repro.dynamic.driver import ChurnCampaignSpec, run_campaign
        from repro.protocols.planarity import PlanarityProtocol

        self._spec = ChurnCampaignSpec
        self._run = run_campaign
        self._protocol = PlanarityProtocol

    def _certify(self, n: int, seed: int, updates: int):
        report = self._run(self._spec(task="planarity", n=n, seed=seed,
                                      n_updates=updates, stream="preserving"))
        report.canonical_json()
        return report

    def _campaign(self, n: int, seed: int, updates: int, clock) -> OpResult:
        # one calibrated segment per certified epoch: the probe reads between
        # epochs, so a two-second campaign is not scaled by two readings only
        protocol = self._protocol
        inner = protocol.execute

        def execute(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                clock.split()

        protocol.execute = execute
        try:
            report = clock(self._certify, n, seed, updates)
        finally:
            protocol.execute = inner
        if not report.all_sound or not all(r.accepted for r in report.records):
            return OpResult(False, f"campaign seed {seed}: unsound epochs "
                                   f"{report.unsound_epochs}")
        moved = [r for r in report.records if r.epoch > 0]
        return OpResult(True, exact={
            "proof_bits_max": max(r.proof_size_bits for r in report.records),
            "resent_bits": sum(r.wire_bits_changed for r in moved),
            "labels_changed": sum(r.labels_changed for r in moved),
            "updates": len(moved),
            "nodes": n,
        })

    def op(self, seed: int, clock) -> OpResult:
        return self._campaign(self.n, seed, self.updates, clock)


BATCH_WORKLOADS = {cls.name: cls for cls in (Certify, Soundness, Churn)}


def exact_metrics(exact: List[Dict[str, Any]]) -> Dict[str, float]:
    """Aggregate the exact per-input facts of one full cycle."""
    out: Dict[str, float] = {"proof_bits_max": max(e["proof_bits_max"] for e in exact)}
    if "rejected" in exact[0]:
        out["reject_rate"] = sum(e["rejected"] for e in exact) / sum(e["runs"] for e in exact)
    if "resent_bits" in exact[0]:
        updates = sum(e["updates"] for e in exact)
        out["resent_bits_mean"] = sum(e["resent_bits"] for e in exact) / updates
        out["changed_ratio"] = sum(e["labels_changed"] for e in exact) / (
            updates * exact[0]["nodes"])
    return out


# -- the service workload ----------------------------------------------------


class Serve:
    """``lr_sorting`` requests to a serial-lane ``repro serve``, open loop."""

    name = "serve-open-loop"
    task = "lr_sorting"

    def __init__(self, quick: bool):
        self.runs = 2 if quick else 4
        self.n = 16 if quick else 32
        self.seeds = (41,) if quick else tuple(range(41, 49))

    def prepare(self) -> None:
        """Local reference reports (the byte-identity gate) and exact bits."""
        from repro.runtime.registry import get_task
        from repro.runtime.runner import BatchRunner
        from repro.service.client import ServiceClient

        self.client_cls = ServiceClient
        spec = get_task(self.task)
        self.reference: Dict[int, str] = {}
        bits = 0
        for seed in self.seeds:
            report = BatchRunner(spec.protocol(c=2), spec.yes_factory, workers=0).run(
                self.runs, self.n, seed=seed)
            if _honest_gate(report):
                raise RuntimeError(f"local reference failed: {_honest_gate(report)}")
            self.reference[seed] = report.canonical_json()
            bits = max(bits, report.proof_size_max)
        self.exact = {"proof_bits_max": bits}

    def request(self, client, seed: int, request_id: str) -> OpResult:
        """Submit one request and gate it against the local reference."""
        from repro.service.client import ServiceError

        try:
            result = client.submit_request(client.build_request(
                self.task, runs=self.runs, n=self.n, seed=seed, request_id=request_id))
        except (ServiceError, OSError) as exc:
            return OpResult(False, f"{request_id}: {exc!r}")
        if not result.ok:
            return OpResult(False, f"{request_id}: server reported not ok")
        if result.canonical_json() != self.reference[seed]:
            return OpResult(False, f"{request_id}: report differs from local BatchRunner")
        return OpResult(True)


class ServerProcess:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, timeout: float = 60.0):
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        line = b""
        fd = self.proc.stdout.fileno()
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([fd], [], [], timeout)
            chunk = os.read(fd, 1) if ready else b""
            if not chunk:
                self.stop()
                raise RuntimeError("repro serve did not announce its address")
            line += chunk
        words = line.decode().split()
        host, _, port = words[words.index("on") + 1].rpartition(":")
        self.address = (host, int(port))

    def rss_peak_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
