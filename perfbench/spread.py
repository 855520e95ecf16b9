"""Run-to-run spread of the end-to-end metrics, the way acceptance checks it.

    python3 perfbench/spread.py --workload churn-n256 --runs 5 --seconds 16

Runs the benchmark once per seed (1..runs) and prints, per metric, the
median and the interquartile distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    values = {}
    extras = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=900)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {done.returncode}, {result}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        with open(os.path.join(HERE, "out", f"{args.workload}-seed{seed}-trace0.json")) as fh:
            for name, value in json.load(fh)["extras"].items():
                if isinstance(value, (int, float)):
                    extras.setdefault(name, []).append(value)
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()),
              flush=True)
    for label, table in (("metric", values), ("detail", extras)):
        for name, xs in table.items():
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            print(f"{label} {name}: median {med:.6g} spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
