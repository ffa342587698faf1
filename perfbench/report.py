"""Print every benchmark metric, or measure the benchmark's run-to-run spread.

    python3 perfbench/report.py [--seconds S] [--seed N]

runs each workload once untraced and once traced and prints every end-to-end
and per-layer metric by name, with its unit and sample count, and each
workload's fail_frac (failed commands / commands attempted).

    python3 perfbench/report.py --spread K [--workload W ...] [--seconds S]

runs each workload untraced with K seeds and prints, for each end-to-end
metric, the median over the K runs and the distance between their first and
third quartiles as a share of that median, next to the metric's bound in
BENCHMARK.json.  A benchmark is steady when every share (set-up aside) is
well below its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict, float]:
    """One run of run.py: (its report lines, its result object, elapsed seconds)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1]), time.perf_counter() - start


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--spread", type=int, default=0, metavar="K",
                        help="runs per workload for the spread check")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    if not args.spread:
        for workload in names:
            for trace in (0, 1):
                lines, _, _ = bench(workload, args.seed, args.seconds, trace)
                print("\n".join(lines), flush=True)
        return 0

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.seed, args.seed + args.spread):
            _, result, elapsed = bench(workload, seed, args.seconds, 0)
            row = {name: result["metrics"][name]["value"] for name in bounds}
            for name, value in row.items():
                values[name].append(value)
            print(json.dumps({"workload": workload, "seed": seed, "elapsed_s": round(elapsed, 1),
                              "correct": result["correct"], "failed": result["failed"],
                              "attempted": result["attempted"], **row}), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            print(f"{workload} {name}: median {med:.6g}, quartile spread {share:.3f} of median,"
                  f" bound {bounds[name]} (a third: {bounds[name] / 3:.3f})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
