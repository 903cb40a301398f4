"""Steadiness check: run each workload repeatedly, report the spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--workload NAME ...]

For every workload it runs ``perfbench/run.py`` once per seed, seeds 1
to ``--runs``, each for ``run_seconds`` of ``BENCHMARK.json``, and
prints, per end-to-end metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(Q3 - Q1) /
median`` against the metric's bound.  A spread under a third of the
bound is marked ``steady``.  The exit code is 1 when any spread exceeds
its bound or the share of failed operations differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({completed.returncode}):\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def main(argv=None) -> int:
    config = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    worst = 0.0
    unequal = False
    for workload in names:
        results = [
            run_once(workload, seed, config["run_seconds"])
            for seed in range(1, args.runs + 1)
        ]
        shares = {r["failed"] / r["attempted"] for r in results}
        unequal = unequal or len(shares) > 1
        print(f"== {workload}: {args.runs} runs, failed shares {sorted(shares)}")
        print(f"   {'metric':<28} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            mark = ("steady" if spread < bound / 3
                    else "ok" if spread <= bound else "WIDE")
            worst = max(worst, spread / bound)
            print(f"   {name:<28} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.4f} {bound:6.2f} {mark}")
    print(f"worst spread / bound: {worst:.3f}")
    if unequal:
        print("the share of failed operations differs between runs")
    return 1 if worst > 1.0 or unequal else 0


if __name__ == "__main__":
    sys.exit(main())
