"""The repository benchmark: ``mine-assess serve`` driven over HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload answer_single --seed 1 \\
        --seconds 20 --trace 0

The server runs as its own process; this client drives it with at most
two keep-alive connections in a closed loop, repeating whole rounds
(see :mod:`workloads`) until ``--seconds`` have passed.  Every response
is checked against :mod:`oracle`.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``; with
``--trace 1`` the per-layer metrics of the traced rounds, which
alternate with untraced rounds so the tracing overhead can be shown).
The exit code is 0 only when every request succeeded and every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import BenchError, Ops  # noqa: E402
from layers import LayerTotals, layer_metrics  # noqa: E402
from oracle import OracleError  # noqa: E402
from workloads import WORKLOADS, RoundResult, RoundRunner  # noqa: E402

#: a p99 is reported only from at least this many samples
P99_MIN_SAMPLES = 1000
#: end-to-end figures printed but left out of the result: answer
#: throughput on two connections follows CPU time taken by other guests
#: of the host too closely to hold a bound (see README)
PRINTED_ONLY = ("answers_per_s",)

Metrics = Dict[str, Tuple[float, str]]


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def merged_ops(rounds: List[RoundResult]) -> Ops:
    ops = Ops()
    for r in rounds:
        ops.merge(r.ops)
    return ops


def end_to_end(rounds: List[RoundResult], mode: str) -> Metrics:
    latency = merged_ops(rounds).latency
    answers = sum(r.answers for r in rounds)
    # the requests that acknowledge answers, and those that submit
    write, submit = (("answer", "submit") if mode == "single"
                     else ("batch", "batch_submit"))
    ms = 1000.0

    def p50(op: str) -> float:
        return statistics.median(latency[op]) * ms

    metrics: Metrics = {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "restart_s": (
            statistics.median(t for r in rounds for t in r.restarts), "s"),
        "answers_per_s": (
            answers / sum(r.phase_s for r in rounds), "answers/s"),
        "answer_ack_p50_ms": (p50(write), "ms"),
        "submit_p50_ms": (p50(submit), "ms"),
        "analysis_p50_ms": (p50("analysis"), "ms"),
        "report_p50_ms": (p50("report"), "ms"),
        "analytics_p50_ms": (p50("analytics"), "ms"),
        "asof_p50_ms": (p50("asof"), "ms"),
        "server_cpu_ms_per_answer": (
            statistics.median(r.cpu_s / r.answers for r in rounds) * ms,
            "ms"),
        "wal_bytes_per_answer": (
            sum(r.wal_bytes for r in rounds) / answers, "bytes"),
        "server_peak_rss_mb": (
            statistics.median(r.rss_mb for r in rounds), "MB"),
    }
    return metrics


def per_layer(rounds: List[RoundResult], mode: str):
    traced = [r for r in rounds if r.traced]
    files = [path for r in traced for _, path in r.launches if path]
    totals = LayerTotals(files)
    store: Dict[str, float] = {}
    for r in traced:
        for key, value in r.store.items():
            store[key] = store.get(key, 0) + value
    import_s = []
    for r in traced:
        launched_at, path = r.launches[0]
        marks = totals.by_file[path].marks
        import_s.append(marks["init_started_at"] - launched_at)
    write_route = ("sittings.answer" if mode == "single"
                   else "sittings.answers_batch")
    return layer_metrics(
        totals,
        merged_ops(traced).latency,
        write_route,
        store,
        sum(r.answers for r in traced),
        import_s,
    )


def print_table(title: str, metrics: Metrics) -> None:
    print(f"-- {title}")
    for name, (value, unit) in metrics.items():
        print(f"   {name:<36} {value:14.4f} {unit}")


def print_ops(ops: Ops) -> None:
    print("-- operations: attempted / failed, success p50 ms "
          f"(p99 ms from {P99_MIN_SAMPLES}+ samples)")
    for op in sorted(ops.attempted):
        samples = ops.latency.get(op, [])
        p50 = statistics.median(samples) * 1000 if samples else float("nan")
        tail = (f" {percentile(samples, 0.99) * 1000:10.3f}"
                if len(samples) >= P99_MIN_SAMPLES else "")
        print(f"   {op:<20} {ops.attempted[op]:8d} / "
              f"{ops.failed.get(op, 0):<6d} {p50:10.3f}{tail}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = Path.cwd()
    src = checkout / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"no program source under {src}", file=sys.stderr)
        return 2
    # warm byte-code once, so the first timed launch is not a compile
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(src)],
        check=True, stdout=subprocess.DEVNULL,
    )
    workload = WORKLOADS[args.workload]
    work = checkout / ".bench_build" / "perfbench" / (
        f"{workload.name}-{os.getpid()}"
    )
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    runner = RoundRunner(workload, args.seed, checkout, work, env)
    rounds: List[RoundResult] = []
    correct = True
    started = time.perf_counter()
    minimum = 2 if args.trace else 1
    try:
        # whole rounds only: stop before a round that would end past
        # --seconds (judged by the mean round so far)
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(runner.run(len(rounds), traced))
            if rounds[-1].ops.failed:
                break
            elapsed = time.perf_counter() - started
            if len(rounds) >= minimum and (
                elapsed * (len(rounds) + 1) / len(rounds) > args.seconds
            ):
                break
    except OracleError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        correct = False
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    ops = merged_ops(rounds)
    attempted = sum(ops.attempted.values())
    failed = sum(ops.failed.values())
    if failed:
        # a rejected request shrinks what the oracle is fed, so it fails
        # the run instead of passing unseen
        print("failed operations:\n  " + "\n  ".join(ops.failures),
              file=sys.stderr)
        correct = False
    print(f"workload {workload.name}: seed {args.seed}, {len(rounds)} rounds "
          f"of {workload.cohort} sittings, {workload.connections} "
          f"connection(s), {time.perf_counter() - started:.1f} s")
    for index, r in enumerate(rounds):
        restarts = ", ".join(f"{t:.3f}" for t in r.restarts)
        traced = " (traced)" if r.traced else ""
        print(f"   round {index}{traced}: {r.answers / r.phase_s:.0f} "
              f"answers/s, setup {r.setup_s:.3f} s, restarts {restarts} s")
    print_ops(ops)
    metrics: Metrics = {}
    if correct and rounds:
        plain = [r for r in rounds if not r.traced]
        e2e = end_to_end(plain, workload.mode)
        print_table("end-to-end (untraced rounds)", e2e)
        metrics = {name: value for name, value in e2e.items()
                   if name not in PRINTED_ONLY}
        if args.trace:
            traced = [r for r in rounds if r.traced]
            with_trace = end_to_end(traced, workload.mode)
            overhead = {
                name: ((with_trace[name][0] / value - 1.0) * 100.0, "%")
                for name, (value, _) in e2e.items()
            }
            print_table("tracing overhead (traced vs untraced rounds)",
                        overhead)
            reported, extra = per_layer(rounds, workload.mode)
            reported["trace.overhead_pct"] = overhead["answer_ack_p50_ms"]
            print_table("per-layer (traced rounds)", {**reported, **extra})
            metrics = reported
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
