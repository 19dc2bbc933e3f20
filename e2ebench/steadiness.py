#!/usr/bin/env python3
"""Steadiness self-check of the end-to-end benchmark (see NOTES.md).

    python3 e2ebench/steadiness.py --workload asof-serving --runs 5

Runs one workload in two sets, alternating between them run by run (set A
with seed s, set B with seed s, then both with seed s+1, ...), and prints
each metric's per-set median and quartiles.  It flags a metric when its
set medians differ by more than its bound, and an end-to-end metric other
than setup_s whose spread within a set (the distance between quartiles
as a share of the median) exceeds its bound.  Bounds are BENCHMARK.json's;
the asof-serving tail metrics, which that file cannot list because only
one workload has them, use ASOF_BOUNDS below.  Exits 1 when anything is
flagged or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
ASOF_BOUNDS = {"read_p99_ms": 0.25, "write_p50_ms": 0.2, "write_p90_ms": 0.2}


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect run: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in report["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bounds.update(ASOF_BOUNDS)

    sets = ([], [])
    for i in range(args.runs):
        for s in (0, 1):
            metrics = run_once(args.workload, args.first_seed + i, seconds)
            sets[s].append(metrics)
            print("set %s seed %d: %s" % ("AB"[s], args.first_seed + i, ", ".join(
                "%s=%.4g" % (k, metrics[k]) for k in bounds if k in metrics)),
                flush=True)

    flagged = False
    print("%-18s %11s %11s %11s %8s %8s %8s %6s" % (
        "metric", "A median", "B median", "B q1..q3", "spreadA", "spreadB",
        "shift", "bound"))
    for name, bound in bounds.items():
        if name not in sets[0][0]:
            continue
        stats = []
        for runs in sets:
            values = [m[name] for m in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            stats.append((q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")))
        shift = (stats[1][0] - stats[0][0]) / stats[0][0] if stats[0][0] else 0.0
        bad = abs(shift) > bound or (name != "setup_s" and max(
            stats[0][3], stats[1][3]) > bound)
        flagged |= bad
        print("%-18s %11.5g %11.5g %5.4g..%-5.4g %7.1f%% %7.1f%% %7.1f%% %5.0f%%%s" % (
            name, stats[0][0], stats[1][0], stats[1][1], stats[1][2],
            100 * stats[0][3], 100 * stats[1][3], 100 * shift, 100 * bound,
            "  <-- FLAGGED" if bad else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
