#!/usr/bin/env python3
"""Builds and runs the periodk end-to-end benchmark (see NOTES.md).

    python3 e2ebench/run.py --workload employee-table3 --seed 1 \
        --seconds 20 --trace 0

Run it from anywhere inside a checkout of the repository.  The first run
configures and builds a Release build of the library and the benchmark
under .bench_build/ (or $CARGO_TARGET_DIR when set); later runs rebuild
only what changed.  Build output goes to stderr; stdout carries the
benchmark's report line and, last, its result object.  BENCHMARK.json at
the root of the checkout is the one source of the run length (--seconds
defaults to its run_seconds) and of the metrics the result object keeps:
its end_to_end list with --trace 0, its per_layer list with --trace 1.
The report line keeps every metric.  Result files land in <build
dir>/results/.  The exit code is the benchmark's: 0 when every operation
succeeded and every output check passed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("employee-table3", "tpcbih-table3", "asof-serving")
DEFAULT_SEED = 1
# A run never takes longer than this; the benchmark itself ends well
# before it.
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        sys.exit("e2ebench: the periodk sources are not next to the benchmark")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "e2e_bench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed")
    return os.path.join(out, "e2e_bench")


def source_digest():
    """SHA-256 over the library's sources: identifies the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = []
    for base, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(base, n) for n in names]
    for path in sorted(files) + [os.path.join(ROOT, "CMakeLists.txt")]:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit("e2ebench: cannot read BENCHMARK.json: %s" % e)


def keep_listed(result_line, names):
    """The result object with only the metrics `names` lists, or None
    when the line is not a result object or lacks one of them."""
    try:
        result = json.loads(result_line)
        metrics = result["metrics"]
    except (ValueError, TypeError, KeyError):
        return None
    missing = [n for n in names if n not in metrics]
    if missing:
        sys.stderr.write("e2ebench: the run reported no %s\n" % ", ".join(missing))
        return None
    result["metrics"] = {n: metrics[n] for n in names}
    return json.dumps(result)


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    out = build_dir()
    binary = build(out)
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit(), "--source-digest", source_digest(),
               "--out-dir", results]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    result = keep_listed(lines[-1], names)
    if result is None:
        sys.stderr.write(run.stdout)
        return run.returncode or 1
    print("\n".join(lines[:-1] + [result]))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
