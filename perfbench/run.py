#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library sources (``src/``) and the benchmark program in Release mode under
``.bench_build/perfbench``; later calls only rebuild what changed. The program
prints a run manifest first and one JSON result object as its last line.
``--workload all`` runs every workload in turn, prints each end-to-end metric
by name with its unit, and exits non-zero if any correctness check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["des-table1", "sharded-table1", "finite-table1", "ppo-table2"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def checkout_env():
    """Environment whose temporary files (compiler scratch) stay in the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def check_call(cmd, timeout):
    """Runs a build step with its output on stderr (stdout stays the result)."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, env=checkout_env(),
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}", 1)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        fail(f"failed ({done.returncode}): {' '.join(cmd)}", 1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found next to the benchmark")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        check_call(configure, BUILD_TIMEOUT_S)
    check_call(["cmake", "--build", BUILD_DIR, "--parallel", "4"], BUILD_TIMEOUT_S)


def source_hash():
    """SHA-256 over the library and benchmark sources (paths and contents)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_describe():
    if shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")):
        return "not-a-git-checkout"
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except subprocess.TimeoutExpired:
        return "unknown"
    return done.stdout.decode().strip() or "unknown"


def run_workload(args, workload, identity):
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(trace_dir, f"{workload}-seed{args.seed}.json"),
           "--git-describe", identity["git"], "--source-hash", identity["source"]]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, env=checkout_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    output = done.stdout.decode(errors="replace")
    sys.stdout.write(output)
    sys.stdout.flush()
    lines = [line for line in output.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no result (exit {done.returncode})", 1)
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    identity = {"git": git_describe(), "source": source_hash()}
    if args.workload != "all":
        code, _ = run_workload(args, args.workload, identity)
        sys.exit(code)

    # One command over every workload: per-workload output, then a summary
    # and a combined result line with the metrics keyed "<workload>/<metric>".
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(args, workload, identity)
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print("\nsummary")
    for name, metric in combined["metrics"].items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(combined))
    sys.exit(worst if combined["correct"] else max(worst, 1))


if __name__ == "__main__":
    main()
