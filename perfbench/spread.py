#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs ``perfbench/run.py`` once per seed and prints, for every metric, the
median over the runs and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median, next to
the metric's bound from ``BENCHMARK.json``. Use it to check that the
benchmark is steady before comparing two commits.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
        lines = done.stdout.decode(errors="replace").strip().splitlines()
        result = json.loads(lines[-1])
        print(f"seed {seed}: exit {done.returncode}, correct {result['correct']}, "
              + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{'metric':36s} {'median':>14s} {'iqr/median':>11s} {'bound':>7s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:36s} {median:14.6g} {spread:11.4f} "
              f"{'' if bound is None else format(bound, '.2f'):>7s}")


if __name__ == "__main__":
    main()
