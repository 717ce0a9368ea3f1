#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: a base revision against the working tree.

    scripts/paired-bench.py --base <rev> --workload <name|all> --pairs N --seeds a-b

Exports the base revision with ``git archive`` into a temporary directory, so
the repository's git state is never touched, and runs each checkout's own
``perfbench/run.py --trace 0 --seconds 20``: one unmeasured warm-up run per
side builds it, then N pairs of runs follow. Pair i runs both sides on seed
``a + i mod (b - a + 1)``, and the side that runs first alternates from pair
to pair, so slow drift of the host hits both sides alike.

For every end-to-end metric of ``BENCHMARK.json`` (per workload with
``--workload all``) it prints each side's median and quartiles, the median,
min and max of the per-pair ratio child/base, how many pairs the child won
(ties count for neither side), whether the median gain exceeds the distance
between the base's quartiles, and whether the child's median stays within
the metric's bound. Exits 1 if any run failed or reported a failed check.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 20


def parse_seeds(text):
    first, sep, last = text.partition("-")
    seeds = list(range(int(first), int(last) + 1)) if sep else [int(first)]
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def export_revision(rev, into):
    """Writes the tree of `rev` into the directory `into` (no .git)."""
    done = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if done.returncode != 0:
        sys.exit(f"paired-bench: git archive {rev} failed: {done.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        archive.extractall(into)


def run_side(checkout, workload, seed, seconds):
    """One run of a checkout's benchmark: (metrics by name, checks passed)."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE)
    lines = [line for line in done.stdout.decode(errors="replace").splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}, False
    metrics = {name: metric["value"] for name, metric in result.get("metrics", {}).items()}
    return metrics, done.returncode == 0 and result.get("correct", False)


def headline(metrics):
    """The first metric of a run, for the progress line."""
    for name, value in metrics.items():
        return f"{name} {value:.6g}"
    return "no result"


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(name, spec, base, child):
    """One metric's row; `spec` is its BENCHMARK.json entry."""
    higher = spec["better"] == "higher"
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(child)
    ratios = [c / b for b, c in zip(base, child) if b != 0]
    wins = sum(1 for b, c in zip(base, child) if (c > b if higher else c < b))
    gain = (c2 - b2) if higher else (b2 - c2)
    worse_by = -gain / b2 if b2 != 0 else 0.0
    ratio_text = (f"{statistics.median(ratios):.3f} [{min(ratios):.3f}, {max(ratios):.3f}]"
                  if ratios else "n/a")
    print(f"  {name:32s} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
          f"child {c2:.6g} [{c1:.6g}, {c3:.6g}]  {spec['unit']}")
    print(f"  {'':32s} ratio child/base {ratio_text}  wins {wins}/{len(base)}  "
          f"gain > base IQR: {'yes' if gain > b3 - b1 else 'no'}  "
          f"within bound {spec['bound']:g}: {'yes' if worse_by <= spec['bound'] else 'NO'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision or tree to compare against")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="seed range a-b, cycled over the pairs")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        specs = {metric["name"]: metric for metric in json.load(handle)["end_to_end"]}

    all_ok = True
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as workdir:
        base_dir = os.path.join(workdir, "base")
        os.makedirs(base_dir)
        export_revision(args.base, base_dir)
        sides = {"base": base_dir, "child": ROOT}
        for side, checkout in sides.items():
            print(f"warm-up build and run: {side} ({checkout})", flush=True)
            _, ok = run_side(checkout, args.workload, args.seeds[0], 1)
            all_ok = all_ok and ok

        runs = {"base": [], "child": []}
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            order = ["base", "child"] if pair % 2 == 0 else ["child", "base"]
            for side in order:
                metrics, ok = run_side(sides[side], args.workload, seed, SECONDS)
                all_ok = all_ok and ok
                runs[side].append(metrics)
            print(f"pair {pair + 1}/{args.pairs} seed {seed} ({order[0]} first): "
                  f"base {headline(runs['base'][-1])}, child {headline(runs['child'][-1])}",
                  flush=True)

    names = [name for name in runs["child"][0] if name.split("/")[-1] in specs]
    print(f"\n{args.pairs} pairs, workload {args.workload}, base {args.base}, child = working tree")
    for name in names:
        base = [metrics[name] for metrics in runs["base"] if name in metrics]
        child = [metrics[name] for metrics in runs["child"] if name in metrics]
        if len(base) != args.pairs or len(child) != args.pairs:
            print(f"  {name}: missing from some runs")
            all_ok = False
            continue
        report(name, specs[name.split("/")[-1]], base, child)
    if not all_ok:
        print("paired-bench: a run failed or reported a failed check", file=sys.stderr)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
