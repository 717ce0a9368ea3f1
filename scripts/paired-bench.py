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
the metric's bound. It then reports each side's correctness: the checks
attempted and failed, summed over the measured runs, and per workload the
median and maximum of each run's largest episode deviation from the
mean-field oracle (where a biased simulator would show first). Exits 1 if
any run failed or reported a failed check.
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


MANIFEST = "# manifest "
ORACLE = "largest episode deviation from the mean-field oracle:"


def oracle_deviations(lines):
    """Each workload's largest oracle deviation, keyed by its manifest's name."""
    deviations = {}
    workload = "?"
    for line in lines:
        if line.startswith(MANIFEST):
            try:
                workload = json.loads(line[len(MANIFEST):]).get("workload", "?")
            except ValueError:
                workload = "?"
        elif line.startswith(ORACLE):
            try:
                deviations[workload] = float(line[len(ORACLE):])
            except ValueError:
                pass
    return deviations


def run_side(checkout, workload, seed, seconds):
    """One run of a checkout's benchmark: its metrics by name, whether it passed,
    its checks attempted and failed, and its oracle deviations by workload."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE)
    lines = [line for line in done.stdout.decode(errors="replace").splitlines() if line.strip()]
    run = {"metrics": {}, "ok": False, "attempted": 0, "failed": 0,
           "oracle": oracle_deviations(lines)}
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return run
    run["metrics"] = {name: metric["value"]
                      for name, metric in result.get("metrics", {}).items()}
    run["ok"] = done.returncode == 0 and result.get("correct", False)
    run["attempted"] = result.get("attempted", 0)
    run["failed"] = result.get("failed", 0)
    return run


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


def report_correctness(side, runs):
    """One side's summed checks and its oracle deviations per workload."""
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    broken = sum(1 for run in runs if not run["ok"])
    print(f"  {side:5s} checks {attempted} attempted, {failed} failed; "
          f"{broken}/{len(runs)} runs failed")
    workloads = sorted({name for run in runs for name in run["oracle"]})
    for workload in workloads:
        values = [run["oracle"][workload] for run in runs if workload in run["oracle"]]
        print(f"  {'':5s} {workload}: largest oracle deviation median "
              f"{statistics.median(values):.4f}, max {max(values):.4f} ({len(values)} runs)")


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
            all_ok = run_side(checkout, args.workload, args.seeds[0], 1)["ok"] and all_ok

        runs = {"base": [], "child": []}
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            order = ["base", "child"] if pair % 2 == 0 else ["child", "base"]
            for side in order:
                run = run_side(sides[side], args.workload, seed, SECONDS)
                all_ok = all_ok and run["ok"]
                runs[side].append(run)
            print(f"pair {pair + 1}/{args.pairs} seed {seed} ({order[0]} first): "
                  f"base {headline(runs['base'][-1]['metrics'])}, "
                  f"child {headline(runs['child'][-1]['metrics'])}", flush=True)

    names = [name for name in runs["child"][0]["metrics"] if name.split("/")[-1] in specs]
    print(f"\n{args.pairs} pairs, workload {args.workload}, base {args.base}, child = working tree")
    for name in names:
        base = [run["metrics"][name] for run in runs["base"] if name in run["metrics"]]
        child = [run["metrics"][name] for run in runs["child"] if name in run["metrics"]]
        if len(base) != args.pairs or len(child) != args.pairs:
            print(f"  {name}: missing from some runs")
            all_ok = False
            continue
        report(name, specs[name.split("/")[-1]], base, child)
    print("correctness (measured runs)")
    for side in ("base", "child"):
        report_correctness(side, runs[side])
    if not all_ok:
        print("paired-bench: a run failed or reported a failed check", file=sys.stderr)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
