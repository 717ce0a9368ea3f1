#!/usr/bin/env bash
# Compare two TimingLog JSON artifacts (e.g. bench_des_scale --json outputs
# from two commits) and fail when any row regressed by more than the
# threshold (default 15%).
#
#   usage: check-bench-regression.sh OLD.json NEW.json [THRESHOLD_PCT]
#          check-bench-regression.sh --require EXPECTED.txt NEW.json...
#
# Row semantics, matching the bench label conventions:
#   - plain rows carry seconds: regression = new > old * (1 + threshold);
#   - "*speedup*", "*event_rate*" and "*efficiency*" rows carry ratios /
#     throughputs where bigger is better: regression = new < old /
#     (1 + threshold) — the thread-scaling and FEL speedups, the event rates
#     and parallel_for's strip efficiency;
#   - "*fraction*" rows are dimensionless splits (e.g. the barrier's serial
#     fraction or the telemetry overhead) whose healthy value depends on the
#     host — they are reported but never gate.
# Rows present in only one file are reported and skipped — which means a
# silently dropped row (renamed label, dead section) never fails the diff.
# `--require` closes that hole: it checks that every `bench/label` key listed
# in EXPECTED.txt (one per line, #-comments allowed) appears in the union of
# the given artifacts, and fails on any missing row. Exits non-zero iff a
# gating row regressed (diff mode) or an expected row is missing (--require).
set -euo pipefail

if [ "${1:-}" = "--require" ]; then
    if [ "$#" -lt 3 ]; then
        echo "usage: $0 --require EXPECTED.txt NEW.json..." >&2
        exit 2
    fi
    shift
    EXPECTED_FILE="$1"
    shift
    EXPECTED_FILE="$EXPECTED_FILE" python3 - "$@" <<'PY'
import json
import os
import sys

present = set()
for path in sys.argv[1:]:
    with open(path) as f:
        for row in json.load(f):
            present.add(f"{row['bench']}/{row['label']}")

missing = []
with open(os.environ["EXPECTED_FILE"]) as f:
    for line in f:
        key = line.split("#", 1)[0].strip()
        if not key:
            continue
        if key in present:
            print(f"  ok {key}")
        else:
            missing.append(key)
            print(f"  MISSING {key}")

if missing:
    print(f"{len(missing)} expected benchmark row(s) missing: " + ", ".join(missing))
    sys.exit(1)
print("all expected benchmark rows present")
PY
    exit 0
fi

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
    echo "usage: $0 OLD.json NEW.json [THRESHOLD_PCT]" >&2
    echo "       $0 --require EXPECTED.txt NEW.json..." >&2
    exit 2
fi

OLD_JSON="$1" NEW_JSON="$2" THRESHOLD_PCT="${3:-15}" python3 - <<'PY'
import json
import os
import sys

old_path = os.environ["OLD_JSON"]
new_path = os.environ["NEW_JSON"]
threshold = float(os.environ["THRESHOLD_PCT"]) / 100.0


def load(path):
    with open(path) as f:
        rows = json.load(f)
    out = {}
    for row in rows:
        out[f"{row['bench']}/{row['label']}"] = float(row["seconds"])
    return out


old = load(old_path)
new = load(new_path)

regressions = []
for key in sorted(old.keys() | new.keys()):
    if key not in old or key not in new:
        print(f"  only in {'new' if key in new else 'old'}: {key} (skipped)")
        continue
    a, b = old[key], new[key]
    if "fraction" in key:
        print(f"  info {key}: {a:.4f} -> {b:.4f} (not gated)")
        continue
    if "speedup" in key or "event_rate" in key or "efficiency" in key:
        ok = b >= a / (1.0 + threshold)
        change = f"{a:.3f}x -> {b:.3f}x"
    else:
        ok = b <= a * (1.0 + threshold)
        change = f"{a:.4f}s -> {b:.4f}s"
    if not ok:
        regressions.append(key)
        print(f"  REGRESSED {key}: {change}")
    else:
        print(f"  ok {key}: {change}")

if regressions:
    print(f"{len(regressions)} benchmark row(s) regressed beyond "
          f"{100 * threshold:.0f}%: " + ", ".join(regressions))
    sys.exit(1)
print("no benchmark regressions")
PY
