#!/usr/bin/env python3
"""Schema validation for the unified telemetry layer's output artifacts.

Validates metrics series files (JSONL, or CSV for paths ending in .csv) as
written by --metrics-out and chrome://tracing span files as written by
--trace-out. Used by the CI Release telemetry smoke and usable locally:

  scripts/validate-telemetry.py \
      --metrics eval.jsonl --expect-series finite_epoch --min-rows 10 \
      --expect-field fel_schedules \
      --trace eval_trace.json --expect-span policy_query

Exits non-zero listing every violation. JSONL rows must be one JSON object
per line with a string "series", an integer "step", and numeric-or-null
values for every other field. CSV files must have a "series,step,..." header
and a constant column count. Trace files must be a JSON object whose
"traceEvents" is a non-empty list of complete events ("ph": "X") with string
names and numeric ts/dur/pid/tid.
"""

import argparse
import json
import sys


def fail(errors, path, message):
    errors.append(f"{path}: {message}")


def validate_jsonl(path, errors, seen_series, seen_fields):
    rows = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                fail(errors, path, f"line {lineno}: not valid JSON ({e})")
                continue
            if not isinstance(row, dict):
                fail(errors, path, f"line {lineno}: row is not an object")
                continue
            series = row.get("series")
            if not isinstance(series, str) or not series:
                fail(errors, path, f"line {lineno}: missing string 'series'")
            else:
                seen_series.add(series)
            seen_fields.update(k for k in row if k not in ("series", "step"))
            if not isinstance(row.get("step"), int):
                fail(errors, path, f"line {lineno}: missing integer 'step'")
            for key, value in row.items():
                if key == "series":
                    continue
                if value is not None and not isinstance(value, (int, float)):
                    fail(errors, path,
                         f"line {lineno}: field '{key}' is not numeric or null")
            rows += 1
    return rows


def validate_csv(path, errors, seen_series, seen_fields):
    rows = 0
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        columns = header.split(",")
        if columns[:2] != ["series", "step"]:
            fail(errors, path, f"header must start with 'series,step', got '{header}'")
            return 0
        seen_fields.update(columns[2:])
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                fail(errors, path,
                     f"line {lineno}: {len(cells)} cells, header has {len(columns)}")
                continue
            seen_series.add(cells[0])
            for key, cell in zip(columns[1:], cells[1:]):
                try:
                    float(cell)  # accepts ints, floats, and "nan"
                except ValueError:
                    fail(errors, path,
                         f"line {lineno}: column '{key}' value '{cell}' is not numeric")
            rows += 1
    return rows


def validate_trace(path, errors, seen_spans):
    try:
        with open(path, encoding="utf-8") as f:
            trace = json.load(f)
    except (json.JSONDecodeError, OSError) as e:
        fail(errors, path, f"not valid JSON ({e})")
        return 0
    events = trace.get("traceEvents") if isinstance(trace, dict) else None
    if not isinstance(events, list):
        fail(errors, path, "missing 'traceEvents' list")
        return 0
    if not events:
        fail(errors, path, "'traceEvents' is empty")
        return 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(errors, path, f"event {i}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            fail(errors, path, f"event {i}: missing string 'name'")
        else:
            seen_spans.add(name)
        if event.get("ph") != "X":
            fail(errors, path, f"event {i}: expected complete event 'ph': 'X'")
        for key in ("ts", "dur"):
            if not isinstance(event.get(key), (int, float)):
                fail(errors, path, f"event {i}: missing numeric '{key}'")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                fail(errors, path, f"event {i}: missing integer '{key}'")
    return len(events)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metrics", action="append", default=[],
                        help="metrics series file (JSONL, or CSV if it ends in .csv)")
    parser.add_argument("--trace", action="append", default=[],
                        help="chrome://tracing JSON file")
    parser.add_argument("--min-rows", type=int, default=1,
                        help="minimum rows required in every metrics file")
    parser.add_argument("--expect-series", action="append", default=[],
                        help="series name that must appear across the metrics files")
    parser.add_argument("--expect-field", action="append", default=[],
                        help="metrics field (column) that must appear across the "
                             "metrics files, e.g. a registered counter like "
                             "fel_schedules")
    parser.add_argument("--expect-span", action="append", default=[],
                        help="span name that must appear across the trace files")
    args = parser.parse_args()
    if not args.metrics and not args.trace:
        parser.error("nothing to validate: pass --metrics and/or --trace")

    errors = []
    seen_series, seen_spans, seen_fields = set(), set(), set()
    for path in args.metrics:
        validate = validate_csv if path.endswith(".csv") else validate_jsonl
        try:
            rows = validate(path, errors, seen_series, seen_fields)
        except OSError as e:
            fail(errors, path, f"cannot read ({e})")
            continue
        if rows < args.min_rows:
            fail(errors, path, f"only {rows} rows, expected at least {args.min_rows}")
        print(f"{path}: {rows} rows, series {sorted(seen_series)}")
    for path in args.trace:
        events = validate_trace(path, errors, seen_spans)
        print(f"{path}: {events} trace events")
    for series in args.expect_series:
        if series not in seen_series:
            errors.append(f"expected series '{series}' not found "
                          f"(saw {sorted(seen_series)})")
    for field in args.expect_field:
        if field not in seen_fields:
            errors.append(f"expected metrics field '{field}' not found "
                          f"(saw {sorted(seen_fields)})")
    for span in args.expect_span:
        if span not in seen_spans:
            errors.append(f"expected span '{span}' not found "
                          f"(saw {sorted(seen_spans)})")

    if errors:
        print(f"\n{len(errors)} telemetry validation error(s):", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print("telemetry artifacts valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
