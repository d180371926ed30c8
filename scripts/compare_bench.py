#!/usr/bin/env python3
"""Compares a fresh bench --json run against a committed baseline.

Handles both JSON dialects the bench binaries emit
(bench/baselines/README.md):

* run records — a JSON array of per-run objects (`bench_fig10_efficiency`,
  `bench_serving`, ...): matched on their coordinate fields (bench,
  panel, task, variant, param/param_value, mode/clients/transport) and
  compared on the latency field (`p50_ms` when present, else `wall_ms`,
  else `discovery_seconds`);
* google-benchmark — an object with a `benchmarks` array
  (`bench_micro_ops --json`): matched on `run_name` (else `name`) and
  compared on `real_time`. A document with `run_type: aggregate` rows
  (a `--benchmark_repetitions` run) is compared on its `median` row per
  `run_name` and its iteration rows are ignored; one without aggregates
  compares its iteration rows.

Exits 1 when any shared entry regressed by more than --threshold
(default 0.25 = +25%); entries present on only one side are reported
but never fail the run, so sweeps can grow. Wall-clock numbers are
machine-dependent — CI runs this as an advisory (continue-on-error)
job, a reviewer's prompt rather than a merge gate.

    python3 scripts/compare_bench.py \
        bench/baselines/BENCH_fig10_baseline.json /tmp/fig10_fresh.json
"""

import argparse
import json
import sys

LATENCY_FIELDS = ("p50_ms", "wall_ms", "discovery_seconds")
COORDINATE_FIELDS = ("bench", "panel", "task", "variant", "param",
                     "param_value", "mode", "clients", "transport",
                     "metric")


def load(path):
    with open(path) as f:
        return json.load(f)


def run_record_series(doc):
    """{coordinate key: (metric name, value)} for a run-record array."""
    series = {}
    for record in doc:
        key = " ".join(
            f"{field}={record[field]}" for field in COORDINATE_FIELDS
            if field in record)
        for field in LATENCY_FIELDS:
            if field in record:
                series[key] = (field, float(record[field]))
                break
    return series


def google_benchmark_series(doc):
    records = doc.get("benchmarks", [])
    if any(r.get("run_type") == "aggregate" for r in records):
        records = [r for r in records if r.get("aggregate_name") == "median"]
    series = {}
    for record in records:
        name = record.get("run_name", record.get("name", ""))
        if "real_time" in record:
            unit = record.get("time_unit", "ns")
            series[name] = (f"real_time_{unit}", float(record["real_time"]))
    return series


def to_series(doc, path):
    if isinstance(doc, dict) and "benchmarks" in doc:
        return google_benchmark_series(doc)
    if isinstance(doc, list):
        return run_record_series(doc)
    raise SystemExit(f"{path}: neither a run-record array nor "
                     "google-benchmark JSON")


def main():
    parser = argparse.ArgumentParser(
        description="Fail on >threshold latency regressions vs a baseline.")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", help="fresh bench --json output")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated relative slowdown "
                             "(default 0.25 = +25%%)")
    args = parser.parse_args()

    baseline = to_series(load(args.baseline), args.baseline)
    fresh = to_series(load(args.fresh), args.fresh)

    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        raise SystemExit("no shared entries between baseline and fresh run")
    for only, series in (("baseline", set(baseline) - set(fresh)),
                         ("fresh", set(fresh) - set(baseline))):
        for key in sorted(series):
            print(f"  [skip] only in {only}: {key}")

    regressions = []
    worst = (0.0, "")
    for key in shared:
        metric, base = baseline[key]
        _, now = fresh[key]
        if base <= 0.0:
            print(f"  [skip] non-positive baseline for {key}")
            continue
        delta = now / base - 1.0
        marker = " <-- REGRESSION" if delta > args.threshold else ""
        print(f"  {key}: {metric} {base:.3f} -> {now:.3f} "
              f"({delta:+.1%}){marker}")
        if delta > args.threshold:
            regressions.append(key)
        if delta > worst[0]:
            worst = (delta, key)

    print(f"\ncompared {len(shared)} entries; worst delta {worst[0]:+.1%}"
          f"{' (' + worst[1] + ')' if worst[1] else ''}")
    if regressions:
        print(f"FAIL: {len(regressions)} entries regressed beyond "
              f"+{args.threshold:.0%}")
        return 1
    print(f"OK: nothing slower than +{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
