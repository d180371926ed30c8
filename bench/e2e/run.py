#!/usr/bin/env python3
"""Serving benchmark runner: builds modis_server and the two benchmark
binaries, runs workloads, checks answers, and reports metrics.

One run (the form BENCHMARK.json's command takes):

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints the run's metrics as the last line of stdout, as one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 gives the
end-to-end metrics; --trace 1 the per-layer ones (a traced run of the
workload plus bench_layers' probes).

A series of runs:

    python3 bench/e2e/run.py --repeats 5 [--seeds 1,2] [--seconds S]
                             [--trace] [--out results.json]

runs workloads x repeats, alternating the workload order between
repeats, prints every metric with its name, unit, median and quartiles,
and writes all runs and the summary as JSON.

    python3 bench/e2e/run.py --compare A.json B.json

applies the bounds of BENCHMARK.json to two such files (A the base) and
exits 1 when a metric of B is worse than A's by more than its bound.

Everything is built under .bench_build and run under .bench_run at the
repository root; nothing is written elsewhere.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_DIR = ROOT / ".bench_run"
TARGETS = ["modis_server", "bench_e2e", "bench_layers"]
WORKLOADS = ["isolated", "read_write", "pool_read_write"]
# Every run must end within 180 s; the first one in a checkout also builds.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 850.0


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run_group(cmd, cwd, timeout, merge_stderr=False):
    """Runs cmd in its own process group and returns (exit code, stdout);
    the group is killed on timeout and whatever it still holds afterwards
    (a server left by a crashed client) dies with it."""
    proc = subprocess.Popen(
        cmd,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT if merge_stderr else None,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def check_checkout():
    missing = [p for p in ("CMakeLists.txt", "src", "examples")
               if not (ROOT / p).exists()]
    if missing:
        log("not a source checkout (missing %s); nothing to build"
            % ", ".join(missing))
        sys.exit(2)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    started = time.monotonic()
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        code, out = run_group(
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            ROOT, BUILD_LIMIT_S, merge_stderr=True)
        if code != 0:
            log("configure failed:\n" + out[-4000:])
            sys.exit(1)
    code, out = run_group(
        ["cmake", "--build", str(BUILD_DIR), "-j", "4", "--target"] + TARGETS,
        ROOT, BUILD_LIMIT_S - (time.monotonic() - started), merge_stderr=True)
    if code != 0:
        log("build failed:\n" + out[-4000:])
        sys.exit(1)


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def one_run(workload, seed, seconds, trace, deadline):
    """One benchmark run; returns the result document."""
    run_dir = RUN_DIR / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        cmd = [str(BUILD_DIR / "bench_e2e"),
               "--server", str(BUILD_DIR / "examples" / "modis_server"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
        if trace:
            cmd.append("--trace")
        code, out = run_group(cmd, run_dir, deadline - time.monotonic())
        result = last_json_line(out)
        if result is None:
            log("bench_e2e printed no result (exit %d)" % code)
            sys.exit(1)
        if code != 0:
            result["correct"] = False
        if trace:
            code, out = run_group(
                [str(BUILD_DIR / "bench_layers"), "--workload", workload,
                 "--seed", str(seed), "--json"],
                run_dir, deadline - time.monotonic())
            probes = last_json_line(out)
            if code != 0 or probes is None:
                log("bench_layers failed (exit %d)" % code)
                sys.exit(1)
            result["metrics"].update(probes["metrics"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass
    declared = declared_metrics(trace)
    if declared is not None and declared != set(result["metrics"]):
        log("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(declared - set(result["metrics"])),
            sorted(set(result["metrics"]) - declared)))
        result["correct"] = False
    return result


def result_line(result):
    """The run's last stdout line: the counts, and value and unit of every
    metric."""
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(runs):
    summary = {}
    for run in runs:
        per = summary.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            entry = per.setdefault(name, {"unit": m["unit"], "values": []})
            entry["values"].append(m["value"])
    for per in summary.values():
        for entry in per.values():
            values = entry["values"]
            entry["median"] = statistics.median(values)
            entry["q1"], entry["q3"] = quartiles(values)
    return summary


def print_summary(summary):
    print("%-16s %-34s %-6s %12s %12s %12s %7s" % (
        "workload", "metric", "unit", "median", "q1", "q3", "spread"))
    for workload, per in summary.items():
        for name in sorted(per):
            e = per[name]
            spread = ((e["q3"] - e["q1"]) / abs(e["median"])
                      if e["median"] else 0.0)
            print("%-16s %-34s %-6s %12.4f %12.4f %12.4f %6.1f%%" % (
                workload, name, e["unit"], e["median"], e["q1"], e["q3"],
                100.0 * spread))


def series(args):
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = []
    for r in range(args.repeats):
        order = WORKLOADS if r % 2 == 0 else list(reversed(WORKLOADS))
        for workload in order:
            seed = seeds[r % len(seeds)]
            started = time.monotonic()
            result = one_run(workload, seed, args.seconds, args.trace,
                             started + RUN_LIMIT_S)
            log("%s seed %d: correct=%s attempted=%d failed=%d (%.1f s)" % (
                workload, seed, result["correct"], result["attempted"],
                result["failed"], time.monotonic() - started))
            runs.append(dict(result, workload=workload, seed=seed,
                             trace=args.trace))
    summary = summarize(runs)
    print_summary(summary)
    if args.out:
        meta = {
            "nproc": os.cpu_count(),
            "build_type": "Release",
            "seconds": args.seconds,
            "repeats": args.repeats,
            "seeds": seeds,
            "trace": args.trace,
        }
        Path(args.out).write_text(json.dumps(
            {"meta": meta, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


def compare(base_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    regressions = 0
    print("%-16s %-14s %12s %12s %8s %7s  %s" % (
        "workload", "metric", "base", "new", "worse", "bound", "verdict"))
    for workload, per in base["summary"].items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in per or name not in new["summary"].get(workload, {}):
                continue
            a = per[name]["median"]
            b = new["summary"][workload][name]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            print("%-16s %-14s %12.4f %12.4f %7.1f%% %6.0f%%  %s" % (
                workload, name, a, b, 100.0 * worse,
                100.0 * metric["bound"], verdict))
    failed_runs = [r for doc in (base, new) for r in doc["runs"]
                   if not r["correct"]]
    if failed_runs:
        print("%d run(s) failed their checks" % len(failed_runs))
    return 1 if regressions or failed_runs else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", default="0",
                        help="1 (or no value) for the per-layer run",
                        nargs="?", const="1")
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--seeds", help="comma list for --repeats")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    args.trace = args.trace not in ("0", "false")
    # A terminated runner still cleans up: the finally blocks kill the
    # benchmark's process group and remove its run directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if args.compare:
        sys.exit(compare(*args.compare))
    check_checkout()
    if args.repeats:
        if args.seeds is None:
            args.seeds = str(args.seed)
        build()
        sys.exit(series(args))
    if args.workload is None:
        parser.error("--workload, --repeats or --compare is required")
    build()
    result = one_run(args.workload, args.seed, args.seconds, args.trace,
                     time.monotonic() + RUN_LIMIT_S)
    print(json.dumps(result_line(result)))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
