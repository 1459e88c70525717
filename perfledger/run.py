#!/usr/bin/env python3
"""Build the perf ledger from the source tree it sits in, then run it.

    python3 perfledger/run.py [--workload NAME] [--seed N] [--seconds S]
                              [--trace 0|1] [--smoke] [--report-dir DIR]

Builds perfledger/CMakeLists.txt into .bench_build/perfledger (build
output goes to stderr), then runs bench_ledger once for the named
workload, or for every workload in BENCHMARK.json, echoing its tables.
The last line of stdout is the result: correct, attempted, failed and
the metrics BENCHMARK.json lists (end_to_end, or per_layer with
--trace 1), keyed by workload when more than one ran. --seconds
defaults to BENCHMARK.json's run_seconds and --smoke runs 1/20 of it.
--report-dir keeps each run's full JSON report, and with --trace 1 its
Chrome trace (otherwise under .bench_build/perfledger/traces). Exit
status is non-zero when any output or protocol check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfledger")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then bring bench_ledger and the daemon up to date."""
    def step(cmd):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"perfledger: {' '.join(cmd)} failed "
                     f"({result.returncode})")

    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    step(["cmake", "--build", BUILD, "--target", "bench_ledger",
          "--parallel", str(min(4, os.cpu_count() or 1))])
    return os.path.join(BUILD, "bench_ledger")


def run_workload(exe, workload, args, seconds):
    """One bench_ledger run: echo its tables, return (exit code, report)."""
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        trace_dir = args.report_dir or os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            trace_dir, f"{workload}-seed{args.seed}.trace.json")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        last = ""
        for line in proc.stdout:
            sys.stdout.write(last)
            last = line
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        report = json.loads(last)
    except ValueError:
        sys.stdout.write(last)
        return code, None
    return code, report


def result_metrics(report, bench, traced):
    """The metrics BENCHMARK.json lists, as the result line carries them.

    Raises KeyError when the report lacks one or gives it another unit.
    """
    section, listed = (("layers", bench["per_layer"]) if traced
                       else ("metrics", bench["end_to_end"]))
    picked = {}
    for metric in listed:
        got = report[section][metric["name"]]
        if got["unit"] != metric["unit"]:
            raise KeyError(f"{metric['name']} is in {got['unit']}, "
                           f"BENCHMARK.json says {metric['unit']}")
        picked[metric["name"]] = {"value": got["value"],
                                  "unit": metric["unit"]}
    return picked


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--report-dir")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfledger: no src/ next to perfledger/; "
                 "run it from a full checkout of the repository")
    exe = build()
    workloads = [args.workload] if args.workload else names
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        code, report = run_workload(exe, workload, args, args.seconds)
        if report is None:
            sys.exit(f"perfledger: {workload}: no report "
                     f"(bench_ledger exit {code})")
        if args.report_dir:
            os.makedirs(args.report_dir, exist_ok=True)
            suffix = "-traced" if args.trace else ""
            path = os.path.join(args.report_dir,
                                f"{workload}-seed{args.seed}{suffix}.json")
            with open(path, "w") as f:
                json.dump(report, f)
        try:
            metrics[workload] = result_metrics(report, bench, args.trace)
        except KeyError as e:
            sys.exit(f"perfledger: {workload}: metric missing: {e}")
        correct = correct and code == 0 and report["correct"]
        attempted += report["attempted"]
        failed += report["failed"]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics[args.workload] if args.workload
              else metrics}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
