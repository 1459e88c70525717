#!/usr/bin/env python3
"""compare.py on canned ledger reports: each verdict, the correctness
gate, and the exit status that gates a change."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
COMPARE = os.path.join(HERE, "..", "compare.py")

# A parent baseline for two workloads; every value is scaled per run.
BASE = {
    "tnn-saturate": {"throughput_vps": 150000.0, "lat_p50_ms": 1.6,
                     "lat_p90_ms": 2.7, "setup_s": 0.003,
                     "peak_rss_mb": 4.7, "cpu_ms_per_kvolley": 16.0},
    "lsm-paced": {"throughput_vps": 10000.0, "lat_p50_ms": 0.42,
                  "lat_p90_ms": 0.44, "setup_s": 0.003,
                  "peak_rss_mb": 4.5, "cpu_ms_per_kvolley": 58.0},
}
JITTER = [1.000, 1.004, 0.997, 1.002, 0.999,  # 10 runs, ~0.3% spread
          1.001, 0.998, 1.003, 0.996, 1.000]


def write_runs(directory, scale=None, runs=len(JITTER), outcome=None):
    """`runs` runs per workload; scale(workload, metric, run) multiplies,
    outcome(workload, run) gives (correct, failed) of 1000 attempted."""
    os.makedirs(directory, exist_ok=True)
    for workload, metrics in BASE.items():
        for run, jitter in enumerate(JITTER[:runs]):
            seed = run + 1
            values = {}
            for name, value in metrics.items():
                factor = scale(workload, name, run) if scale else 1.0
                values[name] = {"value": value * jitter * factor,
                                "unit": "x"}
            correct, failed = outcome(workload, run) if outcome else (True, 0)
            report = {"workload": workload, "seed": seed, "traced": False,
                      "correct": correct, "attempted": 1000,
                      "failed": failed, "metrics": values, "layers": {}}
            path = os.path.join(directory, f"{workload}-seed{seed}.json")
            with open(path, "w") as f:
                json.dump(report, f)
        # A traced run carries the layers; its metrics are not judged.
        traced = {"workload": workload, "seed": 1, "traced": True,
                  "correct": True, "attempted": 1000, "failed": 0,
                  "metrics": {name: {"value": 1e-9, "unit": "x"}
                              for name in metrics},
                  "layers": {"engine.busy_frac": {"value": 0.5,
                                                  "unit": "ratio"}}}
        with open(os.path.join(directory, f"{workload}-seed1-traced.json"),
                  "w") as f:
            json.dump(traced, f)
    # A Chrome trace next to the reports must be ignored.
    with open(os.path.join(directory, "x.trace.json"), "w") as f:
        f.write("{\"traceEvents\": []}")


def compare(parent, change, *extra):
    result = subprocess.run(
        [sys.executable, COMPARE, parent, change, *extra],
        capture_output=True, text=True)
    rows = {}
    for line in result.stdout.splitlines():
        if line and not line.startswith(" "):
            workload, verdict = line[:14].strip(), line[15:25].strip()
            rows[workload] = verdict
    return result.returncode, rows, result.stdout


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.parent = os.path.join(self.tmp.name, "parent")
        write_runs(self.parent)

    def tearDown(self):
        self.tmp.cleanup()

    def change(self, scale, runs=len(JITTER), outcome=None):
        path = os.path.join(self.tmp.name, "change")
        write_runs(path, scale, runs, outcome)
        return path

    def test_same_code_is_no_worse_in_either_order(self):
        other = self.change(lambda w, m, r: 1.0 + 0.001 * (r % 2))
        for a, b in ((self.parent, other), (other, self.parent)):
            rc, rows, out = compare(a, b)
            self.assertEqual(rc, 0, out)
            self.assertEqual(set(rows.values()), {"no worse"}, out)

    def test_throughput_drop_past_the_bound_is_worse(self):
        other = self.change(
            lambda w, m, r: 0.7 if (w, m) == ("tnn-saturate",
                                              "throughput_vps") else 1.0)
        rc, rows, out = compare(self.parent, other)
        self.assertEqual(rc, 1, out)
        self.assertEqual(rows["tnn-saturate"], "worse", out)
        self.assertEqual(rows["lsm-paced"], "no worse", out)

    def test_a_quiet_pair_is_held_to_ten_percent(self):
        # BENCHMARK.json allows lat_p50_ms 25%, but this parent moves
        # 0.45% run to run: a 15% regression is worse.
        slower = self.change(
            lambda w, m, r: 1.15 if (w, m) == ("lsm-paced",
                                               "lat_p50_ms") else 1.0)
        rc, rows, out = compare(self.parent, slower)
        self.assertEqual(rc, 1, out)
        self.assertEqual(rows["lsm-paced"], "worse", out)
        self.assertIn("(bound 10%", out)
        # A side that moves 8% run to run gets three times that, be it
        # the parent or the change.
        wobble = [1.0, 1.08, 0.96, 1.04, 0.98, 1.06, 0.94, 1.02, 1.0, 0.97]
        noisy = os.path.join(self.tmp.name, "noisy")
        write_runs(noisy, lambda w, m, r: wobble[r]
                   if (w, m) == ("lsm-paced", "lat_p50_ms") else 1.0)
        rc, rows, out = compare(noisy, slower)
        self.assertEqual(rc, 0, out)
        self.assertEqual(rows["lsm-paced"], "no worse", out)
        self.assertIn("(bound 24%", out)
        noisy_slower = self.change(
            lambda w, m, r: 1.15 * wobble[r] if (w, m) == ("lsm-paced",
                                                           "lat_p50_ms")
            else 1.0)
        rc, rows, out = compare(self.parent, noisy_slower)
        self.assertEqual(rc, 0, out)
        self.assertEqual(rows["lsm-paced"], "no worse", out)

    def test_every_run_faster_is_improved(self):
        other = self.change(
            lambda w, m, r: 0.5 if m == "lat_p50_ms" else 1.0)
        rc, rows, out = compare(self.parent, other)
        self.assertEqual(rc, 0, out)
        self.assertEqual(set(rows.values()), {"improved"}, out)

    def test_five_pairs_cannot_claim_a_gain(self):
        short = os.path.join(self.tmp.name, "short")
        write_runs(short, runs=5)
        other = self.change(
            lambda w, m, r: 0.5 if m == "lat_p50_ms" else 1.0, runs=5)
        rc, rows, out = compare(short, other)
        self.assertEqual(rc, 0, out)
        self.assertEqual(set(rows.values()), {"no worse"}, out)

    def test_noisy_parent_leaves_a_small_change_unresolved(self):
        noisy = os.path.join(self.tmp.name, "noisy")
        write_runs(noisy, lambda w, m, r: [1.0, 1.6, 0.7, 1.3, 0.9][r % 5]
                   if m == "setup_s" else 1.0)
        other = self.change(
            lambda w, m, r: 1.05 if m == "setup_s" else 1.0)
        rc, rows, out = compare(noisy, other)
        self.assertEqual(rc, 0, out)
        self.assertEqual(set(rows.values()), {"unresolved"}, out)

    def test_a_metric_benchmark_json_does_not_bound_is_not_judged(self):
        other = self.change(lambda w, m, r: 3.0 if m == "lat_p90_ms" else 1.0)
        rc, rows, out = compare(self.parent, other)
        self.assertEqual(rc, 0, out)
        self.assertEqual(set(rows.values()), {"no worse"}, out)
        self.assertNotIn("lat_p90_ms", out)

    def test_a_failed_output_check_is_worse_even_when_faster(self):
        other = self.change(
            lambda w, m, r: 0.5 if m == "lat_p50_ms" else 1.0,
            outcome=lambda w, r: (w != "lsm-paced" or r != 3, 0))
        rc, rows, out = compare(self.parent, other)
        self.assertEqual(rc, 1, out)
        self.assertEqual(rows["lsm-paced"], "worse", out)
        self.assertEqual(rows["tnn-saturate"], "improved", out)
        self.assertIn("failed their output checks", out)

    def test_failing_more_volleys_than_the_parent_is_worse(self):
        other = self.change(
            lambda w, m, r: 1.0,
            outcome=lambda w, r: (True, 5 if w == "tnn-saturate" else 0))
        rc, rows, out = compare(self.parent, other)
        self.assertEqual(rc, 1, out)
        self.assertEqual(rows["tnn-saturate"], "worse", out)
        self.assertEqual(rows["lsm-paced"], "no worse", out)
        # The other way round, failing fewer is not a regression.
        rc, rows, out = compare(other, self.parent)
        self.assertEqual(rc, 0, out)

    def test_layers_are_listed_without_verdict(self):
        rc, _, out = compare(self.parent, self.parent, "--layers")
        self.assertEqual(rc, 0, out)
        self.assertIn("layer engine.busy_frac", out)

    def test_no_common_workload_is_an_input_error(self):
        empty = os.path.join(self.tmp.name, "empty")
        os.makedirs(empty)
        rc, _, _ = compare(self.parent, empty)
        self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
