#!/usr/bin/env python3
"""bench_ledger --smoke: every workload at 1/20 scale with every output
check on, and each one traced with a Chrome trace that must parse. No
run may leave an stnet_serve daemon behind, and each report must give
the result line every metric BENCHMARK.json lists.

    python3 smoke_test.py path/to/bench_ledger
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  perfledger/run.py: the result-line builder

EXE = None  # set from argv


def daemon_pids():
    daemon = os.path.realpath(os.path.join(os.path.dirname(EXE),
                                           "stnet_serve"))
    pids = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            if os.readlink(f"/proc/{pid}/exe") == daemon:
                pids.add(pid)
        except OSError:
            pass
    return pids


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = run.load_benchmark()

    def setUp(self):
        self.before = daemon_pids()
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()
        self.assertEqual(daemon_pids() - self.before, set(),
                         "an stnet_serve daemon outlived the ledger")

    def ledger(self, workload, *extra):
        result = subprocess.run(
            [EXE, "--workload", workload, "--smoke",
             "--seconds", str(self.bench["run_seconds"]), *extra],
            capture_output=True, text=True, timeout=120)
        out = result.stdout + result.stderr
        self.assertEqual(result.returncode, 0, out)
        report = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertTrue(report["correct"], out)
        self.assertEqual(report["failed"], 0, out)
        self.assertGreater(report["attempted"], 0, out)
        return report, out

    def test_every_workload_runs_verifies_and_reports(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                report, out = self.ledger(w["name"])
                metrics = run.result_metrics(report, self.bench, False)
                for m in metrics.values():
                    self.assertGreater(m["value"], 0, out)

    def test_every_workload_traced_gives_layers_and_a_trace(self):
        spans = {"offline": ("ledger.call", "eval.batch",
                             "tnn.process_batch", "grl.parallel_sim"),
                 "tnn-saturate": ("client.volley", "model.volley",
                                  "ledger.model_call", "serve.batch")}
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                trace = os.path.join(self.tmp.name, w["name"] + ".json")
                report, _ = self.ledger(w["name"], "--trace-file", trace)
                run.result_metrics(report, self.bench, True)
                with open(trace) as f:
                    events = json.load(f)["traceEvents"]
                names = {e["name"].split(" ")[0] for e in events}
                for span in spans.get(w["name"], ()):
                    self.assertIn(span, names)


if __name__ == "__main__":
    EXE = os.path.abspath(sys.argv.pop(1))
    unittest.main()
