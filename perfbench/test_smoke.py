#!/usr/bin/env python3
"""Smoke self-test of the pipeline benchmark at toy sizes.

Run from the repository root:

    python3 perfbench/test_smoke.py

For every workload it runs perfbench/run.py untraced and traced at toy
size and checks that every metric BENCHMARK.json names is emitted with its
unit, that the correctness checks pass, and that the result line has the
promised shape. It then corrupts one checked answer per workload and
expects the run to report correct=false and exit non-zero.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("testbed-scan", "daemon-3k", "serve-1k")


def run_bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "toy", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def assert_result(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_emitted_and_checks_pass(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assert_result(result, self.bench[key])
                    if key == "end_to_end":
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    prov = proc.stdout.strip().splitlines()[-2]
                    self.assertTrue(prov.startswith("provenance: "))
                    prov = json.loads(prov[len("provenance: "):])
                    for field in ("params", "seed", "host_cpus", "command",
                                  "git_revision", "source_sha256"):
                        self.assertIn(field, prov)

    def test_corrupted_answer_fails_the_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run_bench(workload, 0, "--corrupt")
                self.assertNotEqual(proc.returncode, 0)
                self.assertIsNotNone(result, proc.stderr)
                self.assertFalse(result["correct"])
                self.assertIn("check failed", proc.stderr)


if __name__ == "__main__":
    unittest.main()
