#!/usr/bin/env python3
"""Contract tests of the coopcr benchmark.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/tests/test_perfbench.py

For every workload, in both modes, the last output line must be the result
object, every metric it prints must be declared in BENCHMARK.json with the
same unit (and every declared metric of that mode printed), and the output
checks must pass on unchanged code. A run with one corrupted output
(--inject-mismatch) must report failed operations.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SECONDS = "1"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--seconds", SECONDS, "--trace", trace, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["context"]


class ContractTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load_benchmark()
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]

    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_and_checks(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result, context = run(workload, "0")
                self.check_result(result, self.bench["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(context["error_rate"], 0)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                for key in ("nproc", "build_type", "cxx_flags", "compiler",
                            "loadavg_start", "query_samples"):
                    self.assertIn(key, context)

    def test_per_layer_metrics_and_checks(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result, _ = run(workload, "1")
                self.check_result(result, self.bench["per_layer"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_corrupted_output_raises_error_rate(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result, context = run(workload, "0", "--inject-mismatch")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(context["error_rate"], 0)


if __name__ == "__main__":
    unittest.main()
