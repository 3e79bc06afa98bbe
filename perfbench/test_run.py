#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny-scale run of every workload, end to
end and traced, through run.py itself.

    python3 perfbench/test_run.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that every output check passes, and that a run outside the repository
fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace, section):
        p = bench(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = {m["name"] for m in SPEC[section]}
        self.assertEqual(set(result["metrics"]), names)
        for m in SPEC[section]:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # The human-readable report names every metric with its unit.
            self.assertTrue(
                any(line.strip().startswith(f"{m['name']} = ") and line.endswith(m["unit"])
                    for line in lines[:-1]), m["name"])
        return result["metrics"]

    def test_end_to_end_metrics_print_and_checks_pass(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 0, "end_to_end")
                for name in ("invocations_per_s", "setup_s", "peak_rss_mib"):
                    self.assertGreater(m[name]["value"], 0, name)

    def test_per_layer_metrics_print_and_checks_pass(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 1, "per_layer")
                self.assertGreater(m["faas.router.calls"]["value"], 0)
                self.assertGreater(m["sim_core.events"]["value"], 0)

    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            p = bench("warm-cluster", 0, cwd=d, script=os.path.join(d, "perfbench", "run.py"))
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
