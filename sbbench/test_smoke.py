#!/usr/bin/env python3
"""Tiny-size smoke of both sbbench workloads, untraced and traced.

    python3 sbbench/test_smoke.py        # from the repository root

Each run must exit 0, end its stdout with the result JSON, pass every
correctness gate, and report exactly the metrics BENCHMARK.json declares for
its mode (end_to_end untraced, per_layer traced), each finite and with the
declared unit.  Every workload reports every metric.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        spec = declared()
        self.assertIn(workload, [w["name"] for w in spec["workloads"]])
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stderr[-4000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"]
                 for m in spec["per_layer" if trace else "end_to_end"]}
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(units))
        for name, unit in units.items():
            self.assertEqual(got[name]["unit"], unit, name)
            self.assertTrue(math.isfinite(got[name]["value"]), name)

    def test_fleet_untraced(self):
        self.check("fleet-x500", 0)

    def test_fleet_traced(self):
        self.check("fleet-x500", 1)

    def test_eval_untraced(self):
        self.check("eval-octo", 0)

    def test_eval_traced(self):
        self.check("eval-octo", 1)

    def test_fails_outside_checkout(self):
        # Without the repository's src/ next to it, run.py must refuse.
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "sbbench"))
            proc = subprocess.run(
                [sys.executable, os.path.join(tmp, "sbbench", "run.py"),
                 "--workload", "fleet-x500", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
