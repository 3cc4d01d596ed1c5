#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the binary the way run.py does, then check that a seed fixes
the workload byte for byte, that tiny runs of every workload pass the
answer gate and print every metric BENCHMARK.json names with its unit,
that a run whose answers are wrong exits non-zero, and that run.py fails
cleanly without the engine sources.
"""
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TEST_DIR = os.path.join(run.WORK_DIR, "test")


def benchmark_spec():
    with open(os.path.join(run.HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        os.makedirs(TEST_DIR, exist_ok=True)

    def perfbench(self, *args):
        out = subprocess.run([self.binary, "--work", TEST_DIR] + list(args),
                             capture_output=True, text=True, timeout=170,
                             env=run.clean_env())
        self.assertEqual(out.returncode, 0, out.stderr)
        return out.stdout

    def dump(self, workload, seed, name):
        path = os.path.join(TEST_DIR, name)
        self.perfbench("--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", "0",
                       "--dump-workload", path)
        return path

    def test_seed_fixes_the_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.dump(workload, 7, workload + "-a")
                b = self.dump(workload, 7, workload + "-b")
                c = self.dump(workload, 8, workload + "-c")
                self.assertTrue(filecmp.cmp(a, b, shallow=False))
                self.assertFalse(filecmp.cmp(a, c, shallow=False))

    def test_tiny_runs_pass_the_gate_and_print_every_metric(self):
        spec = benchmark_spec()
        for workload in run.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    stdout = self.perfbench(
                        "--workload", workload, "--seed", "3", "--seconds",
                        "1", "--trace", trace, "--scale", "tiny")
                    result = json.loads(stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed",
                                         "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if key == "end_to_end":
                            self.assertGreater(m["value"], 0, name)

    def test_wrong_answers_fail_the_run(self):
        # --perturb-reference 1 moves each expected probability by one ulp.
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                out = subprocess.run(
                    [self.binary, "--work", TEST_DIR, "--workload", workload,
                     "--seed", "3", "--seconds", "1", "--trace", "0",
                     "--scale", "tiny", "--perturb-reference", "1"],
                    capture_output=True, text=True, timeout=170,
                    env=run.clean_env())
                self.assertNotEqual(out.returncode, 0)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_run_fails_without_engine_sources(self):
        bare = os.path.join(TEST_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(run.HERE, "..", "BENCHMARK.json"), bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan-warm",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
