"""Smoke tests of the benchmark: every workload at quick scale, in seconds.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Each workload must print every metric of its mode with its unit, fail
nothing, and repeat its work counters exactly under the same seed.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

SEED = 7


def bench(workload, trace, seed=SEED):
    """One quick-scale run: (details line, result line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (workload, trace, proc.returncode,
                                                           proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check(self, workload, trace, expected):
        detail, result = bench(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], detail)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, detail["failures"])
        self.assertEqual(detail["failed_ratio"], 0)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()}, expected
        )
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        self.assertGreaterEqual(detail["host"]["nproc"], 1)
        return detail, result

    def test_every_workload_prints_its_metrics_and_fails_nothing(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                detail, result = self.check(workload, 0, run.END_TO_END)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.assertEqual(set(detail["ungated"]), {"op_p50_ms", "op_p90_ms", "ops_per_s"})
                self.check(workload, 1, run.PER_LAYER)

    def test_work_counters_repeat_under_one_seed(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    first, _ = bench(workload, trace)
                    second, _ = bench(workload, trace)
                    self.assertTrue(first["counters"], workload)
                    self.assertEqual(first["counters"], second["counters"])


class Refusal(unittest.TestCase):
    def test_fails_fast_outside_a_checkout(self):
        """In a directory holding only the benchmark, it exits non-zero
        without a result."""
        where = os.path.join(ROOT, ".bench_build", "perfbench-alone-%d" % os.getpid())
        shutil.rmtree(where, ignore_errors=True)
        try:
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(where, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), where)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper_suite", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=where, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=60,
            )
        finally:
            shutil.rmtree(where, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
