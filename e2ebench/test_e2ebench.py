"""The benchmark's own tests.

    python3 -m unittest e2ebench/test_e2ebench.py     (from the repo root)

Each test drives run.py the way the benchmark is run, on seconds-long
(--tiny) inputs: every metric BENCHMARK.json names comes out with its
unit, a falsified objective or daemon response is caught, the exact
work counters repeat, and a directory without the sources yields no
result.  The first test to run pays the build.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.abspath(
    os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(workload, *extra, trace=0, seed=3, cwd=ROOT):
    """run.py's exit status, last stdout line (parsed), and exact
    counters (the 'exact' line it prints)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0:
        return out.returncode, None, None
    exact = next(json.loads(line[len("exact "):]) for line in lines
                 if line.startswith("exact "))
    return out.returncode, json.loads(lines[-1]), exact


class MetricsTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_with_its_unit(self):
        for w in BENCHMARK["workloads"]:
            for trace, declared in ((0, BENCHMARK["end_to_end"]),
                                    (1, BENCHMARK["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    status, result, _ = run(w["name"], trace=trace)
                    self.assertEqual(status, 0)
                    self.check_metrics(result, declared)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_exact_counters_repeat(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                _, _, first = run(w["name"])
                _, _, second = run(w["name"])
                self.assertEqual(first, second)


class CorruptionTest(unittest.TestCase):
    def test_corrupted_objective_fails(self):
        status, result, _ = run("search-thermal", "--corrupt", "objective")
        self.assertEqual(status, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_corrupted_response_fails(self):
        status, result, _ = run("daemon-mixed", "--corrupt", "response")
        self.assertEqual(status, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


class NoSourcesTest(unittest.TestCase):
    def test_no_result_without_sources(self):
        bare = os.path.join(BUILD_ROOT, "e2ebench", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
        out = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload",
             "search-thermal", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
