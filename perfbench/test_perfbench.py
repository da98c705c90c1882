#!/usr/bin/env python3
"""Tests of the benchmark itself, on short configurations of each workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; the first test builds the benchmark binary.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark runner; imported for its tables)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per-layer metrics that must be positive in a workload's traced run.
MAIN_LAYERS = {
    "paper_figures": ("cpusim.tick_ns_per_core_tick", "specsim.process_ns_per_core_tick",
                      "specsim.busy_pct", "policy.daemon_step_us"),
    "fleet_diurnal": ("cpusim.tick_ns_per_core_tick", "specsim.websearch_ns_per_core_tick",
                      "specsim.busy_pct", "cluster.leaf_period_ms", "cluster.fleet_collect_ms"),
    "cluster_hold": ("cluster.leaf_period_ms", "cpusim.c0_pct", "cluster.arbitrate_us",
                     "cluster.live_leaves"),
}


def bench(workload, trace, seed=1, cwd=ROOT, extra=("--quick",)):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_of(proc):
    m = re.search(r"perfbench: digest ([0-9a-f]{16}) setup_digest ([0-9a-f]{16})", proc.stderr)
    return m.groups() if m else None


class ContractTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_keys_names_and_bounds(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in self.spec["end_to_end"])}])

    def test_non_finite_metrics_are_not_valid(self):
        # The binary prints a non-finite metric as null.
        self.assertFalse(run.valid(None))
        self.assertFalse(run.valid(float("nan")))
        self.assertTrue(run.valid(0.0))

    def test_percentile_matches_the_program(self):
        # papd::Percentile's linear interpolation.
        self.assertEqual(run.percentile([4.0, 1.0, 3.0, 2.0], 50.0), 2.5)
        self.assertAlmostEqual(run.percentile(list(range(11)), 90.0), 9.0)
        self.assertEqual(run.percentile([7.0], 90.0), 7.0)

    def test_measured_layers_are_declared(self):
        declared = {m["name"] for m in self.spec["per_layer"]}
        for workload, layers in run.MEASURED_LAYERS.items():
            self.assertLessEqual(layers, declared, workload)

    def test_sources_measure_the_serial_program(self):
        # No thread pool, no sweep/batch fan-out, no Rack; the binary also
        # checks at run time that its process ran a single thread.
        forbidden = re.compile(r"ThreadPool|RunSweep|RunScenarios|RunWebsearches|rack\.h|\bRack\b")
        for name in os.listdir(os.path.join(HERE, "cc")):
            with open(os.path.join(HERE, "cc", name)) as f:
                self.assertIsNone(forbidden.search(f.read()), name)


class WorkloadTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        if trace:
            # A layer the workload does not exercise reads 0; its main ones do not.
            measured = run.MEASURED_LAYERS[workload]
            for m in wanted:
                if m["name"] not in measured:
                    self.assertEqual(result["metrics"][m["name"]]["value"], 0, m["name"])
            for name in MAIN_LAYERS[workload]:
                self.assertIn(name, measured)
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_paper_figures(self):
        self.check("paper_figures", 0)
        self.check("paper_figures", 1)

    def test_fleet_diurnal(self):
        self.check("fleet_diurnal", 0)
        self.check("fleet_diurnal", 1)

    def test_cluster_hold(self):
        self.check("cluster_hold", 0)
        self.check("cluster_hold", 1)

    def test_digest_follows_the_seed(self):
        for workload in run.WORKLOADS:
            a = digest_of(bench(workload, 0, seed=1))
            b = digest_of(bench(workload, 0, seed=1))
            c = digest_of(bench(workload, 0, seed=2))
            self.assertIsNotNone(a)
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a[0], c[0], workload)

    def test_traced_and_untraced_digests_agree(self):
        for workload in run.WORKLOADS:
            self.assertEqual(digest_of(bench(workload, 0)), digest_of(bench(workload, 1)),
                             workload)

    def test_fails_without_the_program(self):
        # A checkout holding only BENCHMARK.json and perfbench/ must fail
        # without printing a result.
        lone = os.path.join(ROOT, ".bench_build", "lone_checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_figures", "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=lone, capture_output=True, text=True,
            timeout=180)
        shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
