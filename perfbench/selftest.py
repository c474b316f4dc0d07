"""Self-tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

Runs every workload at the tiny scale, untraced and traced, and checks that
the printed metrics are exactly the ones BENCHMARK.json declares, that a
seed fixes the inputs, that each wrapped layer is called on exactly the
workloads the layer table predicts, and that a directory holding only the
benchmark fails without printing a result. Takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from run import WORKLOAD_NAMES  # noqa: E402
from tracer import CALLED_ON, LAYER_NAMES, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def tiny_all(trace):
    proc = run_bench("--workload", "all", "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", "tiny")
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.plain_text, cls.plain = tiny_all(0)
        cls.traced_text, cls.traced = tiny_all(1)

    def assert_declared(self, text, results, declared):
        self.assertEqual(set(results), set(WORKLOAD_NAMES))
        for workload, result in results.items():
            self.assertEqual(
                set(result), {"correct", "attempted", "failed", "metrics"}, workload
            )
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            self.assertGreaterEqual(result["attempted"], 1, workload)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(units, declared, workload)
        for name, unit in declared.items():
            self.assertIn(f"  {name} ", text)
            self.assertRegex(text, rf"  {name} \S+ {unit}\n")

    def test_end_to_end_metrics_printed_with_units(self):
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assert_declared(self.plain_text, self.plain, declared)
        self.assertIn("failed_ratio 0 ratio", self.plain_text)

    def test_per_layer_metrics_printed_with_units(self):
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual(declared, {name: unit for name, unit, _ in per_layer_metrics()})
        self.assert_declared(self.traced_text, self.traced, declared)

    def test_layers_called_where_the_table_predicts(self):
        for workload, result in self.traced.items():
            for layer in LAYER_NAMES:
                calls = result["metrics"][f"{layer}.calls"]["value"]
                if workload in CALLED_ON[layer]:
                    self.assertGreater(calls, 0, f"{layer} on {workload}")
                else:
                    self.assertEqual(calls, 0, f"{layer} on {workload}")

    def test_declared_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOAD_NAMES))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        work = str(ROOT / ".perfbench" / "out")
        for name, cls in WORKLOADS.items():
            first = cls(7, "full", work).inputs()
            again = cls(7, "full", work).inputs()
            other = cls(8, "full", work).inputs()
            for key in first:
                np.testing.assert_array_equal(np.asarray(first[key]), np.asarray(again[key]), err_msg=name)
            differs = [not np.array_equal(np.asarray(first[k]), np.asarray(other[k])) for k in first]
            self.assertTrue(any(differs), f"{name}: another seed gives the same inputs")


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_package(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(
                "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare, script=bare / "perfbench" / "run.py",
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
