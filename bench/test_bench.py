"""Tests of the benchmark itself, on scaled-down workloads.

    python3 bench/test_bench.py

The smoke passes swap in small models that have golden digests (order 12,
``batch --n 3 --order 12``, one measure model) and check that every metric
BENCHMARK.json names is emitted with its unit, that a corrupted golden is
counted as a failed operation, and that the benchmark refuses to run in a
directory without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE = {
    "VERIFY_OPS": (("2,2", 12), ("3,3,3", 12)),
    "BATCH_N": 3,
    "BATCH_ORDER": 12,
    "MEASURE_OPS": {("3,3,3", 800): run.MEASURE_OPS[("3,3,3", 800)]},
    "SETUP_REPEATS": 1,
}


def smoke(workload, trace, goldens=None):
    with mock.patch.multiple(run, **SMOKE):
        return run.run_benchmark(workload, seed=7, seconds=0, trace=trace, goldens=goldens)


def units(metrics):
    return {name: entry["unit"] for name, entry in metrics.items()}


class SmokeTest(unittest.TestCase):
    def test_end_to_end_metrics_named_with_units(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                info, result = smoke(workload, trace=False)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(units(result["metrics"]), expected)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                self.assertEqual(result["metrics"]["success_rate"]["value"], 1.0)
                self.assertEqual(info["stamp"]["cpu_count"], run.os.cpu_count())

    def test_layer_metrics_named_with_units(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        metrics = {}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                _, result = smoke(workload, trace=True)
                self.assertTrue(result["correct"])
                self.assertEqual(units(result["metrics"]), expected)
                metrics[workload] = {k: v["value"] for k, v in result["metrics"].items()}
        # The batch workload crosses every layer except the measure path.
        for name in ("series.mul.calls", "inversion.product_check.calls",
                     "mirror.alpha.calls", "cli.write_atomic.calls", "batch.pool_efficiency"):
            self.assertGreater(metrics["batch-n4"][name], 0, name)
        self.assertGreater(metrics["measure-sweep"]["mirror.measure.s"], 0)
        self.assertEqual(metrics["measure-sweep"]["series.mul.calls"], 0)

    def test_corrupted_golden_is_a_failure(self):
        for workload, section, key in (
            ("verify-deep", "stdout", " ".join(run.verify_argv("3,3,3", 12))),
            ("batch-n4", "batch", run.batch_key(3, 12)),
        ):
            with self.subTest(workload=workload):
                goldens = json.loads(run.GOLDENS.read_text())
                if section == "stdout":
                    goldens["stdout"][key] = "0" * 64
                else:
                    goldens["batch"][key]["3,3,3"] = "0" * 64
                _, result = smoke(workload, trace=False, goldens=goldens)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                error_rate = 1.0 - result["metrics"]["success_rate"]["value"]
                self.assertGreater(error_rate, 0.0)

    def test_refuses_a_directory_without_sources(self):
        bare = run.WORK_ROOT / f"bare-{run.os.getpid()}"
        try:
            shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            done = subprocess.run(
                SPEC["command"] + ["--workload", "verify-deep", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            run.remove_work_root()
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


class RegressionGoldenTest(unittest.TestCase):
    """Every n <= 4 model at order 12 and the quintic at order 8, byte for byte."""

    def test_verify_outputs_match_goldens(self):
        goldens = json.loads(run.GOLDENS.read_text())["stdout"]
        keys = [k for k in goldens if k.startswith("verify") and
                (" --order 12 " in k or k.startswith("verify --model 5,5,5,5,5 --order 8 "))]
        self.assertEqual(len(keys), 19)
        work = run.WORK_ROOT / f"regression-{run.os.getpid()}"
        try:
            run.set_up(work)
            env = run.child_env(work)
            for key in keys:
                code, out = run.run_child(
                    run.mahlerq_command(key.split()), env, work / "op.err"
                )
                with self.subTest(command=key):
                    self.assertEqual(code, 0)
                    self.assertEqual(run.sha256(out), goldens[key])
        finally:
            shutil.rmtree(work, ignore_errors=True)
            run.remove_work_root()


if __name__ == "__main__":
    unittest.main()
