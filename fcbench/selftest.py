"""Self-tests of the benchmark itself (not of the package).

Run from the repository root:  python3 fcbench/selftest.py

They check that workload inputs follow the seed, that a short run prints
every metric BENCHMARK.json names with its unit, that a wrong result is
counted as a failed operation, and that the benchmark refuses to run
without the package source.  Takes about half a minute.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = run.WORK / "selftest"


def first_inputs(workload, seed, n_cycles=3):
    gen = workloads.cycles(workload, seed, map_json="{}")
    return [json.dumps([op.kind, op.doc, op.files, op.runs], sort_keys=True)
            for _ in range(n_cycles) for op in next(gen)]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "fcbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a = first_inputs(workload, 7)
                self.assertEqual(a, first_inputs(workload, 7))
                b = first_inputs(workload, 8)
                self.assertEqual(len(a), len(b))
                self.assertTrue(all(x != y for x, y in zip(a, b)))

    def test_no_input_repeats_within_a_run(self):
        # the spec seed aside, so that a result cache keyed on the physics
        # parameters would find nothing to reuse
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                gen = workloads.cycles(workload, 7, map_json="{}")
                ops = [json.dumps([{k: v for k, v in op.doc.items()
                                    if k != "seed"}, op.files, op.runs],
                                  sort_keys=True)
                       for _ in range(4) for op in next(gen)]
                self.assertEqual(len(set(ops)), len(ops))


class Output(unittest.TestCase):
    def test_short_runs_print_every_named_metric_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                proc = bench("--workload", "t1_sequence", "--seed", "3",
                             "--seconds", "1", "--trace", str(trace))
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"]
                                       for m in spec[key]})
                self.assertIn("# machine ", proc.stdout)
                self.assertIn("# counts ", proc.stdout)

    def test_refuses_to_run_without_the_package_source(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "fcbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "cold_cli", "--seed", "1",
                         "--seconds", "1", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class FailuresCounted(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        self.runner = run.Runner("t1_sequence", SCRATCH, {})
        self.gen = workloads.cycles("t1_sequence", 5, map_json="{}")

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def first(self, kind):
        return next(op for op in next(self.gen) if op.kind == kind)

    def test_correct_result_passes(self):
        latency, diag = self.runner.run(self.first("lac_plan"))
        self.assertIsNotNone(latency)
        self.assertEqual(self.runner.failed, 0)

    def test_wrong_lac_resolution_is_a_failed_op(self):
        from fieldcycle import fieldmap as fm

        real = fm.FieldMap.plan_lac_access

        def off_by_three_percent(self, *args, **kwargs):
            plan = real(self, *args, **kwargs)
            return fm.LacPlan(plan.target_field_T, plan.position_m,
                              plan.gradient_T_per_m * 1.03,
                              plan.resolution_T * 1.03,
                              plan.max_sweep_rate_T_per_s * 1.03)

        with mock.patch.object(fm.FieldMap, "plan_lac_access",
                               off_by_three_percent):
            latency, _ = self.runner.run(self.first("lac_plan"))
        self.assertIsNone(latency)
        self.assertEqual((self.runner.failed, self.runner.attempted), (1, 1))

    def test_wrong_jitter_stream_is_a_failed_op(self):
        from fieldcycle import motion

        with mock.patch.object(motion, "apply_jitter",
                               lambda d, jm: d + 1e-9 + float(jm.draw())):
            latency, _ = self.runner.run(self.first(
                "shuttle_characterization"))
        self.assertIsNone(latency)
        self.assertEqual(self.runner.failed, 1)

    def test_raising_op_is_a_failed_op(self):
        from fieldcycle import orchestrator

        with mock.patch.object(orchestrator, "run",
                               side_effect=RuntimeError("boom")):
            latency, _ = self.runner.run(self.first("lac_plan"))
        self.assertIsNone(latency)
        self.assertEqual(self.runner.failed, 1)
        self.assertIn("boom", self.runner.failures[0])


if __name__ == "__main__":
    unittest.main()
