#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark, runs every workload at smoke size (a small model,
one round) untraced and traced, and checks that each run is correct and
emits every metric BENCHMARK.json names, with its unit. It also checks
that an aggregate frame with one flipped byte is counted as a failed op
and reported, not a crash.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXE = None


def smoke(workload, trace, *extra):
    """Run one smoke-size workload; returns (exit code, result, report)."""
    out_dir = run.target_dir() / "perfbench-test"
    proc = subprocess.run(
        [str(EXE), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke", "--out-dir", str(out_dir), *extra],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = run.parse_result(lines[-1]) if lines else None
    report = json.loads(lines[-2])["report"] if len(lines) >= 2 else None
    return proc.returncode, result, report


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global EXE
        EXE = run.build()
        if EXE is None:
            raise RuntimeError("benchmark build failed")

    def test_spec_names_the_workloads_the_program_runs(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], run.WORKLOADS)

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, report = smoke(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertIsNotNone(result)
                    self.assertTrue(result["correct"], report["failures"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    for stamp in ("seed", "nproc", "simd_detected", "rev"):
                        self.assertIn(stamp, report)
                    if trace == 0:
                        for name in want:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)
                    else:
                        self.assertIn("reconcile_tolerance", report["notes"])

    def test_a_flipped_byte_in_an_aggregate_frame_is_a_failed_op(self):
        code, result, report = smoke("aggregate-resnet50", 0, "--corrupt-frame")
        self.assertEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("wire decode failed", report["failures"][0])


if __name__ == "__main__":
    unittest.main()
