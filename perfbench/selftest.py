"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Smoke runs of every workload at a small batch size check that each declared
metric is printed with its unit, that no item fails, and that the result
digest repeats across runs and between traced and untraced passes.  The
negative cases perturb one answer of the library and expect the oracles to
flag exactly that item, so the correctness gate cannot pass vacuously.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_blas_threads()
run.import_library()

import workloads  # noqa: E402
from starprob import lattice as lat  # noqa: E402
from starprob import randomvars as rv  # noqa: E402
from starprob import similarity as sim  # noqa: E402

SMOKE_ITEMS = {"ray_lattice": 8, "ray_similarity": 40, "discrete_fields": 12}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--items", str(SMOKE_ITEMS[workload])],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True)
    report, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(result)


class SmokeRuns(unittest.TestCase):
    def test_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                first, res = bench(w["name"], 3, 0)
                again, _ = bench(w["name"], 3, 0)
                traced, layer = bench(w["name"], 3, 1)

                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertEqual(first["error_share"], 0.0)
                self.assertTrue(first["digest_stable"])
                self.assertEqual(first["digest"], again["digest"])
                self.assertEqual(first["digest"], traced["digest"])

                for group, got in (("end_to_end", res), ("per_layer", layer)):
                    units = {m["name"]: m["unit"] for m in SPEC[group]}
                    self.assertEqual(
                        {k: v["unit"] for k, v in got["metrics"].items()}, units)
                self.assertGreater(layer["metrics"]["lattice.calls"]["value"], 0)

    def test_seed_changes_the_inputs(self):
        a, _ = bench("ray_similarity", 3, 0)
        b, _ = bench("ray_similarity", 4, 0)
        self.assertNotEqual(a["digest"], b["digest"])


class PerturbedAnswers(unittest.TestCase):
    """One wrong answer from the library must fail exactly its item."""

    def run_perturbed(self, name: str, module, attr: str, perturb, nth: int = 2):
        workload = workloads.WORKLOADS[name]
        batch = run.make_batch(workload, 5, SMOKE_ITEMS[name])
        original = getattr(module, attr)
        calls = []

        def once(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append(None)
            return perturb(out) if len(calls) == nth else out

        with mock.patch.object(module, attr, once):
            result = run.run_pass(workload, batch)
        self.assertGreaterEqual(len(calls), nth)
        self.assertEqual(len(result["failed"]), 1, result["problems"])
        clean = run.run_pass(workload, batch)
        self.assertEqual(clean["failed"], [])

    def test_lattice_distributes_flipped(self):
        self.run_perturbed("ray_lattice", lat, "distributes", lambda ok: not ok)

    def test_similarity_value_shifted(self):
        self.run_perturbed(
            "ray_similarity", sim, "subspace_similarity",
            lambda est: dataclasses.replace(est, value=est.value + 0.05))

    def test_expectation_shifted(self):
        self.run_perturbed(
            "discrete_fields", rv, "expectation",
            lambda ex: dataclasses.replace(ex, value=ex.value + 0.01))


if __name__ == "__main__":
    unittest.main()
