"""Smoke test of the benchmark: a tiny run of every workload.

    python3 -m pytest perfbench/test_smoke.py     (or python3 -m unittest)

Each run must print every end-to-end metric of BENCHMARK.json with its
unit and no failure; a traced run must print every per-layer metric; and
without the package beside it the benchmark must exit non-zero without a
result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# enough leading ops of a pass to include verify runs and a main command
# (a sweep's verify runs come first)
TINY_OPS = {
    "bundled": 4,
    **{name: 1 + sum(op.command == "verify" for op in sweep(1)) for name, sweep in gen.SWEEPS.items()},
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


class SmokeTest(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual(set(TINY_OPS), {w["name"] for w in SPEC["workloads"]})

    def test_tiny_run_of_each_workload(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload, ops in TINY_OPS.items():
            with self.subTest(workload=workload):
                res = result_of(bench(
                    "--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", "0", "--ops", str(ops),
                ))
                self.assertEqual(res["failed"], 0)
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], ops)
                self.assertEqual(units(res["metrics"]), expected)
                self.assertTrue(all(m["value"] > 0 for m in res["metrics"].values()))

    def test_traced_run_prints_layers(self):
        res = result_of(bench(
            "--workload", "depth_sweep", "--seed", "1", "--seconds", "1",
            "--trace", "1", "--ops", "3",
        ))
        self.assertEqual(res["failed"], 0)
        self.assertEqual(units(res["metrics"]), {m["name"]: m["unit"] for m in SPEC["per_layer"]})
        self.assertGreater(res["metrics"]["depth.antistable_check.calls"]["value"], 0)

    def test_generated_cases_are_json_and_seeded(self):
        for name, sweep in gen.SWEEPS.items():
            with self.subTest(workload=name):
                ops = sweep(7)
                self.assertEqual(ops, sweep(7))
                self.assertNotEqual(ops, sweep(8))
                for op in ops:
                    self.assertEqual(json.loads(json.dumps(op.instance)), op.instance)

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory(prefix=".bench_smoke-", dir=ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path)
            proc = bench("--workload", "bundled", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
