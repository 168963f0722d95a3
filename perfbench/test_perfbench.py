"""Self-checks of the benchmark. Timings are never asserted.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SpecTest(unittest.TestCase):
    def test_benchmark_json_format(self) -> None:
        spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
        self.assertEqual(
            set(spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertIn(spec["run_seconds"], range(1, 61))
        self.assertEqual(set(spec["workloads"][0]), {"name", "why"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


class OutputSchemaTest(unittest.TestCase):
    def check_result(self, result: dict, group: str) -> None:
        spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual([*result["metrics"]], [m["name"] for m in spec[group]])
        for metric in spec[group]:
            value = result["metrics"][metric["name"]]
            self.assertEqual(set(value), {"value", "unit"})
            self.assertEqual(value["unit"], metric["unit"])
            self.assertIsInstance(value["value"], (int, float))

    def test_end_to_end_output(self) -> None:
        result = bench_result("study_grid", trace=0)
        self.check_result(result, "end_to_end")
        for name, value in result["metrics"].items():
            self.assertGreater(value["value"], 0, name)

    def test_traced_output(self) -> None:
        result = bench_result("study_grid", trace=1)
        self.check_result(result, "per_layer")
        metrics = {name: value["value"] for name, value in result["metrics"].items()}
        self.assertGreater(metrics["study.simulate_controller_run.calls"], 0)
        self.assertEqual(metrics["schema.read_event_log.calls"], 0)


class DigestCheckTest(unittest.TestCase):
    def test_flipped_byte_counts_as_failure(self) -> None:
        sys.path.insert(0, str(run.SRC))
        from gatebench.schema import SCHEMA_VERSION

        check = run.OutputCheck(run.load_recorded(SCHEMA_VERSION))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "root"
            code, *_ = run.spawn_verb(["init-root", "--out", str(out)], Path(tmp) / "stderr")
            self.assertEqual(check.check("init-root", code, out), (True, run.tree_digest(out)[1]))

            copy = Path(tmp) / "copy"
            shutil.copytree(out, copy)
            target = sorted(copy.iterdir())[0]
            data = bytearray(target.read_bytes())
            data[len(data) // 2] ^= 0x01
            target.write_bytes(bytes(data))
            ok, _ = check.check("init-root", code, copy)
        self.assertFalse(ok)
        self.assertEqual((check.attempted, check.failed), (2, 1))

    def test_unexpected_exit_code_counts_as_failure(self) -> None:
        check = run.OutputCheck(recorded=None)
        with tempfile.TemporaryDirectory() as tmp:
            self.assertFalse(check.check("any", 1, Path(tmp))[0])
        self.assertEqual(check.failed, 1)


class TracerTest(unittest.TestCase):
    def test_union_of_overlapping_children(self) -> None:
        self.assertAlmostEqual(tracer.covered_length(0.0, 10.0, [(1, 4), (2, 6), (8, 12)]), 7.0)

    def test_patches_every_namespace_and_restores(self) -> None:
        sys.path.insert(0, str(run.SRC))
        import gatebench.runner
        import gatebench.schema

        original = gatebench.schema.canonical_json
        self.assertIs(gatebench.runner.canonical_json, original)
        traced = tracer.Tracer()
        traced.install()
        try:
            self.assertIsNot(gatebench.runner.canonical_json, original)
            gatebench.runner.canonical_json({"a": 1})
            gatebench.schema.canonical_hash({"a": 1})
        finally:
            traced.uninstall()
        self.assertIs(gatebench.runner.canonical_json, original)
        stats = traced.take_pass()
        self.assertEqual(stats["schema.canonical_json.calls"], 2)
        self.assertEqual(stats["schema.canonical_json.bytes"], 14)
        self.assertEqual(stats["schema.canonical_hash.calls"], 1)


if __name__ == "__main__":
    unittest.main()
