"""Smoke tests of the benchmark itself (about three minutes on 2 cores).

    python3 perfbench/smoke.py

The file name keeps it out of the package's pytest run; it is plain
unittest.  Each test runs perfbench/run.py as a command, or calls its
main() in this process, at --tiny size where the workload allows it.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def expected_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, kind):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        details, result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], details["failures"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(units, expected_units(kind))
        return details, result

    def test_each_workload_emits_every_metric_with_its_unit(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                proc = bench("--workload", workload["name"], "--seed", "3",
                             "--seconds", "1", "--trace", "0", "--tiny")
                _, result = self.check_result(proc, "end_to_end")
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_wrong_frozen_digest_counts_as_failure(self):
        digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
        victim = next(k for k in sorted(digests) if k.startswith("simulate") and " 500 " in k)
        digests[victim] = "0" * 64
        WORK.mkdir(exist_ok=True)
        bad = WORK / "bad_digests.json"
        bad.write_text(json.dumps(digests), encoding="utf-8")
        out, saved = io.StringIO(), run.DIGESTS
        run.DIGESTS = bad
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "simulate-cli", "--seed", "0",
                                 "--seconds", "1", "--trace", "0", "--tiny"])
        finally:
            run.DIGESTS = saved
        self.assertEqual(code, 0)
        lines = out.getvalue().strip().splitlines()
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(details["details"]["failed_frac"]["value"], 0)
        self.assertIn(victim, json.dumps(details["failures"]))

    def test_traced_run_reports_every_layer_metric(self):
        proc = bench("--workload", "exact-cli", "--seed", "5", "--seconds", "1",
                     "--trace", "1", "--tiny")
        details, result = self.check_result(proc, "per_layer")
        metrics = {n: m["value"] for n, m in result["metrics"].items()}
        self.assertGreaterEqual(details["details"]["traced_pairs"], 2)
        self.assertEqual(metrics["analysis.profile_gate.calls_per_gate"], 2.0)
        self.assertEqual(
            details["details"]["calls_per_gate_by_command"]["analyze --format json"], 2.0)
        self.assertGreater(metrics["exact.mul_calls"], 0)
        self.assertEqual(metrics["simulate.trials"], 0)

    def test_traced_counts_repeat_across_runs(self):
        runs = []
        for _ in range(2):
            proc = bench("--workload", "library-sweep", "--seed", "5", "--seconds", "1",
                         "--trace", "1", "--tiny")
            runs.append(self.check_result(proc, "per_layer")[1])
        counts = [{n: m["value"] for n, m in r["metrics"].items()
                   if m["unit"] in ("count", "bytes")} for r in runs]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["simulate.trials"], 0)
        self.assertEqual(counts[0]["serialize.bytes_out"], 0)
        self.assertEqual(counts[0]["exact.mul_calls"], 0)

    def test_refuses_to_run_without_the_package(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "exact-cli", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare, script=bare / HERE.name / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
