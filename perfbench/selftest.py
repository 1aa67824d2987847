"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Same seed, same inputs; the checker rejects tampered payloads and bad exit
codes; two traced passes give identical counts; a pass without tracing
leaves every tensorlab function unwrapped; a tracer whose work count fails
leaves the program's call untouched.  Passes here run a plan that holds a few
cheap cases of each workload.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from tensorlab import cli  # noqa: E402

CHEAP = {
    "terracini": ["t.symsub", "t.segre2222scan"],
    "kron": ["k.rect", "k.weyl"],
    "search": ["s.orient-cube", "s.orient-k33", "s.mgi9-bad", "s.bruteforce-w4", "s.gurvits8"],
}


class Scratch(unittest.TestCase):
    def setUp(self):
        run.STATE.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.STATE))

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class InputTests(Scratch):
    def files(self, seed: int, name: str) -> dict:
        inputs.build(seed, self.dir / name)
        return {p.name: p.read_bytes() for p in sorted((self.dir / name).iterdir())}

    def test_same_seed_gives_identical_inputs(self):
        first, again, other = self.files(7, "a"), self.files(7, "b"), self.files(8, "c")
        self.assertEqual(first, again)
        self.assertEqual(first.keys(), other.keys())
        self.assertNotEqual(first, other)

    def test_every_case_is_planned_with_a_reason(self):
        plan = inputs.build(3, self.dir / "p")
        self.assertEqual(sorted(plan["cases"]), sorted(c for _, c, _ in inputs.CASES))
        for case in plan["cases"].values():
            self.assertTrue(case["why"] and case["steps"])


class CheckerTests(Scratch):
    def run_step(self, case: str, k: int = 0):
        plan = inputs.build(5, self.dir / "in")
        step = plan["cases"][case]["steps"][k]
        out = self.dir / f"{case}.jsonl"
        argv = [str(self.dir / "in" / a[1:]) if a.startswith("@") else a for a in step["argv"]]
        code = cli.main(argv + ["--seed", "5", "--output", str(out)])
        return step["expect"], code, checks.read_records(out)

    def test_accepts_real_payloads(self):
        for case in ("s.orient-cube", "k.weyl", "k.rect", "s.mgi9-bad", "t.segre2222scan"):
            expect, code, records = self.run_step(case)
            self.assertEqual(checks.check_step(expect, code, records), [], case)

    def test_rejects_tampered_payload(self):
        expect, code, records = self.run_step("s.orient-cube")
        tampered = json.loads(json.dumps(records))
        signs = tampered[0]["payload"]["orientation"]["signs"]
        signs[0] = -signs[0]  # |Pf| no longer equals the matching count
        self.assertTrue(checks.check_step(expect, code, tampered))
        expect, code, records = self.run_step("k.weyl")
        records[0]["payload"]["invariant_exists"] = not records[0]["payload"]["invariant_exists"]
        self.assertTrue(checks.check_step(expect, code, records))

    def test_rejects_wrong_exit_code_and_errors(self):
        expect, _, records = self.run_step("k.weyl")
        self.assertEqual(checks.check_step(expect, 2, records), ["exit code 2"])
        self.assertTrue(checks.check_step(expect, None, records, "Traceback ..."))
        self.assertEqual(checks.check_step(expect, 0, []), ["no record written"])


class PassTests(Scratch):
    def spawn(self, workload: str, trace: int) -> dict:
        plan_dir = self.dir / "in"
        if not plan_dir.exists():
            # a plan that holds only the cheap cases: a pass runs what its plan holds
            plan = inputs.build(11, plan_dir)
            plan["cases"] = {c: v for c, v in plan["cases"].items() if c in sum(CHEAP.values(), [])}
            (plan_dir / "plan.json").write_text(json.dumps(plan))
        out = Path(tempfile.mkdtemp(dir=self.dir))
        result = run._spawn(["--plan", str(plan_dir / "plan.json"), "--workload", workload,
                             "--work", str(out), "--trace", str(trace)], self.dir / "result.json", 120)
        self.assertIsNotNone(result)
        self.assertEqual(result["cases"], CHEAP[workload])
        self.assertEqual(result["failures"], {})
        return result

    def test_traced_passes_repeat_counts(self):
        counted = {name for name, unit in tracing.per_layer_metrics() if unit == "count"}
        for workload in CHEAP:
            first, second = self.spawn(workload, 1), self.spawn(workload, 1)
            self.assertEqual(first["absent"], [])
            self.assertTrue(first["wrapped_during_pass"])
            self.assertEqual(first["wrapped_after_pass"], [])
            counts = {k: v for k, v in first["layers"].items() if k in counted}
            self.assertEqual(counts, {k: v for k, v in second["layers"].items() if k in counted})
            self.assertTrue(any(counts.values()), workload)

    def test_untraced_pass_installs_no_wrapper(self):
        for workload in CHEAP:
            result = self.spawn(workload, 0)
            self.assertEqual(result["wrapped_during_pass"], [])
            self.assertNotIn("layers", result)


class TracerTests(unittest.TestCase):
    def test_missing_target_is_absent_and_uninstall_restores(self):
        original = cli.run
        spans = tracing.SPANS
        tracing.SPANS = spans + [("linalg", "no_such_function", "linalg.no_such_function", None)]
        try:
            t = tracing.Tracer()
            t.install()
            self.assertIsNot(cli.run, original)
            t.uninstall()
        finally:
            tracing.SPANS = spans
        self.assertEqual(t.absent, ["linalg.no_such_function"])
        self.assertIs(cli.run, original)
        self.assertEqual(tracing.wrapped_names(), [])
        self.assertEqual(set(t.metrics({})), {n for n, _ in tracing.per_layer_metrics()} - {"trace.overhead_s"})

    def test_failing_work_count_is_absent_and_call_passes_through(self):
        from tensorlab import kronecker
        spans = tracing.SPANS
        tracing.SPANS = [("kronecker", "kronecker_coefficient", "kronecker.kronecker_coefficient",
                          lambda a, k, r: r.no_such_field)]
        try:
            t = tracing.Tracer()
            t.install()
            try:
                lam = kronecker.Partition.of((2, 1))
                value = kronecker.kronecker_coefficient(lam, lam, lam)
            finally:
                t.uninstall()
        finally:
            tracing.SPANS = spans
        self.assertEqual(value, 1)
        self.assertEqual(t.absent, ["kronecker.kronecker_coefficient.work"])
        self.assertEqual(len(t.spans), 1)

    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], tracing.per_layer_metrics())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))


class SpeedometerTests(unittest.TestCase):
    def test_scaled_leaves_out_samples_and_uses_their_speed(self):
        speed = passrun.Speedometer((0.0, 0.1, 0.1, 2.0))
        speed.samples += [(1.0, 1.02, 0.01, 1.0), (2.0, 2.02, 0.01, 0.5)]
        # both later samples fall in the case: their own time is left out
        wall, cpu = speed.scaled(0.5, 2.5, 2.0, 1.5)
        self.assertAlmostEqual(wall, (2.0 - 0.04) * 0.75)
        self.assertAlmostEqual(cpu, (1.5 - 0.02) * 0.75)
        # a case between two samples takes the speed of the two nearest
        self.assertAlmostEqual(speed.scaled(1.2, 1.3, 0.1, 0.1)[0], 0.1 * 0.75)

    def test_sampling_thread_stops(self):
        with passrun.Speedometer(passrun.reference_speed(1)) as speed:
            time.sleep(3 * passrun.SAMPLE_EVERY_S)
        self.assertFalse(speed._thread.is_alive())
        self.assertGreaterEqual(len(speed.samples), 2)
        self.assertTrue(all(end > start and cpu > 0 and rate > 0 for start, end, cpu, rate in speed.samples))


class NoSourcesTests(Scratch):
    def test_exits_nonzero_without_the_program(self):
        (self.dir / "perfbench").mkdir()
        for path in HERE.glob("*.py"):
            shutil.copy(path, self.dir / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", self.dir)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kron", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=self.dir, capture_output=True,
                              text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
