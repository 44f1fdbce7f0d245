#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/selftest.py

From the root of a checkout. Checks every metric name and unit of
BENCHMARK.json, run.py's aggregation and failure accounting on made-up
repetitions, one whole `fair-eps` run of the benchmark, and builds and
runs the C++ tests (perfbench_tests: decorator bit-identity, doctored
RunMetrics, histogram) in .bench_build/perfbench-tests.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class MetricTables(unittest.TestCase):
    def test_names_and_units(self):
        for table in (bench.END_TO_END, bench.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)
        self.assertFalse(set(bench.END_TO_END) & set(bench.PER_LAYER))
        self.assertIn("setup_s", bench.END_TO_END)


def rep(mode="dark", run_s=3.0, reference_s=0.3, jobs=10, **metrics):
    """A made-up repetition result, shaped like perfbench_sim's: every
    metric of both tables is 1.0 unless given, and only a traced
    repetition has the layer timers."""
    m = {name: 1.0 for name in list(bench.END_TO_END) + list(bench.PER_LAYER)
         if mode == "traced" or not (name.startswith(("sched.", "cluster."))
                                     or name == "sim.engine_self_s")}
    m.pop("trace.overhead_share")
    m.update({"sim.run_s": run_s, "setup_s": run_s / 100,
              "host.reference_s": reference_s}, **metrics)
    return {"jobs": jobs, "jobs_failed": 0, "mode": mode, "digest": "d",
            "messages": [], "metrics": m}


class Summaries(unittest.TestCase):
    def test_host_seconds_are_read_at_the_reference_speed(self):
        # The same work on a host running at 2/3, 1x and 4/3 the speed.
        reps = [rep(run_s=2.0, reference_s=0.2), rep(run_s=3.0),
                rep(run_s=4.0, reference_s=0.4)]
        m = bench.summarize(reps, 0)["metrics"]
        self.assertAlmostEqual(m["wall_s"]["value"], 10 * bench.REFERENCE_S)
        self.assertAlmostEqual(m["setup_s"]["value"], 0.1 * bench.REFERENCE_S)

    def test_every_metric_is_reported(self):
        reps = [rep(), rep("traced"), rep(), rep("traced")]
        for trace, table in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
            with self.subTest(trace=trace):
                result = bench.summarize(reps, trace)
                self.assertTrue(result["correct"])
                self.assertEqual((result["attempted"], result["failed"]),
                                 (40, 0))
                self.assertEqual(
                    {k: m["unit"] for k, m in result["metrics"].items()},
                    table)

    def test_layer_timers_come_from_the_traced_repetition(self):
        dark = {"sim.ns_per_event": 100.0, "workload.generate_s": 0.01}
        traced = {"sim.ns_per_event": 130.0, "workload.generate_s": 0.02,
                  "sched.pick.total_s": 1.5, "sim.engine_self_s": 2.0}
        reps = [rep(run_s=3.0, **dark), rep("traced", run_s=3.6, **traced)]
        m = {k: v["value"]
             for k, v in bench.summarize(reps, 1)["metrics"].items()}
        self.assertEqual(m["sim.ns_per_event"], 100.0)
        self.assertEqual(m["workload.generate_s"], 0.01)
        self.assertEqual(m["sched.pick.total_s"], 1.5)
        self.assertEqual(m["sim.engine_self_s"], 2.0)
        self.assertEqual(m["sim.run_s"], 3.6)
        self.assertAlmostEqual(m["trace.overhead_share"], 0.2)

    def test_changed_digest_fails_the_repetition(self):
        reps = [rep(), rep("traced"), rep(), rep("traced")]
        reps[1]["digest"] = "0" * 16
        result = bench.summarize(reps, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 10)

    def test_aborted_repetition_fails_all_its_jobs(self):
        reps = [rep(), rep(), rep(),
                {"jobs": 10, "jobs_failed": 10, "mode": "dark",
                 "messages": ["exit -6"]}]
        result = bench.summarize(reps, 0)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (40, 10))

    def test_no_passing_repetition_reports_no_metrics(self):
        result = bench.summarize([rep("traced")], 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})


class WholeRun(unittest.TestCase):
    """One traced run of `fair-eps`, the shortest workload, end to end."""

    @classmethod
    def setUpClass(cls):
        proc = subprocess.run(
            [sys.executable, str(bench.HERE / "run.py"), "--workload",
             "fair-eps", "--seed", "3", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, cwd=bench.ROOT)
        cls.code = proc.returncode
        cls.result = json.loads(proc.stdout.splitlines()[-1])

    def test_passes_and_reports_every_layer_metric(self):
        self.assertEqual(self.code, 0)
        self.assertTrue(self.result["correct"])
        self.assertEqual(self.result["failed"], 0)
        self.assertEqual(self.result["attempted"],
                         bench.MIN_REPS[1] * 200)
        metrics = self.result["metrics"]
        self.assertEqual({k: m["unit"] for k, m in metrics.items()},
                         bench.PER_LAYER)
        for name, m in metrics.items():
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_timed_parts_fit_in_the_run(self):
        m = {k: v["value"] for k, v in self.result["metrics"].items()}
        self.assertGreaterEqual(m["sim.engine_self_s"], 0.0)
        self.assertLessEqual(m["sched.self_s"], m["sim.run_s"])
        # Fair defers no reduces, so nothing is planned.
        self.assertEqual(m["sched.plan.calls"], 0)

    def test_unknown_workload_is_refused(self):
        result = bench.run_rep("no-such-workload", 1, "dark")
        self.assertEqual(result["jobs_failed"], result["jobs"])


class CppTests(unittest.TestCase):
    def test_perfbench_tests(self):
        build = bench.ROOT / ".bench_build" / "perfbench-tests"
        env = dict(os.environ, TMPDIR=str(bench.BUILD / "tmp"))
        (bench.BUILD / "tmp").mkdir(parents=True, exist_ok=True)
        for cmd in (["cmake", "-S", str(bench.HERE), "-B", str(build),
                     "-DCMAKE_BUILD_TYPE=Release", "-DPERFBENCH_TESTS=ON"],
                    ["cmake", "--build", str(build), "--target",
                     "perfbench_tests", "-j", "4"],
                    [str(build / "perfbench_tests")]):
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=env)
            self.assertEqual(proc.returncode, 0,
                             proc.stdout[-3000:] + proc.stderr[-3000:])


if __name__ == "__main__":
    unittest.main(verbosity=2)
