#!/usr/bin/env python3
"""Self-checks of the repo benchmark.

    python3 perfbench/test_perfbench.py            # everything (~7 min)
    python3 perfbench/test_perfbench.py JudgeRule  # the comparator rule only

Run from the repository root. The end-to-end checks drive run.py at
scale factor SF for runs of SECONDS seconds over SEEDS seeds:

  * a seeded wrong result makes the command fail, on every workload;
  * an unchanged rerun compares clean;
  * a ~20% delay added on the harness side after one layer call
    (core.plan, the planner) is flagged on that metric and workload and
    nowhere else.

Base, rerun and delayed runs are interleaved seed by seed, rotating which
goes first, so drift of the machine's speed hits all three alike.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import compare  # noqa: E402

SF = "0.1"
SECONDS = "3"
SEEDS = 8


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace), "--sf", SF,
           "--seconds", SECONDS] + list(extra)
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


class JudgeRule(unittest.TestCase):
    """The comparator's flagging rule on synthetic runs."""

    base = {s: 100.0 + d for s, d in enumerate([-2, -1, 0, 1, 2, 0, 1, -1])}

    def test_unchanged_is_same(self):
        verdict, _ = compare.judge(self.base, dict(self.base), 0.1, None)
        self.assertEqual(verdict, "same")

    def test_twenty_percent_is_flagged(self):
        slower = {s: v * 1.2 for s, v in self.base.items()}
        self.assertEqual(compare.judge(self.base, slower, 0.1, None)[0],
                         "flagged")
        self.assertEqual(compare.judge(self.base, slower, 0.1, "lower")[0],
                         "flagged")
        # An improvement is not a regression of an end-to-end metric.
        self.assertEqual(compare.judge(self.base, slower, 0.1, "higher")[0],
                         "same")

    def test_change_inside_the_noise_is_same(self):
        noisy = {s: 100.0 + 30 * (-1) ** s for s in range(8)}
        shifted = {s: v * 1.15 for s, v in noisy.items()}
        self.assertEqual(compare.judge(noisy, shifted, 0.1, None)[0], "same")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = {s: 100.0 + 30 * (-1) ** s for s in range(8)}
        self.assertEqual(compare.judge(noisy, dict(noisy), 0.1, "lower")[0],
                         "unresolved")

    def test_large_regression_beyond_noisy_base_is_flagged(self):
        noisy = {s: 100.0 + 30 * (-1) ** s for s in range(8)}
        doubled = {s: v * 2 for s, v in noisy.items()}
        self.assertEqual(compare.judge(noisy, doubled, 0.1, "lower")[0],
                         "flagged")
        third = {s: v / 3 for s, v in noisy.items()}
        self.assertEqual(compare.judge(noisy, third, 0.1, "higher")[0],
                         "flagged")

    def test_noisy_base_with_every_new_run_better_is_same(self):
        noisy = {s: 100.0 + 30 * (-1) ** s for s in range(8)}
        faster = {s: v / 3 for s, v in noisy.items()}
        self.assertEqual(compare.judge(noisy, faster, 0.1, "lower")[0],
                         "same")


class WrongResultFails(unittest.TestCase):
    def test_corrupt_output_fails_every_workload(self):
        for w in load_bench()["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], 1, 0, "--seconds", "1", "--corrupt")
                self.assertNotEqual(proc.returncode, 0)
                result = json.loads(proc.stdout.strip().split("\n")[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class ComparatorSelfCheck(unittest.TestCase):
    WORKLOADS = ["olap-kiss", "point-lookup"]

    @classmethod
    def setUpClass(cls):
        build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        cls.tmp = os.path.join(ROOT, build_root, "perfbench-selfcheck")
        shutil.rmtree(cls.tmp, ignore_errors=True)
        cls.dirs = {v: os.path.join(cls.tmp, v)
                    for v in ("base", "rerun", "delayed")}
        variants = [("base", []), ("rerun", []),
                    ("delayed", ["--slow-plan"])]
        for seed in range(1, SEEDS + 1):
            rotated = variants[seed % 3:] + variants[:seed % 3]
            for workload in cls.WORKLOADS:
                for trace in (0, 1):
                    for name, extra in rotated:
                        proc = run(workload, seed, trace, "--save",
                                   cls.dirs[name], *extra)
                        if proc.returncode != 0:
                            raise RuntimeError("%s %s seed %d failed:\n%s%s" % (
                                name, workload, seed, proc.stdout[-2000:],
                                proc.stderr[-2000:]))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def flagged(self, new):
        rows = compare.compare(self.dirs["base"], self.dirs[new])
        for verdict, workload, metric, detail in rows:
            if verdict != "same":
                print("  %s: %s %s %s %s" % (new, verdict, workload, metric,
                                              detail))
        return {(w, m) for v, w, m, _ in rows if v == "flagged"}

    def test_unchanged_rerun_compares_clean(self):
        self.assertEqual(self.flagged("rerun"), set())

    def test_delay_is_flagged_on_that_metric_and_workload_only(self):
        self.assertEqual(self.flagged("delayed"), {("olap-kiss",
                                                    "core.plan_ms")})


if __name__ == "__main__":
    unittest.main(verbosity=2)
