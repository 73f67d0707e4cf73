#!/usr/bin/env python3
"""The benchmark's own tests: metric names, determinism, seeding, leak
detection, input rejection. Builds jbench like run.py does, then runs the
workloads as the benchmark does, with --seconds 1 so each stops after its
minimum number of runs.

    python3 perfbench/test_bench.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()


def run_py(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def deterministic(out):
    """The metrics that must repeat exactly for one seed."""
    metrics = out["metrics"]
    return (metrics["virt_s_per_iter"]["value"],
            metrics["wan_MB_per_iter"]["value"])


class MetricNames(unittest.TestCase):
    def check_mode(self, workload, trace):
        done = run_py("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], done.stdout[-2000:])
        self.assertEqual(set(result["metrics"]),
                         set(run.declared_metrics(trace)))
        for metric in result["metrics"].values():
            self.assertEqual(set(metric), {"value", "unit"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_end_to_end_names(self):
        self.check_mode("sharded-ring", 0)

    def test_per_layer_names(self):
        self.check_mode("sharded-ring", 1)

    def test_explorer_names(self):
        self.check_mode("explore-triple", 0)


class Determinism(unittest.TestCase):
    """fig12-jungle at seed 5 on 2, 2 and 1 kernel threads, and at seed 6."""

    @classmethod
    def setUpClass(cls):
        cls.outs = [run.run_jbench(BINARY, "fig12-jungle", seed, 1, 0,
                                   env_threads=threads)[0]
                    for seed, threads in ((5, 2), (5, 2), (5, 1), (6, 2))]

    def test_runs_are_correct(self):
        for out in self.outs:
            self.assertTrue(out["correct"], out["errors"])
            self.assertIn("desktop/amuse-daemon", out["live_processes"])
            self.assertEqual(run.leaked_processes(out["live_processes"]), [])
            self.assertEqual(
                run.check_energies("fig12-jungle", out["energies"]), [])
        self.assertEqual(self.outs[2]["threads"], 1)

    def test_repeats_across_runs_and_thread_counts(self):
        outs = self.outs
        self.assertEqual(deterministic(outs[0]), deterministic(outs[1]))
        self.assertEqual(deterministic(outs[0]), deterministic(outs[2]))
        self.assertEqual(outs[0]["energies"], outs[1]["energies"])
        # One lane takes the serial Hermite force path, which rounds
        # differently in the last bit; energies agree to roundoff.
        for model, energy in outs[0]["energies"].items():
            self.assertAlmostEqual(outs[2]["energies"][model], energy,
                                   delta=1e-12 * abs(energy))

    def test_seed_changes_initial_conditions(self):
        # The seed translates every model rigidly: the particles the program
        # integrates move, so final energies differ in their last digits,
        # while virtual time and WAN volume stay those of the realization.
        seed5, seed6 = self.outs[0], self.outs[3]
        self.assertEqual(deterministic(seed5), deterministic(seed6))
        self.assertEqual(set(seed5["energies"]), set(seed6["energies"]))
        for model, energy in seed5["energies"].items():
            self.assertNotEqual(seed6["energies"][model], energy, model)


class LeakCheck(unittest.TestCase):
    def test_model_processes_are_reported(self):
        names = ["desktop/amuse-daemon", "desktop/ibis-pump:amuse-daemon",
                 "desktop/ipl-registry", "desktop/ipl-registry-member",
                 "vu/gadget.r3", "lgm/worker-stars", "desktop/amuse-script"]
        self.assertEqual(run.leaked_processes(names),
                         ["desktop/amuse-script", "lgm/worker-stars",
                          "vu/gadget.r3"])
        self.assertEqual(run.leaked_processes(names[:4]), [])


class Rejection(unittest.TestCase):
    def assert_rejected(self, *args):
        done = run_py(*args)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)

    def test_unknown_workload(self):
        self.assert_rejected("--workload", "no-such-workload", "--seed", "1",
                             "--seconds", "1", "--trace", "0")

    def test_bad_seed(self):
        for seed in ("-1", "abc", "1.5", str(10**19)):
            self.assert_rejected("--workload", "sharded-ring", "--seed", seed,
                                 "--seconds", "1", "--trace", "0")

    def test_jbench_rejects_bad_seed(self):
        done = subprocess.run(
            [str(BINARY), "--workload", "sharded-ring",
             "--ini", str(HERE / "workloads" / "sharded-ring.ini"),
             "--seed", "-3", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertNotEqual(done.returncode, 0)


if __name__ == "__main__":
    unittest.main()
