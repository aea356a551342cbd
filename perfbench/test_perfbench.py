#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark binary like run.py does, then runs its selftest: a reduced-size
pass of every workload's output checks, and every check fed a deliberately
perturbed output (a changed EMU, one flipped response byte, ...), which it
must reject. The cold part derives one app into an empty cache (~10 s); the
warm part uses run.py's warm cache (derived once, ~25 s). Also checks that
run.py refuses to run, without printing a result, outside a full checkout.
"""

import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def selftest(self, part, cache):
        proc = subprocess.run([self.binary, "selftest", part], env=run.binary_env(cache),
                              stdout=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("0 failure(s)", proc.stdout)
        self.assertIn("rejected", proc.stdout)

    def test_cold_checks_pass_and_reject_perturbations(self):
        cache = os.path.join(run.build_dir(), "selftest-cold-cache")
        shutil.rmtree(cache, ignore_errors=True)
        os.makedirs(cache)
        try:
            self.selftest("cold", cache)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def test_warm_checks_pass_and_reject_perturbations(self):
        self.selftest("warm", run.warm_cache(self.binary))

    def test_refuses_to_run_without_the_program_sources(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cold_start", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
