#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Runs the benchmark through run.py on short runs and checks that every
metric it prints is declared in BENCHMARK.json, that the digest of the
deterministic results repeats for a fixed seed, changes with the seed and
is the same traced and untraced, and that the benchmark refuses to run
outside a checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, seed, trace, seconds=0.5, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def report(workload, seed, trace, seconds=0.5):
    proc = bench(workload, seed, trace, seconds)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr + proc.stdout)
    lines = proc.stdout.strip().split("\n")
    digest = [l.split()[2] for l in lines if l.startswith("digest ")]
    return json.loads(lines[-1]), digest[0]


class MetricsDeclared(unittest.TestCase):
    def check(self, section, result):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, declared)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_end_to_end_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, _ = report(w["name"], 1, 0)
                self.check("end_to_end", result)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer(self):
        result, _ = report("hybrid-sb", 1, 1)
        self.check("per_layer", result)


class Digest(unittest.TestCase):
    def test_repeats_for_a_seed_and_changes_with_it(self):
        _, a = report("queue-x16", 7, 0)
        _, b = report("queue-x16", 7, 0)
        _, c = report("queue-x16", 8, 0)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_traced_matches_untraced(self):
        _, untraced = report("hybrid-sb", 3, 0)
        _, traced = report("hybrid-sb", 3, 1)
        self.assertEqual(untraced, traced)


class Refuses(unittest.TestCase):
    def test_outside_a_checkout(self):
        """Only BENCHMARK.json and perfbench/: exit non-zero, no result."""
        bare = os.path.join(ROOT, "perfbench", "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        here = os.path.join(ROOT, "perfbench")
        for name in os.listdir(here):
            if os.path.isfile(os.path.join(here, name)):
                shutil.copy(os.path.join(here, name), os.path.join(bare, "perfbench"))
        proc = bench("queue-x16", 1, 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
