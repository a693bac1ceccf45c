#!/usr/bin/env python3
"""Tests of the perf trajectory tools.

    python3 bench/perf/test_diff.py

Runs diff.py on a small synthetic trajectory and checks its ratios, IQR
verdicts and build labels (a comparison across builds is flagged), checks
pairs.py's summary of synthetic raw runs, and checks that the committed
trajectory names only workloads and metrics that BENCHMARK.json declares,
only known builds, and that diff.py prints a row for each of them.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DIFF = os.path.join(HERE, "diff.py")
PAIRS = os.path.join(HERE, "pairs.py")
TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def side(median, iqr, n=10):
    return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2, "iqr": iqr, "n": n}


BUILDS = ("dev", "release")


def record(commit, parent, setup, wall, **builds):
    """One synthetic record: setup_s and wall_s on one workload."""
    return {
        **builds,
        "commit": commit,
        "parent": parent,
        "host": "synthetic",
        "sets": [{
            "seed": 1, "seconds": 40, "pairs": 10,
            "workloads": {"collect-update": {"failed": {"parent": 0, "change": 0}, "metrics": {
                "setup_s": {"unit": "s", "better": "lower", "wins": 10,
                            "parent": side(*setup[0]), "change": side(*setup[1])},
                "wall_s": {"unit": "s", "better": "lower", "wins": 4,
                           "parent": side(*wall[0]), "change": side(*wall[1])},
            }}},
        }],
    }


def diff(*args, path):
    proc = subprocess.run([sys.executable, DIFF, "--file", path] + list(args),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise AssertionError("diff.py failed:\n" + proc.stderr + proc.stdout)
    return proc.stdout


def write(path, *records):
    with open(path, "w") as f:
        f.writelines(json.dumps(r) + "\n" for r in records)


def row(out, metric):
    lines = [l.split() for l in out.splitlines() if l.split()[1:2] == [metric]]
    assert len(lines) == 1, out
    return lines[0]


class Synthetic(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.dir.name, "t.jsonl")
        with open(self.path, "w") as f:
            # setup_s: 1.0 -> 0.1, old IQR 0.2: a 10x gain clearing it.
            # wall_s: 5.0 -> 5.1, old IQR 0.5: worse, inside the spread.
            f.write(json.dumps(record("aaa1111", "fff0000",
                                      [(1.0, 0.2), (0.1, 0.01)],
                                      [(5.0, 0.5), (5.1, 0.4)])) + "\n")
            # Against the first record's change side: setup_s 0.1 -> 0.2
            # clears its IQR of 0.01 (worse); wall_s 5.1 -> 5.0 does not
            # clear 0.4.
            f.write(json.dumps(record("bbb2222", "aaa1111",
                                      [(0.1, 0.01), (0.2, 0.01)],
                                      [(5.1, 0.4), (5.0, 0.3)])) + "\n")

    def tearDown(self):
        self.dir.cleanup()

    def test_newest_record_parent_vs_change(self):
        out = diff(path=self.path)
        self.assertIn("bbb2222: parent aaa1111 -> change bbb2222", out)
        setup = row(out, "setup_s")
        self.assertEqual(setup[4], "2.000")
        self.assertEqual(setup[5], "10/10")
        self.assertEqual(" ".join(setup[6:]), "worse, clears IQR")
        wall = row(out, "wall_s")
        self.assertEqual(" ".join(wall[6:]), "better, within IQR")

    def test_two_records(self):
        out = diff("aaa", "bbb", path=self.path)
        self.assertIn("aaa1111 -> bbb2222, seed 1, 40 s", out)
        setup = row(out, "setup_s")
        self.assertEqual(setup[2:5], ["0.1", "0.2", "2.000"])
        self.assertEqual(setup[5], "-")
        self.assertEqual(" ".join(setup[6:]), "worse, clears IQR")
        self.assertEqual(" ".join(row(out, "wall_s")[6:]), "better, within IQR")

    def test_first_record_gain(self):
        with open(self.path) as f:
            first = f.readline()
        with open(self.path, "w") as f:
            f.write(first)
        out = diff(path=self.path)
        self.assertEqual(row(out, "setup_s")[4], "0.100")
        self.assertEqual(" ".join(row(out, "setup_s")[6:]), "better, clears IQR")


class Builds(unittest.TestCase):
    """Each side's build is printed; a comparison across builds is flagged."""

    SETUP = [(1.0, 0.2), (0.1, 0.01)]
    WALL = [(5.0, 0.5), (4.0, 0.4)]

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.dir.name, "t.jsonl")

    def tearDown(self):
        self.dir.cleanup()

    def rec(self, commit, parent, **builds):
        return record(commit, parent, self.SETUP, self.WALL, **builds)

    def test_missing_field_is_dev(self):
        write(self.path, self.rec("aaa1111", "fff0000"))
        out = diff(path=self.path)
        self.assertIn("10 pairs (build dev -> dev)", out)
        self.assertNotIn("WARNING", out)

    def test_same_build(self):
        write(self.path, self.rec("aaa1111", "fff0000", build="release"))
        out = diff(path=self.path)
        self.assertIn("(build release -> release)", out)
        self.assertNotIn("WARNING", out)

    def test_newest_record_across_builds(self):
        write(self.path, self.rec("aaa1111", "fff0000", build="release", parent_build="dev"))
        out = diff(path=self.path)
        self.assertIn("(build dev -> release)", out)
        self.assertIn("WARNING: across builds (dev -> release)", out)
        # the rows are still printed under the warning
        self.assertEqual(row(out, "wall_s")[4], "0.800")

    def test_two_records_across_builds(self):
        write(self.path, self.rec("aaa1111", "fff0000"),
              self.rec("bbb2222", "aaa1111", build="release", parent_build="dev"),
              self.rec("ccc3333", "bbb2222", build="release"))
        # the older change side was measured on dev, the newer on release
        out = diff("aaa", "bbb", path=self.path)
        self.assertIn("aaa1111 -> bbb2222, seed 1, 40 s (build dev -> release)", out)
        self.assertIn("WARNING: across builds (dev -> release)", out)
        # both change sides on release: no warning, whatever the parents were
        out = diff("bbb", "ccc", path=self.path)
        self.assertIn("(build release -> release)", out)
        self.assertNotIn("WARNING", out)


class Summarise(unittest.TestCase):
    def test_medians_quartiles_wins(self):
        runs = []
        for pair, (p, c) in enumerate([(4.0, 1.0), (2.0, 3.0), (3.0, 2.0), (1.0, 0.5), (5.0, 4.0)]):
            for tree, v in (("parent", p), ("change", c)):
                metrics = {m["name"]: {"value": v, "unit": m["unit"]} for m in SPEC["end_to_end"]}
                runs.append({"tree": tree, "workload": "queue-x16", "pair": pair, "seed": 3,
                             "seconds": 2, "rc": 0,
                             "result": {"correct": True, "attempted": 9, "failed": 0,
                                        "metrics": metrics}})
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "runs.jsonl")
            with open(path, "w") as f:
                f.writelines(json.dumps(r) + "\n" for r in runs)
            out = subprocess.run([sys.executable, PAIRS, "--summarise", path],
                                 capture_output=True, text=True, timeout=60, check=True).stdout
        (s,) = [json.loads(l) for l in out.splitlines()]
        self.assertEqual((s["seed"], s["seconds"], s["pairs"]), (3, 2, 5))
        wall = s["workloads"]["queue-x16"]["metrics"]["wall_s"]
        self.assertEqual(wall["parent"]["median"], 3.0)
        self.assertEqual((wall["parent"]["q1"], wall["parent"]["q3"]), (2.0, 4.0))
        self.assertEqual(wall["change"]["median"], 2.0)
        # lower is better for wall_s, higher for vops_per_us
        self.assertEqual(wall["wins"], 4)
        self.assertEqual(s["workloads"]["queue-x16"]["metrics"]["vops_per_us"]["wins"], 1)


class Committed(unittest.TestCase):
    def test_declared_names_and_rows(self):
        workloads = {w["name"] for w in SPEC["workloads"]}
        metrics = {m["name"] for m in SPEC["end_to_end"]}
        with open(TRAJECTORY) as f:
            records = [json.loads(l) for l in f if l.strip()]
        self.assertGreaterEqual(len(records), 1)
        for rec in records:
            for key in ("commit", "parent", "host", "sets"):
                self.assertIn(key, rec)
            for key in ("build", "parent_build"):
                self.assertIn(rec.get(key, "dev"), BUILDS)
            for s in rec["sets"]:
                self.assertLessEqual(set(s["workloads"]), workloads)
                for w in s["workloads"].values():
                    self.assertLessEqual(set(w["metrics"]), metrics)
        out = diff(path=TRAJECTORY)
        expect = sum(len(w["metrics"]) for s in records[-1]["sets"]
                     for w in s["workloads"].values())
        body = [l for l in out.splitlines()
                if l.startswith("  ") and not l.split()[0] == "workload"]
        self.assertEqual(len(body), expect)


if __name__ == "__main__":
    unittest.main()
