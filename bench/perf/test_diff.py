#!/usr/bin/env python3
"""Tests of the perf trajectory tools.

    python3 bench/perf/test_diff.py

Runs diff.py on a small synthetic trajectory and checks its ratios, IQR
verdicts and build labels (a comparison across builds is flagged), that
it never pairs a traced set with an untraced one, checks pairs.py's
summary of synthetic raw runs, traced and untraced, and its run-mode
report, checks floor.py's bands, references, re-run and failures on
synthetic records, and checks that the
committed trajectory names only workloads and metrics that BENCHMARK.json
declares (per-layer ones in traced sets), only known builds, and that
diff.py prints a row for each of them.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

import floor
import pairs

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


def summarise(runs):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "runs.jsonl")
        write(path, *runs)
        out = subprocess.run([sys.executable, PAIRS, "--summarise", path],
                             capture_output=True, text=True, timeout=60, check=True).stdout
    return [json.loads(l) for l in out.splitlines()]


def raw(tree, pair, value, section, trace=None, seed=1, seconds=10):
    """One raw run of queue-x16, every metric of a BENCHMARK.json section at value."""
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC[section]}
    run = {"tree": tree, "workload": "queue-x16", "pair": pair, "seed": seed, "seconds": seconds,
           "rc": 0, "result": {"correct": True, "attempted": 9, "failed": 0,
                               "metrics": metrics}}
    if trace is not None:
        run["trace"] = trace
    return run


class Summarise(unittest.TestCase):
    def test_medians_quartiles_wins(self):
        runs = [raw(tree, pair, v, "end_to_end", seed=3, seconds=2)
                for pair, (p, c) in enumerate([(4.0, 1.0), (2.0, 3.0), (3.0, 2.0), (1.0, 0.5),
                                               (5.0, 4.0)])
                for tree, v in (("parent", p), ("change", c))]
        (s,) = summarise(runs)
        self.assertEqual((s["seed"], s["seconds"], s["pairs"]), (3, 2, 5))
        wall = s["workloads"]["queue-x16"]["metrics"]["wall_s"]
        self.assertEqual(wall["parent"]["median"], 3.0)
        self.assertEqual((wall["parent"]["q1"], wall["parent"]["q3"]), (2.0, 4.0))
        self.assertEqual(wall["change"]["median"], 2.0)
        # lower is better for wall_s, higher for vops_per_us
        self.assertEqual(wall["wins"], 4)
        self.assertEqual(s["workloads"]["queue-x16"]["metrics"]["vops_per_us"]["wins"], 1)

    def test_per_layer_rows_keyed_by_trace(self):
        runs = []
        for pair in range(3):
            # untraced runs written before the "trace" field existed
            runs += [raw("parent", pair, 2.0, "end_to_end"), raw("change", pair, 1.0, "end_to_end")]
            runs += [raw("parent", pair, 3.0, "per_layer", 1),
                     raw("change", pair, 4.0, "per_layer", 1)]
        plain, traced = summarise(runs)
        self.assertEqual((plain["trace"], traced["trace"]), (0, 1))
        self.assertEqual((traced["seed"], traced["seconds"], traced["pairs"]), (1, 10, 3))
        self.assertEqual(set(plain["workloads"]["queue-x16"]["metrics"]),
                         {m["name"] for m in SPEC["end_to_end"]})
        rows = traced["workloads"]["queue-x16"]["metrics"]
        self.assertEqual(set(rows), {m["name"] for m in SPEC["per_layer"]})
        for m in SPEC["per_layer"]:
            self.assertEqual((rows[m["name"]]["unit"], rows[m["name"]]["better"]),
                             (m["unit"], m["better"]))
        # 3 -> 4 is a loss where lower is better, a win where higher is
        self.assertEqual(rows["sim.ns_per_switch.w16"]["wins"], 0)
        self.assertEqual(rows["htm.useful_frac"]["wins"], 3)
        self.assertEqual(rows["sim.ns_per_switch.w16"]["change"]["median"], 4.0)


def timed(tree, pair, setup, wall, trace=None):
    """An untraced (or traced) raw run with the given setup_s and wall_s."""
    run = raw(tree, pair, 1.0, "per_layer" if trace else "end_to_end", trace)
    run["result"]["metrics"].update({"setup_s": {"value": setup, "unit": "s"},
                                     "wall_s": {"value": wall, "unit": "s"}})
    return run


class Modes(unittest.TestCase):
    def report(self, runs):
        out = io.StringIO()
        pairs.report_modes(runs, out)
        return out.getvalue()

    def test_slow_runs_tagged_against_the_side_fastest(self):
        # parent: one run 2x its fastest setup_s; change: fast throughout,
        # although its fastest setup_s is half the parent's
        runs = [timed("parent", i, su, w)
                for i, (su, w) in enumerate([(1.0, 10.0), (1.3, 11.0), (1.2, 12.0), (2.0, 20.0)])]
        runs += [timed("change", i, su, w)
                 for i, (su, w) in enumerate([(0.5, 9.0), (0.55, 9.5), (0.6, 10.0), (0.65, 10.5)])]
        m = pairs.modes(runs)[(1, 10)]["queue-x16"]
        self.assertEqual((m["parent"]["slow"], sorted(m["parent"]["fast"])), (1, [10.0, 11.0, 12.0]))
        self.assertEqual((m["change"]["slow"], m["change"]["n"]), (0, 4))
        out = self.report(runs)
        self.assertIn("parent fast wall_s median 11 s, slow 1/4; "
                      "change fast wall_s median 9.75 s, slow 0/4", out)
        self.assertIn("WARNING: seed 1, 10 s, queue-x16: the slow mode fell unevenly "
                      "(parent 1/4, change 0/4)", out)

    def test_even_modes_and_traced_runs(self):
        runs = [timed("parent", 0, 1.0, 10.0), timed("parent", 1, 2.0, 20.0),
                timed("change", 0, 1.0, 9.0), timed("change", 1, 1.9, 19.0),
                timed("change", 2, 9.0, 99.0, trace=1)]
        out = self.report(runs)
        self.assertIn("slow 1/2; change fast wall_s median 9 s, slow 1/2", out)
        self.assertNotIn("WARNING", out)
        self.assertNotIn("99", out)

    def test_sets_on_stdout_modes_on_stderr(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "runs.jsonl")
            write(path, timed("parent", 0, 1.0, 10.0), timed("change", 0, 1.0, 9.0))
            proc = subprocess.run([sys.executable, PAIRS, "--summarise", path],
                                  capture_output=True, text=True, timeout=60, check=True)
        (line,) = proc.stdout.splitlines()
        self.assertEqual(json.loads(line)["pairs"], 1)
        self.assertIn("modes: seed 1, 10 s, queue-x16: parent fast", proc.stderr)


def metric_set(workload, metrics, trace=0, seed=1):
    """A set holding {name: (unit, better, parent median, change median)} on one workload."""
    rows = {name: {"unit": unit, "better": better, "wins": 0,
                   "parent": side(par, 0.0, 6), "change": side(chg, 0.0, 6)}
            for name, (unit, better, par, chg) in metrics.items()}
    s = {"seed": seed, "seconds": 10, "pairs": 6,
         "workloads": {workload: {"failed": {"parent": 0, "change": 0}, "metrics": rows}}}
    if trace:
        s["trace"] = 1
    return s


class DiffTrace(unittest.TestCase):
    def test_traced_set_not_paired_with_untraced(self):
        wall = {"wall_s": ("s", "lower", 1.0, 1.0)}
        rung = {"sim.ns_per_switch.w16": ("ns", "lower", 100.0, 100.0),
                "failed_frac": ("ratio", "lower", 0.0, 0.0)}
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.jsonl")
            write(path,
                  {"commit": "aaa1111", "parent": "fff0000", "host": "synthetic",
                   "sets": [metric_set("queue-x16", wall)]},
                  {"commit": "bbb2222", "parent": "aaa1111", "host": "synthetic",
                   "sets": [metric_set("queue-x16", rung, trace=1)]},
                  {"commit": "ccc3333", "parent": "bbb2222", "host": "synthetic",
                   "sets": [metric_set("queue-x16", wall),
                            metric_set("queue-x16", rung, trace=1)]})
            self.assertEqual(diff("aaa", "bbb", path=path), "")
            out = diff("bbb", "ccc", path=path)
            self.assertIn("bbb2222 -> ccc3333, seed 1, 10 s, traced", out)
            self.assertEqual(row(out, "sim.ns_per_switch.w16")[4], "1.000")
            # 0 -> 0 is no change, not an infinite ratio
            self.assertEqual(row(out, "failed_frac")[4:7], ["1.000", "-", "equal"])
            self.assertNotIn("wall_s", out)
            out = diff("aaa", "ccc", path=path)
            self.assertNotIn("traced", out)
            self.assertEqual(row(out, "wall_s")[4], "1.000")
            out = diff(path=path)
            self.assertIn("seed 1, 10 s, traced, 6 pairs", out)


def result(metrics, failed=0):
    return {"correct": failed == 0, "attempted": 9, "failed": failed,
            "metrics": {name: {"value": v, "unit": unit} for name, (unit, v) in metrics.items()}}


def floor_record(commit, workload, metrics, trace=0, seed=1):
    """A record whose change-side medians are metrics' values ({name: (unit, median)})."""
    return {"commit": commit, "parent": "fff0000", "host": "synthetic",
            "sets": [metric_set(workload, {n: (u, "lower", v, v) for n, (u, v) in metrics.items()},
                                trace, seed)]}


class Floor(unittest.TestCase):
    RECORDS = [floor_record("aaa1111", "queue-x16", {"wall_s": ("s", 0.010)}),
               floor_record("bbb2222", "queue-x16", {"sim.ns_per_switch.w16": ("ns", 100.0),
                                                     "sim.ns_per_switch.w256": ("ns", 700.0)},
                            trace=1)]

    def gate(self, runs, records=None):
        out = io.StringIO()
        ok = floor.check(self.RECORDS if records is None else records, runs, out)
        return ok, out.getvalue()

    def line(self, out, label):
        (hit,) = [l for l in out.splitlines() if l.startswith("perf floor: %s " % label)]
        return hit

    def test_bands(self):
        for ratio, verdict, passes in ((1.9, "OK", True), (3.0, "WARN", True),
                                       (5.0, "FAIL", False)):
            ok, out = self.gate([("queue-x16", 0, result({"wall_s": ("s", 0.010 * ratio)}))])
            self.assertEqual(ok, passes, out)
            self.assertIn("%-5s (%.2fx the reference" % (verdict, ratio),
                          self.line(out, "queue-x16 wall_s"))

    def test_rungs_gated_traced_only(self):
        ok, out = self.gate([("queue-x16", 1, result({
            "sim.ns_per_switch.w16": ("ns", 150.0), "sim.ns_per_switch.w256": ("ns", 3500.0),
            "htm.ns_per_tx.r1w1": ("ns", 1e9)}))])
        self.assertFalse(ok)
        self.assertIn("OK", self.line(out, "queue-x16 sim.ns_per_switch.w16"))
        self.assertIn("FAIL", self.line(out, "queue-x16 sim.ns_per_switch.w256"))
        self.assertNotIn("r1w1", out)

    def test_no_reference_skipped(self):
        ok, out = self.gate([("hybrid-sb", 0, result({"wall_s": ("s", 99.0)})),
                             ("queue-x16", 0, result({"wall_s": ("s", 0.010)}))])
        self.assertTrue(ok, out)
        self.assertIn("(no reference; skipped)", self.line(out, "hybrid-sb wall_s"))
        # an untraced wall_s never takes a traced set, nor seed 2's set, as its reference
        records = [floor_record("ccc3333", "queue-x16", {"wall_s": ("s", 1.0)}, trace=1),
                   floor_record("ddd4444", "queue-x16", {"wall_s": ("s", 1.0)}, seed=2)]
        ok, out = self.gate([("queue-x16", 0, result({"wall_s": ("s", 99.0)}))], records)
        self.assertTrue(ok, out)
        self.assertIn("skipped", out)

    def test_newest_record_holding_the_metric(self):
        records = self.RECORDS + [
            floor_record("ccc3333", "queue-x16", {"wall_s": ("s", 0.001)}),
            floor_record("ddd4444", "collect-update", {"wall_s": ("s", 1.0)})]
        ok, out = self.gate([("queue-x16", 0, result({"wall_s": ("s", 0.010)}))], records)
        self.assertFalse(ok)
        self.assertIn("FAIL  (10.00x the reference 0.001 s, record ccc3333)",
                      self.line(out, "queue-x16 wall_s"))

    def test_over_pass_runs_once_more(self):
        calls = []

        def rerun(ratio):
            def again(workload, trace):
                calls.append((workload, trace))
                return result({"wall_s": ("s", 0.010 * ratio)})
            return again

        first = [("queue-x16", 0, result({"wall_s": ("s", 0.025)}))]
        for second, verdict in ((1.1, "OK"), (3.0, "WARN")):
            calls.clear()
            out = io.StringIO()
            self.assertTrue(floor.check(self.RECORDS, first, out, rerun(second)))
            out = out.getvalue()
            self.assertEqual(calls, [("queue-x16", 0)])
            self.assertIn("read 2.50x its reference; running it once more", out)
            self.assertIn("%-5s (%.2fx the reference" % (verdict, second),
                          self.line(out, "queue-x16 wall_s"))
        # a run within the band, or one with failed cells, is not run again
        calls.clear()
        for run in (result({"wall_s": ("s", 0.019)}), result({"wall_s": ("s", 0.05)}, failed=1)):
            floor.check(self.RECORDS, [("queue-x16", 0, run)], io.StringIO(), rerun(1.0))
        self.assertEqual(calls, [])
        # the second run's verdict stands, a missing result included
        out = io.StringIO()
        ok = floor.check(self.RECORDS, first, out, lambda w, t: None)
        self.assertFalse(ok)
        self.assertIn("FAIL  (no result)", out.getvalue())

    def test_failed_cells_and_missing_results_fail(self):
        ok, out = self.gate([("queue-x16", 0, result({"wall_s": ("s", 0.010)}, failed=1))])
        self.assertFalse(ok)
        self.assertIn("FAIL  (failed = 1)", out)
        ok, out = self.gate([("queue-x16", 0, None)])
        self.assertFalse(ok)
        self.assertIn("FAIL  (no result)", out)


class Committed(unittest.TestCase):
    def test_declared_names_and_rows(self):
        workloads = {w["name"] for w in SPEC["workloads"]}
        metrics = {trace: {m["name"] for m in SPEC[section]}
                   for trace, section in ((0, "end_to_end"), (1, "per_layer"))}
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
                    self.assertLessEqual(set(w["metrics"]), metrics[s.get("trace", 0)])
        out = diff(path=TRAJECTORY)
        expect = sum(len(w["metrics"]) for s in records[-1]["sets"]
                     for w in s["workloads"].values())
        body = [l for l in out.splitlines()
                if l.startswith("  ") and not l.split()[0] == "workload"]
        self.assertEqual(len(body), expect)


if __name__ == "__main__":
    unittest.main()
