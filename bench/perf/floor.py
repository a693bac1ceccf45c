#!/usr/bin/env python3
"""The wall-time floor: a short perfbench run of every workload, against the trajectory.

    python3 bench/perf/floor.py

Runs `perfbench/run.py --seed 1 --seconds 5` once untraced for each
workload of BENCHMARK.json, and once with --trace 1 on queue-x16, then
compares each workload's wall_s and every sim.ns_per_switch.* rung of the
scheduler ladder with its reference: the change side's median in the
newest record of bench/perf/trajectory.jsonl whose seed-1 set of the same
trace setting holds that workload and metric. A run at most 2x its
reference passes, at most 4x warns, beyond fails. A workload that reads
over 2x on any gated metric is run once more, and the second run is
the one judged: one process of a workload can land in a slow mode of
the host that the next one does not (bench/perf/README.md). A metric
with no reference is printed and skipped.

Exits 1 when a metric fails, when a run prints no result, or when a run
reports failed cells. The bands are wide on purpose: wall time varies
from host to host, and the gate only catches order-of-magnitude
regressions of the simulator core. Pairwise claims use pairs.py.
"""

import json
import os
import subprocess
import sys

import diff

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 1
SECONDS = 5
TRACED = "queue-x16"
PASS, WARN = 2.0, 4.0


def gated(name, trace):
    """The metrics the floor checks: wall time untraced, the switch ladder traced."""
    return name.startswith("sim.ns_per_switch.") if trace else name == "wall_s"


def reference(records, workload, name, trace):
    """(change-side median, commit) of the newest record holding the metric, or None."""
    for rec in reversed(records):
        for s in rec["sets"]:
            if s["seed"] != SEED or s.get("trace", 0) != trace:
                continue
            metrics = s["workloads"].get(workload, {}).get("metrics", {})
            if name in metrics:
                return metrics[name]["change"]["median"], rec["commit"]
    return None


def band(ratio):
    return "OK" if ratio <= PASS else "WARN" if ratio <= WARN else "FAIL"


def rows(records, workload, trace, result):
    """(label, unit, ratio, reference) for each gated metric of result, by
    name; ratio and reference are None when no record holds the metric."""
    out = []
    for name, m in sorted(result["metrics"].items()):
        if gated(name, trace):
            ref = reference(records, workload, name, trace)
            ratio = None if ref is None else m["value"] / ref[0]
            out.append(("%s %s" % (workload, name), m["unit"], ratio, ref))
    return out


def check(records, runs, out, rerun=None):
    """Print one line per gated metric of runs, a list of (workload, trace,
    result or None); True when none failed. A run that reads over PASS on
    a gated metric is replaced by rerun(workload, trace), when given."""
    ok = True
    for workload, trace, result in runs:
        cell = "%s%s" % (workload, " (traced)" if trace else "")
        table = [] if result is None else rows(records, workload, trace, result)
        if rerun is not None and result is not None and result["failed"] == 0:
            first = max((r for _, _, r, _ in table if r is not None), default=0.0)
            if first > PASS:
                out.write("perf floor: %-34s read %.2fx its reference; running it once more\n"
                          % (cell, first))
                result = rerun(workload, trace)
                table = [] if result is None else rows(records, workload, trace, result)
        if result is None:
            out.write("perf floor: %-34s FAIL  (no result)\n" % cell)
            ok = False
            continue
        if result["failed"] > 0:
            out.write("perf floor: %-34s FAIL  (failed = %d)\n" % (cell, result["failed"]))
            ok = False
        for label, unit, ratio, ref in table:
            if ref is None:
                out.write("perf floor: %-34s (no reference; skipped)\n" % label)
                continue
            median, commit = ref
            verdict = band(ratio)
            ok = ok and verdict != "FAIL"
            out.write("perf floor: %-34s %-5s (%.2fx the reference %.4g %s, record %s)\n"
                      % (label, verdict, ratio, median, unit, commit))
    if not ok:
        out.write("perf floor: FAILED: a run printed no result, reported failed cells, or\n"
                  "took more than %gx its reference in bench/perf/trajectory.jsonl.\n" % WARN)
    return ok


def run(workload, trace):
    """perfbench's result line for one run, or None when it printed none."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout.strip().split("\n")[-1])
    except ValueError:
        return None


def main():
    if len(sys.argv) > 1:
        sys.exit("usage: python3 bench/perf/floor.py (no arguments)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    records = diff.load(os.path.join(diff.HERE, "trajectory.jsonl"))
    runs = [(w, 0, run(w, 0)) for w in workloads] + [(TRACED, 1, run(TRACED, 1))]
    sys.exit(0 if check(records, runs, sys.stdout, rerun=run) else 1)


if __name__ == "__main__":
    main()
