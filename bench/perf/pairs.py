#!/usr/bin/env python3
"""Alternating parent/change runs of perfbench, summarised as one trajectory set.

    python3 bench/perf/pairs.py PARENT_DIR CHANGE_DIR --seed 1 --seconds 40 \\
        --pairs 10 [--workload NAME ...] [--trace 1] --runs runs.jsonl
    python3 bench/perf/pairs.py --summarise runs.jsonl

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (made with
`git archive` or `git clone`, at paths of equal length: perfbench's
host_heap_mb moves with the length of the executable's path). Each pair
runs `python3 perfbench/run.py` once in each checkout, the order
alternating from pair to pair, for every workload. --trace 1 is passed
to run.py, which then reports BENCHMARK.json's per-layer metrics instead
of its end-to-end ones. Every raw run is appended to the --runs file as
one JSON line as soon as it finishes, so an interrupted session keeps
what it measured.

--summarise prints the sets the runs file holds, one JSON object per
(seed, seconds, trace) group, in the form bench/perf/trajectory.jsonl
records keep under "sets": per workload and metric (end-to-end, or
per-layer for traced runs), the parent's and the change's median and
quartiles, and the pairs the change won. The record around the sets
(commit, parent, host note) is written by hand.

--summarise also reports the host's run modes on stderr, so stdout stays
the sets alone. A perfbench process either runs fast or, as a whole,
slow: its setup_s and its wall_s both rise by 1.5x or more (bench/perf/
README.md, "Run modes"). Each untraced run is tagged slow when its
setup_s exceeds SLOW times the smallest setup_s of its side and workload
in the group, else fast. One line per workload gives each side's
fast-mode wall_s median and slow share, and a WARNING line follows when
the two sides' slow shares differ: their medians then compare different
mixes of modes, and the fast-mode medians are the fairer comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(xs):
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def stats(xs):
    q1, med, q3 = quartiles(sorted(xs))
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(xs)}


# Fast runs of one side spread by up to 1.3x in setup_s, slow ones sit
# 1.55x or more above the fastest (recorded runs in bench/perf/README.md).
SLOW = 1.4


def modes(runs):
    """{(seed, seconds): {workload: {side: {"fast": [wall_s], "slow": n}}}} of
    the untraced runs, each tagged by its setup_s against its side's fastest."""
    groups = {}
    for r in runs:
        if r["result"] is None or r.get("trace", 0):
            continue
        m = r["result"]["metrics"]
        if "setup_s" not in m or "wall_s" not in m:
            continue
        sides = groups.setdefault((r["seed"], r["seconds"]), {}).setdefault(r["workload"], {})
        sides.setdefault(r["tree"], []).append((m["setup_s"]["value"], m["wall_s"]["value"]))
    out = {}
    for key, workloads in groups.items():
        for w, sides in workloads.items():
            for tree, rs in sides.items():
                floor = min(setup for setup, _ in rs)
                fast = [wall for setup, wall in rs if setup <= SLOW * floor]
                out.setdefault(key, {}).setdefault(w, {})[tree] = {
                    "fast": fast, "slow": len(rs) - len(fast), "n": len(rs)}
    return out


def report_modes(runs, out):
    """One line per group and workload: each side's fast-mode wall_s median
    and slow share; a WARNING line when the slow shares differ."""
    for (seed, seconds), workloads in sorted(modes(runs).items()):
        for w, sides in sorted(workloads.items()):
            parts = []
            for tree in ("parent", "change"):
                s = sides.get(tree)
                if s is None:
                    continue
                # never empty: the side's fastest run is fast
                parts.append("%s fast wall_s median %.6g s, slow %d/%d"
                             % (tree, statistics.median(s["fast"]), s["slow"], s["n"]))
            out.write("modes: seed %d, %d s, %s: %s\n" % (seed, seconds, w, "; ".join(parts)))
            shares = [sides[t]["slow"] / sides[t]["n"] for t in ("parent", "change") if t in sides]
            if len(shares) == 2 and shares[0] != shares[1]:
                out.write("WARNING: seed %d, %d s, %s: the slow mode fell unevenly (parent %d/%d, "
                          "change %d/%d); compare the fast-mode medians\n"
                          % (seed, seconds, w, sides["parent"]["slow"], sides["parent"]["n"],
                             sides["change"]["slow"], sides["change"]["n"]))


def summarise(runs):
    """Group raw runs by (seed, seconds, trace) and reduce each to a trajectory set."""
    groups = {}
    for r in runs:
        if r["result"] is None:
            continue
        groups.setdefault((r["seed"], r["seconds"], r.get("trace", 0)), []).append(r)
    sets = []
    for (seed, seconds, trace), rs in sorted(groups.items()):
        declared = spec()["per_layer" if trace else "end_to_end"]
        better = {m["name"]: m["better"] for m in declared}
        units = {m["name"]: m["unit"] for m in declared}
        workloads = {}
        for w in sorted({r["workload"] for r in rs}):
            side = {"parent": {}, "change": {}}
            failed = {"parent": 0, "change": 0}
            for r in rs:
                if r["workload"] != w:
                    continue
                failed[r["tree"]] += r["result"]["failed"]
                for name, m in r["result"]["metrics"].items():
                    side[r["tree"]].setdefault(name, {})[r["pair"]] = m["value"]
            rows = {}
            for name in units:
                par, chg = side["parent"].get(name, {}), side["change"].get(name, {})
                common = sorted(set(par) & set(chg))
                if not common:
                    continue
                sign = 1 if better[name] == "higher" else -1
                wins = sum(1 for p in common if sign * (chg[p] - par[p]) > 0)
                rows[name] = {
                    "unit": units[name],
                    "better": better[name],
                    "parent": stats([par[p] for p in common]),
                    "change": stats([chg[p] for p in common]),
                    "wins": wins,
                }
            workloads[w] = {"failed": failed, "metrics": rows}
        pairs = len({(r["workload"], r["pair"]) for r in rs}) // max(1, len(workloads))
        sets.append({"seed": seed, "seconds": seconds, "trace": trace, "pairs": pairs,
                     "workloads": workloads})
    return sets


def run_pairs(args):
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    workloads = args.workload or [w["name"] for w in spec()["workloads"]]
    with open(args.runs, "a") as f:
        for i in range(args.pairs):
            for w in workloads:
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for tree in order:
                    proc = subprocess.run(
                        [sys.executable, "perfbench/run.py", "--workload", w,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace)],
                        cwd=trees[tree], capture_output=True, text=True)
                    last = proc.stdout.strip().split("\n")[-1] if proc.stdout.strip() else ""
                    try:
                        result = json.loads(last)
                    except ValueError:
                        result = None
                    rec = {"tree": tree, "workload": w, "pair": i, "seed": args.seed,
                           "seconds": args.seconds, "trace": args.trace,
                           "rc": proc.returncode, "result": result}
                    f.write(json.dumps(rec) + "\n")
                    f.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: time the per-layer metrics (run.py --trace 1)")
    ap.add_argument("--runs", help="raw runs file (JSON lines), appended to")
    ap.add_argument("--summarise", metavar="RUNS", help="summarise a raw runs file")
    args = ap.parse_args()
    if args.summarise:
        with open(args.summarise) as f:
            runs = [json.loads(l) for l in f if l.strip()]
        for s in summarise(runs):
            print(json.dumps(s, sort_keys=True))
        report_modes(runs, sys.stderr)
        return
    if not (args.parent and args.change and args.runs):
        ap.error("give PARENT_DIR, CHANGE_DIR and --runs, or --summarise RUNS")
    run_pairs(args)


if __name__ == "__main__":
    main()
