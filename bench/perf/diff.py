#!/usr/bin/env python3
"""Compare perf trajectory entries, row by row.

    python3 bench/perf/diff.py [--file TRAJECTORY]            # newest record
    python3 bench/perf/diff.py [--file TRAJECTORY] OLD NEW    # two records

TRAJECTORY defaults to bench/perf/trajectory.jsonl, one JSON record per
line (see bench/perf/README.md). With no commits given, each set of the
newest record is shown as its parent side against its change side. With
two commit prefixes, the change side of OLD is the older entry and the
change side of NEW the newer one, set by set where both hold the same
seed, run length and trace setting (a set without "trace" is untraced:
a traced set holds per-layer metrics, an untraced one end-to-end ones).

Each row is one workload and metric: the two medians, their
ratio (new / old), the pairs the newer side won when the record has
them, and whether the gap between the medians clears the older entry's
interquartile range, and in which direction.

Every set's title names the build each side was measured on: a record's
"build" is its change side's, "parent_build" its parent side's (default:
"build"), and a record without "build" was measured on the dev profile.
When the two sides' builds differ, a warning line follows the title: the
ratios then include the change of compiler profile.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def find(records, prefix):
    hits = [r for r in records if r["commit"].startswith(prefix)]
    if len(hits) != 1:
        sys.exit("diff.py: %d records match commit %r" % (len(hits), prefix))
    return hits[0]


def key(s):
    """What makes two sets comparable: seed, run length and trace setting."""
    return s["seed"], s["seconds"], s.get("trace", 0)


def describe(s):
    """A set's seed, run length and, when traced, that it is."""
    return "seed %d, %d s%s" % (s["seed"], s["seconds"], ", traced" if s.get("trace") else "")


def build(rec, side="change"):
    """The build profile one side of a record was measured on."""
    change = rec.get("build", "dev")
    return rec.get("parent_build", change) if side == "parent" else change


def title(text, old_build, new_build):
    """A set's title with both sides' builds, and a warning when they differ."""
    line = "%s (build %s -> %s)" % (text, old_build, new_build)
    if old_build != new_build:
        line += ("\nWARNING: across builds (%s -> %s): the ratios include the change of profile"
                 % (old_build, new_build))
    return line


def verdict(row, old, new):
    """Direction of the change and whether its gap clears the older IQR."""
    gap = new["median"] - old["median"]
    if gap == 0:
        return "equal"
    improved = (gap < 0) == (row["better"] == "lower")
    word = "better" if improved else "worse"
    if abs(gap) > old["iqr"]:
        return "%s, clears IQR" % word
    return "%s, within IQR" % word


def rows(old_set, new_set, old_side, new_side):
    """(workload, metric, old stats, new stats, wins or None, row meta) per row."""
    for w in sorted(new_set["workloads"]):
        if w not in old_set["workloads"]:
            continue
        old_ms = old_set["workloads"][w]["metrics"]
        new_ms = new_set["workloads"][w]["metrics"]
        for name in sorted(new_ms):
            if name not in old_ms:
                continue
            wins = new_ms[name].get("wins") if old_set is new_set else None
            yield w, name, old_ms[name][old_side], new_ms[name][new_side], wins, new_ms[name]


def print_set(out, title, triples):
    triples = list(triples)
    width = max([18] + [len(t[1]) for t in triples])
    out.write(title + "\n")
    out.write("  %-16s %-*s %12s %12s %7s %6s  %s\n"
              % ("workload", width, "metric", "old", "new", "ratio", "wins", "gap vs old IQR"))
    for w, name, old, new, wins, meta in triples:
        if old["median"]:
            ratio = new["median"] / old["median"]
        else:
            ratio = 1.0 if new["median"] == 0 else float("inf")
        won = "%d/%d" % (wins, new["n"]) if wins is not None else "-"
        out.write("  %-16s %-*s %12.6g %12.6g %7.3f %6s  %s\n"
                  % (w, width, name, old["median"], new["median"], ratio, won,
                     verdict(meta, old, new)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--file", default=os.path.join(HERE, "trajectory.jsonl"))
    ap.add_argument("commits", nargs="*", metavar="COMMIT")
    args = ap.parse_args()
    records = load(args.file)
    if not records:
        sys.exit("diff.py: %s holds no record" % args.file)
    if not args.commits:
        rec = records[-1]
        for s in rec["sets"]:
            print_set(sys.stdout,
                      title("%s: parent %s -> change %s, %s, %d pairs"
                            % (rec["commit"], rec["parent"], rec["commit"], describe(s),
                               s["pairs"]),
                            build(rec, "parent"), build(rec)),
                      rows(s, s, "parent", "change"))
    elif len(args.commits) == 2:
        old, new = find(records, args.commits[0]), find(records, args.commits[1])
        for ns in new["sets"]:
            for os_ in old["sets"]:
                if key(os_) == key(ns):
                    print_set(sys.stdout,
                              title("%s -> %s, %s" % (old["commit"], new["commit"], describe(ns)),
                                    build(old), build(new)),
                              rows(os_, ns, "change", "change"))
    else:
        ap.error("give no commit or two")


if __name__ == "__main__":
    main()
