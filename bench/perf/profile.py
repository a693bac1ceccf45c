#!/usr/bin/env python3
"""Flat profile of one perfbench workload: where its host time goes, by function.

    python3 bench/perf/profile.py --workload queue-x16 --seconds 3 [--seed 1]
        [--modules] [--json]

Builds perfbench/main.exe with dune, compiles the SIGPROF sampler
bench/perf/sprof.c with the system cc, runs the workload under
LD_PRELOAD, and maps every sampled instruction pointer to the function
symbol that contains it (nm over the executable, offset by the load
address the process's maps recorded). Prints the top 25 functions by
share of samples; --modules adds the shares summed per OCaml compilation
unit (camlSim, camlSim__Rng, ...), --json prints one JSON object instead.
Samples outside the executable count under the mapped file's name.

The sampler needs no hardware counters, perf or debugger: it uses the
process's own CPU-time interval timer.
"""

import argparse
import bisect
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
SPROF = os.path.join(ROOT, "bench", "perf", "sprof.c")
TOP = 25


def build(tmp):
    subprocess.run(["dune", "build", "./perfbench/main.exe"], cwd=ROOT, check=True)
    so = os.path.join(tmp, "sprof.so")
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", so, SPROF], check=True)
    return so


def sample(so, out, args):
    env = dict(os.environ, LD_PRELOAD=so, SPROF_OUT=out)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        text = f.read()
    addrs, maps = text.split("--\n", 1)
    return [int(a, 16) for a in addrs.split()], maps.splitlines()


def is_pie(path):
    with open(path, "rb") as f:
        header = f.read(18)
    return int.from_bytes(header[16:18], "little") == 3  # ET_DYN


def regions(maps, exe):
    """(start, end, path) of every file mapping; and the executable's load base."""
    real = os.path.realpath(exe)
    out, base = [], None
    for line in maps:
        parts = line.split()
        if len(parts) < 6:
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        path = parts[5]
        out.append((lo, hi, path))
        if path == real and int(parts[2], 16) == 0 and base is None:
            base = lo
    return out, (base if is_pie(exe) else 0), real


def symbols(exe):
    """Sorted text-symbol start addresses and their names."""
    res = subprocess.run(["nm", "-n", "--defined-only", exe], capture_output=True,
                         text=True, check=True)
    addrs, names = [], []
    for line in res.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    return addrs, names


def attribute(samples, maps, exe):
    spans, base, real = regions(maps, exe)
    addrs, names = symbols(exe)
    counts = {}
    for pc in samples:
        name = None
        for lo, hi, path in spans:
            if lo <= pc < hi:
                if path == real and base is not None:
                    i = bisect.bisect_right(addrs, pc - base) - 1
                    name = names[i] if i >= 0 else "[%s]" % os.path.basename(path)
                else:
                    name = "[%s]" % os.path.basename(path)
                break
        name = name or "[unmapped]"
        counts[name] = counts.get(name, 0) + 1
    return counts


def module_of(name):
    """The OCaml compilation unit of a symbol, or the symbol itself."""
    m = re.match(r"(caml[A-Za-z0-9_]+?)\.", name)
    return m.group(1) if m else name


def shares(counts):
    total = sum(counts.values())
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [{"name": k, "samples": v, "share": 100.0 * v / total} for k, v in rows]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--modules", action="store_true")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        so = build(tmp)
        samples, maps = sample(so, os.path.join(tmp, "samples"), args)
    if not samples:
        sys.exit("profile: no samples (is the run too short?)")
    counts = attribute(samples, maps, EXE)
    functions = shares(counts)
    modules = {}
    for name, n in counts.items():
        modules[module_of(name)] = modules.get(module_of(name), 0) + n
    if args.json:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "samples": len(samples),
                          "functions": functions, "modules": shares(modules)}))
        return
    print("%s seed %d, %g s: %d samples" % (args.workload, args.seed, args.seconds,
                                             len(samples)))
    for r in functions[:TOP]:
        print("%6.2f%%  %7d  %s" % (r["share"], r["samples"], r["name"]))
    if args.modules:
        print("by module:")
        for r in shares(modules)[:TOP]:
            print("%6.2f%%  %7d  %s" % (r["share"], r["samples"], r["name"]))


if __name__ == "__main__":
    main()
