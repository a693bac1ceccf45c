#!/usr/bin/env python3
"""Run the core mutants: each must make its named suite fail.

    python3 test/mutants/run.py [--timeout S] [NAME ...]

Every `*.patch` beside this script is one small source mutant, a unified
diff against the repository root, headed by comment lines:

    # suite: test_simmem
    # What the mutant breaks.

The script copies the working tree (without _build and .git) into a
temporary directory, builds and runs each named suite there once
unmutated (a suite that fails on clean code would "catch" everything),
then, one mutant at a time, applies the patch, builds the suite with
dune, runs it with a timeout, and reverts the patch. A failing run or a
timeout counts as caught; a passing run is a survivor. A patch that no
longer applies or does not build is an error: the list must be updated
with the code it mutates.

Prints one line per mutant and exits non-zero if any mutant survived or
errored. NAME restricts the run to the mutants whose file name (without
.patch) is given.
"""

import argparse
import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_TIMEOUT_S = 600


def load(path):
    suite, about = None, []
    with open(path) as f:
        for line in f:
            if not line.startswith("#"):
                break
            text = line[1:].strip()
            if text.startswith("suite:"):
                suite = text[len("suite:"):].strip()
            else:
                about.append(text)
    if not suite:
        sys.exit("%s: no '# suite:' line" % path)
    name = os.path.basename(path)[: -len(".patch")]
    return name, suite, " ".join(about)


def sh(cmd, cwd, timeout):
    """(exit code or None on timeout, combined output)."""
    try:
        p = subprocess.run(cmd, cwd=cwd, timeout=timeout, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        return p.returncode, p.stdout
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        return None, out


def build(tree, suite):
    return sh(["dune", "build", "--root", tree, "test/%s.exe" % suite], tree, BUILD_TIMEOUT_S)


def failed_cases(out):
    """The cases an alcotest run reports failed, as "group N name"."""
    plain = re.sub(r"\x1b\[[0-9;]*m", "", out)
    cases = re.findall(r"^[>\s]*\[FAIL\]\s+(\S+)\s+(\d+)\s+(.*?)\.?\s*$", plain, re.M)
    return sorted({" ".join(c) for c in cases})


def run_suite(tree, suite, timeout):
    cwd = os.path.join(tree, "_build", "default", "test")
    return sh([os.path.join(cwd, suite + ".exe")], cwd, timeout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--timeout", type=float, default=120, help="seconds per suite run")
    ap.add_argument("names", nargs="*")
    args = ap.parse_args()
    mutants = [load(p) for p in sorted(glob.glob(os.path.join(HERE, "*.patch")))]
    if args.names:
        unknown = set(args.names) - {m[0] for m in mutants}
        if unknown:
            sys.exit("unknown mutants: " + ", ".join(sorted(unknown)))
        mutants = [m for m in mutants if m[0] in args.names]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns("_build", ".git"))
        for suite in sorted({m[1] for m in mutants}):
            code, out = build(tree, suite)
            if code == 0:
                code, out = run_suite(tree, suite, args.timeout)
            if code != 0:
                sys.stdout.write(out[-3000:])
                sys.exit("%s does not pass on the unmutated tree" % suite)
        for name, suite, about in mutants:
            patch = os.path.join(HERE, name + ".patch")
            code, out = sh(["git", "apply", patch], tree, 60)
            if code != 0:
                print("ERROR     %-40s patch does not apply\n%s" % (name, out))
                bad += 1
                continue
            try:
                code, out = build(tree, suite)
                if code != 0:
                    print("ERROR     %-40s does not build\n%s" % (name, out[-3000:]))
                    bad += 1
                    continue
                code, out = run_suite(tree, suite, args.timeout)
                if code is None:
                    print("caught    %-40s %s (timeout)" % (name, suite))
                elif code != 0:
                    print("caught    %-40s %s: %s" % (name, suite, "; ".join(failed_cases(out))))
                else:
                    print("SURVIVED  %-40s %s: %s" % (name, suite, about))
                    bad += 1
            finally:
                sh(["git", "apply", "-R", patch], tree, 60)
            sys.stdout.flush()
    print("%d mutant(s), %d survived or errored" % (len(mutants), bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
