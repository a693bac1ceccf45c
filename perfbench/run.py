#!/usr/bin/env python3
"""Build and run the simulator cost benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune from the checkout this script sits in,
runs one workload and relays its report. The last line printed is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. Exits non-zero, printing no result, when the checkout
cannot be built or the report does not match BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, capture):
    """Run cmd in its own process group; on timeout kill the group."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("stopped by signal %d" % signum, 4)

    signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout), 4)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    return proc.returncode, out


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return spec, {m["name"]: m["unit"] for m in section}


def check_result(line, metrics):
    """The report's last line, if it is a result matching BENCHMARK.json."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "the last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "unexpected keys %s" % sorted(result)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != metrics:
        diff = sorted(set(got.items()) ^ set(metrics.items()))
        return None, "metrics differ from BENCHMARK.json: %s" % diff
    return result, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from a checkout of the repository" % need, 2)
    spec, metrics = declared(args.trace)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)

    code, _ = run(["dune", "build", "--root", ".", "--display", "quiet",
                   "perfbench/main.exe"], BUILD_TIMEOUT_S, capture=False)
    if code != 0:
        fail("build failed", 3)

    code, out = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)],
                    RUN_TIMEOUT_S, capture=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail("main.exe exited with %d" % code, 4)
    result, err = check_result(lines[-1], metrics)
    if result is None:
        sys.stderr.write(out)
        fail(err, 5)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
