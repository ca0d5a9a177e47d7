#!/usr/bin/env python3
"""Builds the scenario benchmark from source and runs one workload.

    python3 scenarios/run.py --workload tc_graph --seed 1 --seconds 5 --trace 0

Run it from the root of a checkout. The engine library and the driver are
compiled with CMake into .bench_build/scenarios (incrementally, so only the
first run pays for the build); build output goes to standard error. The
driver's standard output is passed through unchanged: a report, then one
JSON line with "correct", "attempted", "failed" and "metrics". With
--trace 1 the spans are also written to .bench_build/scenarios/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "scenarios")
BINARY = os.path.join(BUILD, "scenarios")


def build():
    """Configures and builds the driver; returns True on success."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    args = parser.parse_args()

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("driver timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
