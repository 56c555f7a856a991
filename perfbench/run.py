#!/usr/bin/env python3
"""Builds and runs the recovery-system benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is built from source with
CMake (the repository's own project plus perfbench/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Temporary log
files and span dumps go to .../perfbench/work. The last line of standard
output is the JSON result; build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out, targets):
    """Configures and builds `targets`; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs, "--target"] + targets]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as error:
            print("perfbench: build step failed: %s" % error, file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the test of the benchmark's own output checks")
    args = parser.parse_args()

    if not args.self_test and (not args.workload or args.seconds is None):
        print("perfbench: --workload and --seconds are required", file=sys.stderr)
        return 2

    out = build_dir()
    binary = "perfbench_checks_test" if args.self_test else "perfbench"
    if not build(out, [binary]):
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(out, binary)], timeout=170).returncode

    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(out, binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--work-dir", work]
    try:
        return subprocess.run(command, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175 s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
