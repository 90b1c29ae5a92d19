#!/usr/bin/env python3
"""Builds and runs the agent-fleet benchmark.

Run from the root of a checkout:

    python3 fleetbench/run.py --workload fleet_minibird --seed 1 --seconds 10 --trace 0
    python3 fleetbench/run.py --self-test

The benchmark is a CMake package of its own (fleetbench/CMakeLists.txt) that
compiles the system from ../src. It is built in Release mode under
$CARGO_TARGET_DIR/fleetbench (default .bench_build/fleetbench); an
up-to-date build is a no-op. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("fleet_minibird", "analytic_unshared", "paged_read", "paged_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print("fleetbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(root):
        root = os.path.join(REPO, root)
    return os.path.join(root, "fleetbench")


def build(build_dir, target):
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no system sources under %s/src; run from a full checkout" % REPO)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def source_stamp():
    """The git commit of the checkout, or "unknown" outside a git repository."""
    try:
        sha = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return sha.stdout.strip() if sha.returncode == 0 and sha.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    build_dir = build_root()
    if args.self_test:
        build(build_dir, "fleetbench_test")
        sys.exit(subprocess.run([os.path.join(build_dir, "fleetbench_test")]).returncode)
    if args.workload is None:
        fail("--workload is required")

    build(build_dir, "fleetbench")
    work_dir = os.path.join(build_dir, "work-%s-%d" % (args.workload, os.getpid()))
    command = [os.path.join(build_dir, "fleetbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--git-sha", source_stamp()]
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("fleetbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if code < 0:
        print("fleetbench: killed by %s" % signal.Signals(-code).name, file=sys.stderr)
        code = 128 - code
    sys.exit(code)


if __name__ == "__main__":
    main()
