#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The build goes to .bench_build/perfbench under the checkout root (CMake,
Release); later runs rebuild incrementally. Build output goes to stderr,
so the last line of stdout is the workload's JSON result line. Exit code
0 means the run completed and printed its result; whether every answer
was right is the result's "correct" field (the perfbench binary itself
exits 1 when an answer was wrong). Any other exit code means no
result was produced (the build failed, the workload could not run, or it
overran its time limit).

--self-test runs the harness self-tests and a smoke-size run of each
workload through CTest.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
        stdout=sys.stderr, stderr=sys.stderr) == 0


def run_workload(args):
    data_dir = os.path.join(BUILD, "data")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--data-dir", data_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n") if out else []
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(out)
        print("perfbench: no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if not result["correct"]:
        print("perfbench: ORACLE FAILED: %d of %d ops gave a wrong answer"
              % (result["failed"], result["attempted"]), file=sys.stderr)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.call(["ctest", "--test-dir", BUILD,
                                "--output-on-failure"])
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
