#!/usr/bin/env python3
"""Builds and runs the xia benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload advise|query|dml|serve \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the xia libraries, the
xia_server binary and the workload driver) into .bench_build/perfbench;
later runs only rebuild what changed. The last line of standard output is
the result object; build logs and diagnostics go to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("advise", "query", "dml", "serve")
# Every run ends within this many seconds once built.
RUN_LIMIT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the two targets the runs need."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no xia sources at %s/src" % ROOT)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "xia_perfbench", "xia_server_bin"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        return 1
    started = time.monotonic()
    work_dir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                                os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [os.path.join(BUILD, "xia_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--server-bin", os.path.join(BUILD, "xia", "xia_server")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        log("perfbench: %s run exceeded %d s" % (args.workload, RUN_LIMIT_S))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        log("perfbench: driver exited with %d" % done.returncode)
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: driver printed no result")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
