#!/usr/bin/env python3
"""The benchmark's own smoke test.

Run from the repository root:

    python3 perfbench/smoke_test.py [--seconds S]

For every workload in BENCHMARK.json it makes a short untraced and a short
traced run and fails when the result line is malformed, a metric named in
BENCHMARK.json is missing, carries another unit or is not finite (or, end
to end, is zero), or a clean run reports a failed correctness check. It
then repeats each traced run with the same seed and fails unless the
deterministic per-layer counts repeat exactly.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer counts that must repeat exactly for a fixed seed, by workload.
DETERMINISTIC = {
    "advise": ["advisor.evaluations", "advisor.whatif_requests",
               "advisor.optimizer_runs", "advisor.templates",
               "advisor.benefit_frac"],
    "query": ["exec.prefix_reads", "exec.nodes_examined_per_result",
              "exec.sim_pages_per_read", "exec.index_plan_frac",
              "exec.buffer_hit_frac", "data.pages"],
    "dml": ["dml.prefix_writes", "index.entries_per_write",
            "dml.synopsis_rebuilds", "storage.wal_bytes_per_user_byte",
            "exec.prefix_reads", "exec.nodes_examined_per_result",
            "storage.recover_wal_records", "data.pages"],
    "serve": [],
}


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (
            " ".join(command), done.returncode, done.stderr[-3000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(result, specs, nonzero):
    """Problems with one result line against the metric specs."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(result))
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("correct=%s failed=%s" % (result["correct"],
                                                   result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted=%s" % result["attempted"])
    metrics = result["metrics"]
    names = {spec["name"] for spec in specs}
    if set(metrics) != names:
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(names - set(metrics)), sorted(set(metrics) - names)))
    for spec in specs:
        metric = metrics.get(spec["name"])
        if metric is None:
            continue
        value = metric.get("value")
        if metric.get("unit") != spec["unit"]:
            problems.append("%s unit %r, want %r" % (
                spec["name"], metric.get("unit"), spec["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r" % (spec["name"], value))
        elif nonzero and value == 0:
            problems.append("%s is zero" % spec["name"])
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        e2e = run(workload, args.seed, args.seconds, 0)
        for problem in check(e2e, bench["end_to_end"], nonzero=True):
            failures.append("%s (untraced): %s" % (workload, problem))
        traced = run(workload, args.seed, args.seconds, 1)
        for problem in check(traced, bench["per_layer"], nonzero=False):
            failures.append("%s (traced): %s" % (workload, problem))
        if DETERMINISTIC[workload]:
            again = run(workload, args.seed, args.seconds, 1)
            for name in DETERMINISTIC[workload]:
                first = traced["metrics"][name]["value"]
                second = again["metrics"][name]["value"]
                if first != second:
                    failures.append("%s: %s not repeatable (%r vs %r)" % (
                        workload, name, first, second))
        print("%s: %s" % (workload, "ok" if not failures else "FAILED"),
              flush=True)
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
