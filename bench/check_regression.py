#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares the google-benchmark JSON produced by the perf benches
(bench_fig3_evaluate, bench_fig4_search, bench_maintenance, and the
BM_OpenFromDisk* rows of bench_micro) against a committed baseline and
fails when a tracked metric regresses beyond tolerance.

Two metric classes, chosen for machine-portability:

  counter metrics — deterministic optimizer-work counters reported by the
    benches themselves. These do not depend on wall-clock or core count:
      - BM_Search* rows (fig4 builds a fresh evaluator per iteration, so
        its JSON counters are per-iteration values): evaluations,
        cost_hits, cost_misses, chosen.
      - BM_Evaluate* rows (fig3 shares a warm cache across iterations, so
        only its iteration-independent counter qualifies): cost_misses.
      - BM_Maintenance* rows (seeded DML round trips at Iterations(1)):
        entries_inserted, entries_removed, est_entries, docs — pins both
        insert/delete maintenance symmetry and the agreement between the
        advisor's estimated entries-touched and the measured count.
    Checked two-sided (default ±25%): more work is a regression, and a
    large silent drop usually means the benchmark stopped measuring what
    it used to — refresh the baseline if the change is intentional.

  reuse metrics — plan-cache reuse of each BM_Search* row:
    (cost_hits + cost_misses) / cost_misses, i.e. what-if requests per
    optimizer run. Both sides are deterministic counters, so the ratio is
    machine-independent; checked one-sided (default -50%): only
    collapsed reuse fails. A cache that stops hitting shows up as
    ~1x against a committed ~6-18x.

  callcut metrics — what-if request ratios between paired exact and
    decomposed advising rows: whatif_requests(decompose:0) /
    whatif_requests(decompose:1) for each BM_AdviseTemplates template
    count. Both sides are deterministic counters, so the ratio is
    machine-independent; checked one-sided against the baseline like
    reuse. The 10k-template row additionally carries a HARD floor of
    10x (CALLCUT_FLOORS) that no baseline refresh can lower — it is the
    PR acceptance bar for atomic-benefit decomposition, and a silent
    revert to exact scoring (ratio ~1x) or a pricing blow-up fails CI
    here even if someone refreshes the baseline over it.

Usage:
  check_regression.py <baseline.json> <bench1.json> [<bench2.json> ...]
  check_regression.py --refresh <baseline.json> <bench1.json> [...]

Refresh in one line (from a build directory with the benches built):

  build/bench/bench_fig3_evaluate --benchmark_format=json > /tmp/f3.json &&
  build/bench/bench_fig4_search  --benchmark_format=json > /tmp/f4.json &&
  python3 bench/check_regression.py --refresh \
      bench/baselines/BENCH_baseline.json /tmp/f3.json /tmp/f4.json

Exit status: 0 clean, 1 regression (or missing metric), 2 usage error.
"""

import json
import sys

COUNTER_TOLERANCE = 0.25
RATIO_TOLERANCE = 0.50

# Counters that are per-iteration (hence run-length independent) for each
# benchmark family. See the module docstring for why fig3 tracks fewer.
FULL_COUNTERS = ("evaluations", "cost_hits", "cost_misses", "chosen")
WARM_CACHE_COUNTERS = ("cost_misses",)
# Advising rows track total what-if traffic (the hits/misses split is
# thread-timing dependent at threads:4, the sum is not) plus the
# benefit-table accounting: benefit_priced pinned at 0 on exact rows and
# >0 on decomposed rows means a silent mode flip fails two-sided here.
ADVISE_TEMPLATE_COUNTERS = ("advised_templates", "whatif_requests",
                            "optimizer_runs", "benefit_priced",
                            "benefit_fallbacks", "chosen")
ADVISE_LOG_COUNTERS = ("advised_queries", "cost_requests", "benefit_priced",
                       "chosen")
# Recovery-on-open rows (bench_micro): deterministic page/record counts.
# `pages` drifting means the checkpoint serialization grew or shrank;
# `wal_records` is pinned at 0 (a Close()d database must reopen with an
# empty WAL); `pool_misses`==pages on cold opens and `pool_hits`==pages
# on warm opens is the BufferPool accounting contract.
OPEN_FROM_DISK_COUNTERS = ("pages", "wal_records", "pool_misses",
                           "pool_hits")
# Index-maintenance rows (bench_maintenance): seeded whole-document DML
# round trips, so every counter is exactly reproducible. entries_inserted
# and entries_removed drifting apart means insert/delete maintenance lost
# symmetry; est_entries drifting from entries_inserted means the
# synopsis-based per-update estimate the advisor charges decoupled from
# what maintenance actually touches.
MAINTENANCE_COUNTERS = ("entries_inserted", "entries_removed",
                        "est_entries", "docs")

# Absolute floors for callcut ratios (see docstring) — enforced against
# the current run directly, not the baseline. Keys name the paired row
# with the decompose arg stripped.
CALLCUT_FLOORS = {
    "callcut:BM_AdviseTemplates/templates:10000/iterations:1/real_time": 10.0,
}


def counter_names(bench_name):
    if bench_name.startswith("BM_Search"):
        return FULL_COUNTERS
    if bench_name.startswith("BM_Evaluate"):
        return WARM_CACHE_COUNTERS
    if bench_name.startswith("BM_AdviseTemplates"):
        return ADVISE_TEMPLATE_COUNTERS
    if bench_name.startswith("BM_AdviseFromLog"):
        return ADVISE_LOG_COUNTERS
    if bench_name.startswith("BM_OpenFromDisk"):
        return OPEN_FROM_DISK_COUNTERS
    if bench_name.startswith("BM_Maintenance"):
        return MAINTENANCE_COUNTERS
    return ()


def extract_metrics(bench_files):
    """Returns {metric_key: value} from google-benchmark JSON files."""
    metrics = {}
    rows = {}
    for path in bench_files:
        with open(path) as f:
            data = json.load(f)
        for bench in data.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            name = bench["name"]
            rows[name] = bench
            for counter in counter_names(name):
                if counter in bench:
                    metrics[f"counter:{name}:{counter}"] = float(bench[counter])
    # Plan-cache reuse: what-if requests per optimizer run of a search.
    for name, bench in rows.items():
        if not name.startswith("BM_Search") or float(
                bench.get("cost_misses", 0)) <= 0:
            continue
        metrics[f"reuse:{name}"] = (
            float(bench["cost_hits"]) + float(bench["cost_misses"])) / float(
                bench["cost_misses"])
    # Decompose call-cut ratios: exact row's what-if requests over its
    # decomposed sibling's.
    for name, bench in rows.items():
        if "decompose:0" not in name or "whatif_requests" not in bench:
            continue
        sibling = rows.get(name.replace("decompose:0", "decompose:1"))
        if sibling is None or float(sibling.get("whatif_requests", 0)) <= 0:
            continue
        key = f"callcut:{name.replace('/decompose:0', '')}"
        metrics[key] = float(bench["whatif_requests"]) / float(
            sibling["whatif_requests"])
    return metrics


def check(baseline, current):
    counter_tol = baseline.get("counter_tolerance", COUNTER_TOLERANCE)
    ratio_tol = baseline.get("ratio_tolerance", RATIO_TOLERANCE)
    failures = []
    for key, base in sorted(baseline["metrics"].items()):
        cur = current.get(key)
        if cur is None:
            failures.append(f"{key}: missing from current run "
                            f"(baseline {base:g})")
            continue
        if key.startswith("counter:"):
            if base == 0:
                if cur != 0:
                    failures.append(f"{key}: baseline 0, now {cur:g}")
                continue
            change = (cur - base) / base
            if abs(change) > counter_tol:
                failures.append(f"{key}: {base:g} -> {cur:g} "
                                f"({change:+.1%}, tolerance ±{counter_tol:.0%})")
        else:  # reuse/callcut: one-sided — only a collapse fails.
            if cur < base * (1.0 - ratio_tol):
                failures.append(f"{key}: {base:.2f}x -> {cur:.2f}x "
                                f"(floor {base * (1.0 - ratio_tol):.2f}x)")
    # Hard acceptance floors, independent of whatever the baseline says.
    for key, floor in sorted(CALLCUT_FLOORS.items()):
        cur = current.get(key)
        if cur is None:
            failures.append(f"{key}: missing from current run "
                            f"(hard floor {floor:g}x)")
        elif cur < floor:
            failures.append(f"{key}: {cur:.2f}x below hard floor {floor:g}x "
                            f"(decomposed advising must cut what-if calls)")
    for key in sorted(set(current) - set(baseline["metrics"])):
        print(f"note: new metric not in baseline (refresh to track): {key}")
    return failures


def main(argv):
    refresh = "--refresh" in argv
    args = [a for a in argv if a != "--refresh"]
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, bench_files = args[0], args[1:]
    current = extract_metrics(bench_files)
    if not current:
        print("error: no tracked metrics found in input files",
              file=sys.stderr)
        return 2

    if refresh:
        baseline = {
            "counter_tolerance": COUNTER_TOLERANCE,
            "ratio_tolerance": RATIO_TOLERANCE,
            "metrics": current,
        }
        with open(baseline_path, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline refreshed: {len(current)} metrics -> "
              f"{baseline_path}")
        return 0

    with open(baseline_path) as f:
        baseline = json.load(f)
    failures = check(baseline, current)
    tracked = len(baseline["metrics"])
    if failures:
        print(f"REGRESSION: {len(failures)}/{tracked} tracked metrics "
              f"out of tolerance")
        for failure in failures:
            print(f"  {failure}")
        print("If intentional, refresh the baseline (see --help) and "
              "commit it with the change that moved the numbers.")
        return 1
    print(f"benchmark regression gate: {tracked} tracked metrics within "
          f"tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
