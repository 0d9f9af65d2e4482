// xia_perfbench — runs one benchmark workload and prints one JSON result
// line (the last line of stdout). perfbench/run.py builds this binary and
// invokes it; see perfbench/README.md for the workloads and metrics.
//
//   xia_perfbench --workload advise|query|dml|serve --seed N --seconds S
//                 --trace 0|1 --work-dir DIR [--server-bin PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 traces every other
// operation and reports the per-layer metrics.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (perfbench/smoke_test.py checks).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_us_p99", "us"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    // advise
    {"wlm.compress_ms", "ms"},
    {"advisor.enumerate_ms", "ms"},
    {"advisor.generalize_ms", "ms"},
    {"advisor.search_ms", "ms"},
    {"advisor.unattributed_ms", "ms"},
    {"advisor.evaluations", "count"},
    {"advisor.whatif_requests", "count"},
    {"advisor.optimizer_runs", "count"},
    {"advisor.cost_cache_hit_frac", "ratio"},
    {"xpath.containment_lookups", "count"},
    {"xpath.containment_hit_frac", "ratio"},
    {"advisor.benefit_frac", "ratio"},
    {"advisor.templates", "count"},
    // read path (query, dml)
    {"query.parse_us", "us"},
    {"optimizer.optimize_us", "us"},
    {"exec.execute_us", "us"},
    {"read.unattributed_us", "us"},
    {"exec.prefix_reads", "count"},
    {"exec.nodes_examined_per_result", "ratio"},
    {"exec.sim_pages_per_read", "pages"},
    {"exec.index_plan_frac", "ratio"},
    {"exec.buffer_hit_frac", "ratio"},
    {"exec.index_speedup", "ratio"},
    {"optimizer.est_rank_corr", "ratio"},
    {"data.pages", "pages"},
    // reads and writes as the caller sees them (dml, serve)
    {"read_us_p50", "us"},
    {"read_us_p99", "us"},
    {"write_us_p50", "us"},
    {"write_us_p99", "us"},
    // write path (dml)
    {"xml.parse_us", "us"},
    {"dml.apply_us", "us"},
    {"storage.write_us", "us"},
    {"storage.wal_us", "us"},
    {"dml.prefix_writes", "count"},
    {"index.entries_per_write", "ratio"},
    {"dml.synopsis_rebuilds", "count"},
    {"storage.wal_bytes_per_user_byte", "ratio"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.checkpoint_bytes", "bytes"},
    {"storage.recover_ms", "ms"},
    {"storage.recover_pages", "count"},
    {"storage.recover_wal_records", "count"},
    {"storage.disk_bytes_per_user_byte", "ratio"},
    {"index.materialize_ms", "ms"},
    // server (serve)
    {"server.run_verb_us", "us"},
    {"server.write_verb_us", "us"},
    {"server.wire_us", "us"},
    {"server.busy_frac", "ratio"},
    {"server.requests", "count"},
    // operations as the caller sees them (all), from the untraced half
    {"op_us_p50", "us"},
    {"op_us_p90", "us"},
    {"ops_per_s", "1/s"},
    {"op.samples", "count"},
    // tracing itself (all)
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.spans", "count"},
};

int Usage(const std::string& why) {
  std::cerr << why << "\nusage: xia_perfbench --workload advise|query|dml|"
               "serve --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--server-bin PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--server-bin") {
      args.server_bin = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (args.work_dir.empty() || !(args.seconds > 0)) {
    return Usage("--work-dir and a positive --seconds are required");
  }

  perfbench::Report full;
  int rc = 0;
  if (args.workload == "advise") {
    rc = perfbench::RunAdvise(args, &full);
  } else if (args.workload == "query") {
    rc = perfbench::RunQuery(args, &full);
  } else if (args.workload == "dml") {
    rc = perfbench::RunDml(args, &full);
  } else if (args.workload == "serve") {
    rc = perfbench::RunServe(args, &full);
  } else {
    return Usage("unknown workload '" + args.workload + "'");
  }
  if (rc != 0) return rc;

  // Print exactly the metric set of the mode. Per-layer metrics of layers
  // a workload does not exercise read 0; a missing end-to-end metric is a
  // bug in the workload.
  perfbench::Report out = full.WithoutMetrics();
  if (!args.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      double value = 0;
      if (!full.Get(spec.name, &value)) {
        std::cerr << "missing end-to-end metric " << spec.name << "\n";
        return 1;
      }
      out.Set(spec.name, value, spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kPerLayer) {
      double value = 0;
      full.Get(spec.name, &value);
      out.Set(spec.name, value, spec.unit);
    }
  }
  // A NaN or infinite metric is a bug in the workload, never a result.
  std::vector<std::string> non_finite = out.NonFiniteMetrics();
  for (const std::string& name : non_finite) {
    std::cerr << "metric " << name << " is not finite\n";
  }
  if (!non_finite.empty()) return 1;
  std::cout << out.ToJson() << std::endl;
  return 0;
}
