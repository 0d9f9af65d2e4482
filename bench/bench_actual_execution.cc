// Section 3, final bullet: create the recommended configuration for real
// and display actual execution times — estimated improvements must be
// mirrored by measured ones (no-index scans vs physical index plans).
// Every plan runs twice: without a buffer pool, and with a 4096-page pool
// attached as the server's `run` verb has, so the page accounting on the
// read path is timed too.

#include <cstdio>
#include <iostream>

#include "advisor/advisor.h"
#include "advisor/analysis.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "workload/tpox_queries.h"
#include "workload/xmark_queries.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"

using namespace xia;

namespace {

int RunScenario(Database* db, const Workload& workload, const char* label,
                double budget_bytes) {
  Catalog catalog;
  AdvisorOptions options;
  options.space_budget_bytes = budget_bytes;
  options.algorithm = SearchAlgorithm::kGreedyHeuristic;
  Advisor advisor(db, &catalog, options);
  Result<Recommendation> rec = advisor.Recommend(workload);
  if (!rec.ok()) {
    std::cerr << rec.status().ToString() << "\n";
    return 1;
  }
  Result<double> built = MaterializeConfiguration(
      *db, rec->indexes, &catalog, options.cost_model.storage);
  if (!built.ok()) {
    std::cerr << built.status().ToString() << "\n";
    return 1;
  }

  std::cout << "---- " << label << ": " << rec->indexes.size()
            << " indexes materialized (" << FormatBytes(*built)
            << " actual, " << FormatBytes(rec->total_size_bytes)
            << " estimated) ----\n";
  std::printf("%-6s %10s %10s %8s %10s %10s %8s %10s %10s %6s\n", "query",
              "scan(us)", "idx(us)", "speedup", "scan+bp", "idx+bp",
              "speedup", "scan-pages", "idx-pages", "rows");

  Optimizer optimizer(db, options.cost_model);
  Executor executor(db, &catalog, options.cost_model);
  // The server's shared pool size (server/session.h).
  BufferPool pool(4096);
  Executor pooled(db, &catalog, options.cost_model, &pool);
  Catalog empty;
  double scan_total = 0;
  double idx_total = 0;
  double scan_pool_total = 0;
  double idx_pool_total = 0;
  for (const Query& query : workload.queries()) {
    Result<QueryPlan> scan_plan =
        optimizer.Optimize(query, empty, advisor.cache());
    Result<QueryPlan> idx_plan =
        optimizer.Optimize(query, catalog, advisor.cache());
    if (!scan_plan.ok() || !idx_plan.ok()) return 1;
    Result<ExecResult> scan_run = executor.Execute(*scan_plan);
    Result<ExecResult> idx_run = executor.Execute(*idx_plan);
    Result<ExecResult> scan_pool_run = pooled.Execute(*scan_plan);
    Result<ExecResult> idx_pool_run = pooled.Execute(*idx_plan);
    if (!scan_run.ok() || !idx_run.ok() || !scan_pool_run.ok() ||
        !idx_pool_run.ok()) {
      std::cerr << "execution failed for " << query.id << "\n";
      return 1;
    }
    if (scan_run->nodes != idx_run->nodes ||
        scan_pool_run->nodes != scan_run->nodes ||
        idx_pool_run->nodes != scan_run->nodes) {
      std::cerr << "plans disagree for " << query.id << "\n";
      return 1;
    }
    scan_total += scan_run->wall_micros;
    idx_total += idx_run->wall_micros;
    scan_pool_total += scan_pool_run->wall_micros;
    idx_pool_total += idx_pool_run->wall_micros;
    std::printf("%-6s %10.0f %10.0f %7.1fx %10.0f %10.0f %7.1fx %10.0f %10.1f "
                "%6zu\n",
                query.id.c_str(), scan_run->wall_micros,
                idx_run->wall_micros,
                scan_run->wall_micros / std::max(idx_run->wall_micros, 1.0),
                scan_pool_run->wall_micros, idx_pool_run->wall_micros,
                scan_pool_run->wall_micros /
                    std::max(idx_pool_run->wall_micros, 1.0),
                scan_run->simulated_page_reads,
                idx_run->simulated_page_reads, idx_run->nodes.size());
  }
  std::printf("%-6s %10.0f %10.0f %7.1fx %10.0f %10.0f %7.1fx\n", "TOTAL",
              scan_total, idx_total, scan_total / std::max(idx_total, 1.0),
              scan_pool_total, idx_pool_total,
              scan_pool_total / std::max(idx_pool_total, 1.0));
  std::printf("index/scan wall ratio: %.3f without a pool, %.3f with a "
              "4096-page pool\n\n",
              idx_total / std::max(scan_total, 1.0),
              idx_pool_total / std::max(scan_pool_total, 1.0));
  return 0;
}

}  // namespace

int main() {
  std::cout << "== Actual execution with the recommended configuration ==\n\n";

  Database xmark_db;
  XMarkParams xmark_params;
  if (!PopulateXMark(&xmark_db, "xmark", 20, xmark_params, 42).ok()) {
    return 1;
  }
  if (RunScenario(&xmark_db, MakeXMarkWorkload("xmark"), "XMark",
                  512.0 * 1024)) {
    return 1;
  }

  Database tpox_db;
  TpoxParams tpox_params;
  if (!PopulateTpox(&tpox_db, 100, 200, 40, tpox_params, 11).ok()) return 1;
  return RunScenario(&tpox_db, MakeTpoxWorkload(), "TPoX", 512.0 * 1024);
}
