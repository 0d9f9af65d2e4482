// Figure 3: estimating the benefit of an index configuration — now as a
// google-benchmark harness over the advisor's hot path, the what-if
// evaluation of whole configurations. Each benchmark sweeps the thread
// knob, so `--benchmark_format=json` output doubles as the CI perf
// artifact tracking the parallel speedup of Evaluate Indexes mode. Plan
// cache hit/miss counts surface as benchmark counters.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "advisor/benefit.h"
#include "common/logging.h"
#include "optimizer/explain.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace {

/// Shared database + workload fixture, built once. The workload is the
/// XMark set repeated several times so a single evaluation has enough
/// queries to fan out.
struct Fixture {
  Database db;
  Workload workload;
  Catalog catalog;
  CostModel cost_model;
  std::unique_ptr<Optimizer> optimizer;
  std::vector<CandidateIndex> candidates;
  std::vector<IndexDefinition> config_defs;

  Fixture() {
    XMarkParams params;
    XIA_CHECK(PopulateXMark(&db, "xmark", 30, params, 42).ok());
    Workload base = MakeXMarkWorkload("xmark");
    for (int rep = 0; rep < 6; ++rep) {
      for (const Query& q : base.queries()) workload.AddQuery(q);
    }
    optimizer = std::make_unique<Optimizer>(&db, cost_model);

    const std::vector<std::pair<std::string, ValueType>> specs = {
        {"/site/regions/namerica/item/quantity", ValueType::kDouble},
        {"/site/regions/africa/item/quantity", ValueType::kDouble},
        {"/site/regions/samerica/item/price", ValueType::kDouble},
        {"/site/regions/*/item/quantity", ValueType::kDouble},
        {"/site/regions/*/item/*", ValueType::kDouble},
        {"/site/regions/*/item/*", ValueType::kVarchar},
        {"//item/payment", ValueType::kVarchar},
        {"/site/people/person/profile/@income", ValueType::kDouble},
    };
    for (const auto& [text, type] : specs) {
      CandidateIndex cand;
      cand.def.collection = "xmark";
      cand.def.pattern = *ParsePathPattern(text);
      cand.def.type = type;
      cand.stats = EstimateVirtualIndex(*db.synopsis("xmark"), cand.def,
                                        cost_model.storage);
      config_defs.push_back(cand.def);
      candidates.push_back(std::move(cand));
    }
  }
};

Fixture* SharedFixture() {
  static Fixture* fixture = new Fixture();
  return fixture;
}

/// Copies a counter snapshot into the benchmark's counter row.
void ReportCacheCounters(benchmark::State& state,
                         const AdvisorCacheCounters& counters) {
  state.counters["cost_hits"] = static_cast<double>(counters.cost.hits);
  state.counters["cost_misses"] = static_cast<double>(counters.cost.misses);
}

/// Evaluate one full configuration, per-query fan-out at `threads`. A
/// fresh evaluator per iteration defeats the configuration memo and
/// empties the plan cache, so every iteration does real optimizer work;
/// repeated queries still share one optimization within the evaluation.
void BM_EvaluateConfiguration(benchmark::State& state) {
  Fixture& f = *SharedFixture();
  int threads = static_cast<int>(state.range(0));
  ContainmentCache cache;
  std::vector<int> config;
  for (size_t i = 0; i < f.candidates.size(); ++i) {
    config.push_back(static_cast<int>(i));
  }
  AdvisorCacheCounters last;
  for (auto _ : state) {
    ConfigurationEvaluator evaluator(f.optimizer.get(), &f.workload,
                                     &f.catalog, &f.candidates, &cache,
                                     /*account_update_cost=*/true, threads);
    auto eval = evaluator.Evaluate(config);
    XIA_CHECK(eval.ok());
    benchmark::DoNotOptimize(eval->workload_cost);
    last = evaluator.cache_counters();
  }
  state.counters["queries"] =
      static_cast<double>(f.workload.queries().size());
  ReportCacheCounters(state, last);
}
BENCHMARK(BM_EvaluateConfiguration)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// A greedy-style scoring round: every candidate evaluated stand-alone in
/// one EvaluateMany batch. The batch collapses to the distinct (query,
/// relevant candidate set) tasks shared across all singleton
/// configurations.
void BM_EvaluateManySingletons(benchmark::State& state) {
  Fixture& f = *SharedFixture();
  int threads = static_cast<int>(state.range(0));
  ContainmentCache cache;
  std::vector<std::vector<int>> singletons;
  for (size_t i = 0; i < f.candidates.size(); ++i) {
    singletons.push_back({static_cast<int>(i)});
  }
  AdvisorCacheCounters last;
  for (auto _ : state) {
    ConfigurationEvaluator evaluator(f.optimizer.get(), &f.workload,
                                     &f.catalog, &f.candidates, &cache,
                                     /*account_update_cost=*/true, threads);
    auto evals = evaluator.EvaluateMany(singletons);
    for (const auto& eval : evals) XIA_CHECK(eval.ok());
    benchmark::DoNotOptimize(evals);
    last = evaluator.cache_counters();
  }
  state.counters["configs"] = static_cast<double>(singletons.size());
  ReportCacheCounters(state, last);
}
BENCHMARK(BM_EvaluateManySingletons)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The raw EXPLAIN mode (WhatIfSession::EvaluateWorkload path). The plan
/// cache persists across iterations here, matching its real lifetime — a
/// session cache carried across repeated workload evaluations — so the
/// steady state is nearly all hits.
void BM_EvaluateIndexesMode(benchmark::State& state) {
  Fixture& f = *SharedFixture();
  int threads = static_cast<int>(state.range(0));
  ContainmentCache cache;
  WhatIfCostCache cost_cache;
  for (auto _ : state) {
    auto result =
        EvaluateIndexesMode(*f.optimizer, f.workload.queries(), f.config_defs,
                            f.catalog, &cache, threads, &cost_cache);
    XIA_CHECK(result.ok());
    benchmark::DoNotOptimize(result->total_weighted_cost);
  }
  AdvisorCacheCounters counters;
  counters.cost = cost_cache.stats();
  counters.containment = cache.stats();
  ReportCacheCounters(state, counters);
}
BENCHMARK(BM_EvaluateIndexesMode)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xia

#include "bench_main.h"  // Custom main: BENCHMARK_MAIN + --stats-json.
