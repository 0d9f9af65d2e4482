// Figure 4: searching the space of candidate indexes — as a
// google-benchmark harness over the three configuration-search
// strategies. The candidate set and generalization DAG are built once (a
// search consumes them read-only, and they are budget independent); each
// iteration runs one full search — a fresh evaluator, so the
// configuration memo and plan cache start cold — at a 128 KB budget. Each
// benchmark sweeps the what-if thread knob, so `--benchmark_format=json`
// output joins bench_fig3_evaluate in the CI perf artifact. Evaluation
// and plan-cache counters are reported per row; the regression gate
// reads (cost_hits + cost_misses) / cost_misses as the search's
// plan-reuse ratio.

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>

#include "advisor/advisor.h"
#include "advisor/benefit.h"
#include "advisor/search_greedy_heuristic.h"
#include "advisor/search_topdown.h"
#include "common/logging.h"
#include "common/random.h"
#include "wlm/compress.h"
#include "wlm/fingerprint.h"
#include "workload/variation.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace {

/// Shared fixture, built once: XMark scale 12 (the demo's Figure 4
/// setup), the enumerated + generalized candidate set, and its DAG. The
/// workload is the XMark set repeated several times, as in
/// bench_fig3_evaluate — repeated queries are what real workloads look
/// like and what the cost cache's query-fingerprint classes collapse. The
/// containment cache is shared too — by the time the real advisor
/// searches, enumeration and DAG construction have already warmed it.
struct Fixture {
  Database db;
  Workload workload;
  Catalog catalog;
  CostModel cost_model;
  ContainmentCache cache;
  std::unique_ptr<Optimizer> optimizer;
  std::vector<CandidateIndex> candidates;
  GeneralizationDag dag;

  Fixture() {
    XMarkParams params;
    XIA_CHECK(PopulateXMark(&db, "xmark", 12, params, 42).ok());
    Workload base = MakeXMarkWorkload("xmark");
    for (int rep = 0; rep < 6; ++rep) {
      for (const Query& q : base.queries()) workload.AddQuery(q);
    }
    optimizer = std::make_unique<Optimizer>(&db, cost_model);
    Result<EnumerationResult> enumerated =
        EnumerateBasicCandidates(db, workload, &cache);
    XIA_CHECK(enumerated.ok());
    candidates =
        GeneralizeCandidates(enumerated->candidates, db, GeneralizeOptions());
    dag = GeneralizationDag::Build(candidates, &cache);
  }
};

Fixture* SharedFixture() {
  static Fixture* fixture = new Fixture();
  return fixture;
}

Result<SearchResult> RunOne(const Fixture& f, ConfigurationEvaluator* evaluator,
                            SearchAlgorithm algorithm,
                            const SearchOptions& options) {
  switch (algorithm) {
    case SearchAlgorithm::kGreedy:
      return GreedySearch(evaluator, options);
    case SearchAlgorithm::kGreedyHeuristic:
      return GreedyHeuristicSearch(evaluator, options);
    case SearchAlgorithm::kTopDown:
      return TopDownSearch(f.dag, evaluator, options);
  }
  return Status::Internal("unknown search algorithm");
}

/// One full configuration search at a 128 KB budget. A fresh evaluator
/// per iteration means cold memo and cold plan cache every run: the
/// numbers measure within-search reuse (searches revisit overlapping
/// configurations), not warm steady state.
void RunSearch(benchmark::State& state, SearchAlgorithm algorithm) {
  Fixture& f = *SharedFixture();
  int threads = static_cast<int>(state.range(0));
  SearchOptions options;
  options.space_budget_bytes = 128.0 * 1024;
  SearchResult last;
  for (auto _ : state) {
    ConfigurationEvaluator evaluator(f.optimizer.get(), &f.workload,
                                     &f.catalog, &f.candidates, &f.cache,
                                     /*account_update_cost=*/true, threads);
    Result<SearchResult> result = RunOne(f, &evaluator, algorithm, options);
    XIA_CHECK(result.ok());
    // The const overload: with GCC, the mutable one's "+m,r" asm
    // constraint clobbers a double member it is handed.
    benchmark::DoNotOptimize(std::as_const(result->benefit));
    last = std::move(*result);
  }
  state.counters["evaluations"] = static_cast<double>(last.evaluations);
  state.counters["chosen"] = static_cast<double>(last.chosen.size());
  state.counters["cost_hits"] = static_cast<double>(last.counters.cost.hits);
  state.counters["cost_misses"] =
      static_cast<double>(last.counters.cost.misses);
}

void BM_SearchGreedy(benchmark::State& state) {
  RunSearch(state, SearchAlgorithm::kGreedy);
}

void BM_SearchGreedyHeuristic(benchmark::State& state) {
  RunSearch(state, SearchAlgorithm::kGreedyHeuristic);
}

void BM_SearchTopDown(benchmark::State& state) {
  RunSearch(state, SearchAlgorithm::kTopDown);
}

BENCHMARK(BM_SearchGreedy)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SearchGreedyHeuristic)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SearchTopDown)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Compressed-vs-raw advising sweep (xia::wlm): the fixture's 6×-repeated
/// workload as a capture log, advised either record-by-record (compress=0:
/// one weight-1 query per execution) or folded into weighted templates
/// (compress=1). Rows land in the same CI JSON as the search sweeps above;
/// `cost_requests` is the per-query what-if traffic compression saves and
/// `advised_queries` the workload size the advisor actually chewed on.
const std::vector<wlm::CaptureRecord>& SharedCaptureLog() {
  static std::vector<wlm::CaptureRecord>* log = [] {
    Fixture& f = *SharedFixture();
    auto* records = new std::vector<wlm::CaptureRecord>();
    uint64_t seq = 0;
    for (const Query& q : f.workload.queries()) {
      Result<QueryPlan> plan = f.optimizer->Optimize(q, f.catalog, &f.cache);
      XIA_CHECK(plan.ok());
      wlm::CaptureRecord r;
      r.seq = seq++;
      r.text = q.text;
      r.fingerprint = wlm::TemplateFingerprint(q);
      r.est_cost = plan->total_cost;
      records->push_back(std::move(r));
    }
    return records;
  }();
  return *log;
}

void BM_AdviseFromLog(benchmark::State& state) {
  Fixture& f = *SharedFixture();
  bool compress = state.range(0) != 0;
  bool decompose = state.range(2) != 0;
  Workload advised;
  if (compress) {
    Result<wlm::CompressedWorkload> compressed =
        wlm::CompressLog(SharedCaptureLog());
    XIA_CHECK(compressed.ok());
    advised = std::move(compressed->workload);
  } else {
    Result<Workload> raw = wlm::WorkloadFromLog(SharedCaptureLog());
    XIA_CHECK(raw.ok());
    advised = std::move(*raw);
  }
  AdvisorOptions options;
  options.space_budget_bytes = 128.0 * 1024;
  options.threads = static_cast<int>(state.range(1));
  options.decompose = decompose;
  Recommendation last;
  for (auto _ : state) {
    Advisor advisor(&f.db, &f.catalog, options);
    Result<Recommendation> rec = advisor.Recommend(advised);
    XIA_CHECK(rec.ok());
    benchmark::DoNotOptimize(std::as_const(rec->benefit));
    last = std::move(*rec);
  }
  state.counters["advised_queries"] = static_cast<double>(advised.size());
  state.counters["cost_requests"] =
      static_cast<double>(last.search.counters.cost.hits +
                          last.search.counters.cost.misses);
  state.counters["benefit_priced"] =
      static_cast<double>(last.search.counters.benefit.priced);
  state.counters["chosen"] = static_cast<double>(last.indexes.size());
}

BENCHMARK(BM_AdviseFromLog)
    ->ArgNames({"compress", "threads", "decompose"})
    ->Args({0, 1, 0})
    ->Args({1, 1, 0})
    ->Args({0, 4, 0})
    ->Args({1, 4, 0})
    ->Args({1, 1, 1})
    ->Args({1, 4, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Decomposed-vs-exact advising sweep over template count. A synthetic
/// capture log — the 15 XMark demo queries plus literal-varied unseen
/// templates, each "executed" a few times — is folded by wlm compression
/// and advised with the atomic-benefit table on or off. The point of the
/// sweep is the call-count asymptotics, not per-call latency: exact
/// scoring issues O(queries × configurations) what-if requests, while the
/// priced table holds requests near O(queries + indexes), so the
/// `whatif_requests` ratio between paired decompose:0/decompose:1 rows
/// widens with the template count (the regression gate holds the 10k row
/// to ≥10×). A small scale-6 database keeps the exact 10k row affordable;
/// Iterations(1) because the counters are deterministic and one exact
/// 10k-template advise is already seconds of optimizer work.
constexpr int kTemplateSweepMax = 10000;
constexpr int kTemplateLogRepeats = 3;

struct TemplateFixture {
  Database db;
  Catalog catalog;
  /// Template-major: kTemplateLogRepeats consecutive records per
  /// template, so a prefix slice of 3·N records is an N-template log.
  std::vector<wlm::CaptureRecord> log;

  TemplateFixture() {
    XMarkParams params;
    XIA_CHECK(PopulateXMark(&db, "xmark", 6, params, 42).ok());
    Workload templates = MakeXMarkWorkload("xmark");
    Random rng(7);
    Workload unseen = MakeXMarkUnseenWorkload(
        "xmark", &rng, kTemplateSweepMax - static_cast<int>(templates.size()));
    for (const Query& q : unseen.queries()) templates.AddQuery(q);
    uint64_t seq = 0;
    for (const Query& q : templates.queries()) {
      for (int rep = 0; rep < kTemplateLogRepeats; ++rep) {
        wlm::CaptureRecord r;
        r.seq = seq++;
        r.text = q.text;
        // Literal-varied templates are distinct advising classes, so the
        // synthetic log fingerprints by full text (identical texts still
        // fold). Unit est_cost: the sweep measures call counts and the
        // equal weights keep every template through compression.
        r.fingerprint = q.text;
        r.est_cost = 1.0;
        log.push_back(std::move(r));
      }
    }
  }
};

TemplateFixture* SharedTemplateFixture() {
  static TemplateFixture* fixture = new TemplateFixture();
  return fixture;
}

void BM_AdviseTemplates(benchmark::State& state) {
  TemplateFixture& f = *SharedTemplateFixture();
  size_t templates = static_cast<size_t>(state.range(0));
  bool decompose = state.range(1) != 0;
  std::vector<wlm::CaptureRecord> slice(
      f.log.begin(),
      f.log.begin() + templates * static_cast<size_t>(kTemplateLogRepeats));
  Result<wlm::CompressedWorkload> compressed = wlm::CompressLog(slice);
  XIA_CHECK(compressed.ok());
  AdvisorOptions options;
  options.space_budget_bytes = 128.0 * 1024;
  options.threads = 1;
  options.decompose = decompose;
  Recommendation last;
  for (auto _ : state) {
    Advisor advisor(&f.db, &f.catalog, options);
    Result<Recommendation> rec = advisor.Recommend(compressed->workload);
    XIA_CHECK(rec.ok());
    benchmark::DoNotOptimize(std::as_const(rec->benefit));
    last = std::move(*rec);
  }
  const AdvisorCacheCounters& c = last.search.counters;
  state.counters["advised_templates"] =
      static_cast<double>(compressed->workload.size());
  state.counters["whatif_requests"] =
      static_cast<double>(c.cost.hits + c.cost.misses);
  state.counters["optimizer_runs"] = static_cast<double>(c.cost.misses);
  state.counters["benefit_priced"] = static_cast<double>(c.benefit.priced);
  state.counters["benefit_table_hits"] =
      static_cast<double>(c.benefit.table_hits);
  state.counters["benefit_composed"] = static_cast<double>(c.benefit.composed);
  state.counters["benefit_fallbacks"] =
      static_cast<double>(c.benefit.fallback_whatifs);
  state.counters["promised_benefit"] = last.benefit;
  state.counters["chosen"] = static_cast<double>(last.indexes.size());
}

BENCHMARK(BM_AdviseTemplates)
    ->ArgNames({"templates", "decompose"})
    ->Args({15, 0})
    ->Args({15, 1})
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xia

#include "bench_main.h"  // Custom main: BENCHMARK_MAIN + --stats-json.
