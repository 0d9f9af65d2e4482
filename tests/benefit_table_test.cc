// CoPhy-style atomic-benefit decomposition (advisor/benefit_table.h).
// Covers the bounded subset enumeration and DAG pair pruning, the table's
// insert/lookup/compose mechanics, pricing determinism at any thread
// count, exactness of table hits, the conservative composed bound, the
// compose-off mode's bit-identity with exact search, fallback accounting,
// anytime (deadline/cancel) partial tables, and the headline acceptance
// property: decomposed advising issues several times fewer what-if
// optimizer calls than exact advising while promising benefit within
// DecomposeOptions::epsilon of it (the ≥10× floor at 10k templates is
// enforced by the bench regression gate).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/benefit_table.h"
#include "advisor/enumeration.h"
#include "advisor/generalize.h"
#include "advisor/search_greedy.h"
#include "advisor/search_greedy_heuristic.h"
#include "advisor/search_topdown.h"
#include "common/random.h"
#include "workload/variation.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace {

// ------------------------------------------------ Subset enumeration.

TEST(EnumerateBenefitSubsetsTest, DegreeOneIsEmptySetPlusSingletons) {
  bool capped = true;
  std::vector<std::vector<int>> subsets =
      EnumerateBenefitSubsets({2, 5, 9}, /*max_degree=*/1,
                              /*max_subsets=*/128, nullptr, &capped);
  EXPECT_FALSE(capped);
  ASSERT_EQ(subsets.size(), 4u);
  EXPECT_TRUE(subsets[0].empty());
  EXPECT_EQ(subsets[1], std::vector<int>({2}));
  EXPECT_EQ(subsets[2], std::vector<int>({5}));
  EXPECT_EQ(subsets[3], std::vector<int>({9}));
}

TEST(EnumerateBenefitSubsetsTest, DegreeTwoAddsPairsInLexicographicOrder) {
  bool capped = true;
  std::vector<std::vector<int>> subsets =
      EnumerateBenefitSubsets({2, 5, 9}, /*max_degree=*/2,
                              /*max_subsets=*/128, nullptr, &capped);
  EXPECT_FALSE(capped);
  ASSERT_EQ(subsets.size(), 7u);
  EXPECT_EQ(subsets[4], std::vector<int>({2, 5}));
  EXPECT_EQ(subsets[5], std::vector<int>({2, 9}));
  EXPECT_EQ(subsets[6], std::vector<int>({5, 9}));
}

TEST(EnumerateBenefitSubsetsTest, AncestorPruningDropsComparablePairs) {
  // Candidate 0 strictly generalizes candidate 1; 2 is incomparable.
  std::vector<Bitmap> ancestors(3, Bitmap(3));
  ancestors[1].Set(0);
  bool capped = true;
  std::vector<std::vector<int>> subsets = EnumerateBenefitSubsets(
      {0, 1, 2}, /*max_degree=*/2, /*max_subsets=*/128, &ancestors, &capped);
  EXPECT_FALSE(capped);
  // Empty + three singletons + {0,2} + {1,2}; {0,1} is pruned.
  ASSERT_EQ(subsets.size(), 6u);
  EXPECT_EQ(subsets[4], std::vector<int>({0, 2}));
  EXPECT_EQ(subsets[5], std::vector<int>({1, 2}));
}

TEST(EnumerateBenefitSubsetsTest, CapTruncatesAndReportsDeterministically) {
  bool capped = false;
  std::vector<std::vector<int>> subsets =
      EnumerateBenefitSubsets({1, 2, 3, 4}, /*max_degree=*/2,
                              /*max_subsets=*/3, nullptr, &capped);
  EXPECT_TRUE(capped);
  // The cap keeps the size-ascending prefix: empty + first two singletons.
  ASSERT_EQ(subsets.size(), 3u);
  EXPECT_TRUE(subsets[0].empty());
  EXPECT_EQ(subsets[1], std::vector<int>({1}));
  EXPECT_EQ(subsets[2], std::vector<int>({2}));
}

// ------------------------------------------------- Table mechanics.

BenefitEntry Entry(double cost, std::vector<int> used = {}) {
  BenefitEntry e;
  e.cost = cost;
  e.used = std::move(used);
  return e;
}

TEST(BenefitTableMechanicsTest, SubsetKeyIsCommaTerminatedIds) {
  EXPECT_EQ(BenefitTable::SubsetKey({}), "");
  EXPECT_EQ(BenefitTable::SubsetKey({1, 5}), "1,5,");
}

TEST(BenefitTableMechanicsTest, LookupIsExactAndFirstInsertWins) {
  BenefitTable table(/*max_degree=*/1);
  table.Insert(0, {}, Entry(10.0));
  table.Insert(0, {1}, Entry(7.0, {1}));
  table.Insert(0, {1}, Entry(99.0));  // Ignored: first insert wins.
  EXPECT_EQ(table.entries(), 2u);
  BenefitEntry out;
  ASSERT_TRUE(table.Lookup(0, {1}, &out));
  EXPECT_EQ(out.cost, 7.0);
  EXPECT_EQ(out.used, std::vector<int>({1}));
  EXPECT_FALSE(table.Lookup(0, {1, 2}, &out));  // Not a priced subset.
  EXPECT_FALSE(table.Lookup(3, {}, &out));      // Unknown class.
}

TEST(BenefitTableMechanicsTest, ComposeTakesMinOverPricedSubsets) {
  BenefitTable table(/*max_degree=*/1);
  table.Insert(0, {}, Entry(10.0));
  table.Insert(0, {1}, Entry(7.0, {1}));
  table.Insert(0, {2}, Entry(8.0, {2}));
  table.Insert(0, {3}, Entry(1.0, {3}));  // Not ⊆ the overlap below.
  BenefitEntry out;
  ASSERT_TRUE(table.Compose(0, {1, 2}, &out));
  EXPECT_EQ(out.cost, 7.0);
  EXPECT_EQ(out.used, std::vector<int>({1}));
  // The empty set alone still composes (collection-scan upper bound).
  ASSERT_TRUE(table.Compose(0, {4}, &out));
  EXPECT_EQ(out.cost, 10.0);
  // A class with nothing priced cannot compose.
  EXPECT_FALSE(table.Compose(7, {1}, &out));
}

TEST(BenefitTableMechanicsTest, TruncationIsSticky) {
  BenefitTable table(/*max_degree=*/1);
  EXPECT_FALSE(table.truncated());
  table.MarkTruncated(StopReason::kDeadline);
  EXPECT_TRUE(table.truncated());
  EXPECT_EQ(table.stop_reason(), StopReason::kDeadline);
  EXPECT_TRUE(table.stats().truncated);
}

// ----------------------------------------------------- XMark fixture.

class BenefitDecompositionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 6, params, 42).ok());
    workload_ = MakeXMarkWorkload("xmark");
    optimizer_ = std::make_unique<Optimizer>(&db_, cost_model_);
    Result<EnumerationResult> enumerated =
        EnumerateBasicCandidates(db_, workload_, &cache_);
    ASSERT_TRUE(enumerated.ok());
    candidates_ = GeneralizeCandidates(enumerated->candidates, db_,
                                       GeneralizeOptions());
    dag_ = GeneralizationDag::Build(candidates_, &cache_);
  }

  std::unique_ptr<ConfigurationEvaluator> MakeEvaluator(int threads = 1) {
    return std::make_unique<ConfigurationEvaluator>(
        optimizer_.get(), &workload_, &base_catalog_, &candidates_, &cache_,
        /*account_update_cost=*/true, threads);
  }

  /// Prices a table on a fresh evaluator and returns the evaluator.
  std::unique_ptr<ConfigurationEvaluator> MakeDecomposed(
      const DecomposeOptions& opts, int threads = 1,
      Deadline deadline = Deadline::Infinite()) {
    std::unique_ptr<ConfigurationEvaluator> evaluator =
        MakeEvaluator(threads);
    Result<BenefitPricingReport> report =
        evaluator->PriceBenefitTable(opts, &dag_, deadline);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return evaluator;
  }

  static DecomposeOptions Degree(int degree, bool compose = true) {
    DecomposeOptions opts;
    opts.enabled = true;
    opts.max_degree = degree;
    opts.compose_above_degree = compose;
    return opts;
  }

  Database db_;
  Workload workload_;
  Catalog base_catalog_;
  CostModel cost_model_;
  ContainmentCache cache_;
  std::vector<CandidateIndex> candidates_;
  GeneralizationDag dag_;
  std::unique_ptr<Optimizer> optimizer_;
};

constexpr double kBudget = 64.0 * 1024;

TEST_F(BenefitDecompositionTest, DagAncestorsMatchesDagStructure) {
  std::vector<Bitmap> ancestors = DagAncestors(dag_);
  ASSERT_EQ(ancestors.size(), candidates_.size());
  // Every DAG edge parent→child makes the parent a strict ancestor of the
  // child, and ancestry is transitive through grandparents.
  for (size_t n = 0; n < dag_.nodes().size(); ++n) {
    for (int parent : dag_.nodes()[n].parents) {
      EXPECT_TRUE(ancestors[n].Test(static_cast<size_t>(parent)));
      for (int grand : dag_.nodes()[static_cast<size_t>(parent)].parents) {
        EXPECT_TRUE(ancestors[n].Test(static_cast<size_t>(grand)));
      }
    }
    // Strict: nothing is its own ancestor.
    EXPECT_FALSE(ancestors[n].Test(n));
  }
}

TEST_F(BenefitDecompositionTest, PricingIsDeterministicAcrossThreadCounts) {
  std::unique_ptr<ConfigurationEvaluator> serial =
      MakeDecomposed(Degree(2), /*threads=*/1);
  std::unique_ptr<ConfigurationEvaluator> parallel =
      MakeDecomposed(Degree(2), /*threads=*/4);
  ASSERT_TRUE(serial->decomposed());
  ASSERT_TRUE(parallel->decomposed());
  EXPECT_GT(serial->benefit_table()->entries(), 0u);
  // The full table dump — every class, every priced subset, every cost
  // and attribution, in enumeration order — is byte-identical.
  EXPECT_EQ(serial->benefit_table()->DebugString(),
            parallel->benefit_table()->DebugString());
  EXPECT_EQ(serial->DescribeDecomposition(),
            parallel->DescribeDecomposition());
}

TEST_F(BenefitDecompositionTest, TableHitsAreExactNotEstimates) {
  std::unique_ptr<ConfigurationEvaluator> exact = MakeEvaluator();
  std::unique_ptr<ConfigurationEvaluator> decomposed =
      MakeDecomposed(Degree(1));
  // Singleton configurations: every query's relevant overlap is a priced
  // subset, so the decomposed evaluation must be bit-identical.
  for (int c : {0, 1}) {
    Result<ConfigurationEvaluator::Evaluation> e = exact->Evaluate({c});
    Result<ConfigurationEvaluator::Evaluation> d = decomposed->Evaluate({c});
    ASSERT_TRUE(e.ok());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(e->workload_cost, d->workload_cost);
    EXPECT_EQ(e->update_cost, d->update_cost);
    EXPECT_EQ(e->per_query_cost, d->per_query_cost);
    EXPECT_EQ(e->used_candidates, d->used_candidates);
  }
  EXPECT_GT(decomposed->benefit_table()->stats().table_hits, 0u);
}

TEST_F(BenefitDecompositionTest, ComposedScoreIsConservativeUpperBound) {
  std::unique_ptr<ConfigurationEvaluator> exact = MakeEvaluator();
  std::unique_ptr<ConfigurationEvaluator> decomposed =
      MakeDecomposed(Degree(1));
  std::vector<int> all(candidates_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  Result<ConfigurationEvaluator::Evaluation> e = exact->Evaluate(all);
  Result<ConfigurationEvaluator::Evaluation> d = decomposed->Evaluate(all);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(d.ok());
  // Never optimistic: the composed cost bounds the true cost from above,
  // per query and in aggregate (cost monotonicity, benefit_table.h).
  EXPECT_GE(d->workload_cost, e->workload_cost - 1e-9);
  ASSERT_EQ(d->per_query_cost.size(), e->per_query_cost.size());
  for (size_t qi = 0; qi < e->per_query_cost.size(); ++qi) {
    EXPECT_GE(d->per_query_cost[qi], e->per_query_cost[qi] - 1e-9);
  }
  // And never worse than the best priced singleton: {0} ⊆ `all`, so the
  // composition is at least as good as evaluating {0} alone.
  Result<ConfigurationEvaluator::Evaluation> single = exact->Evaluate({0});
  ASSERT_TRUE(single.ok());
  EXPECT_LE(d->workload_cost, single->workload_cost + 1e-9);
  EXPECT_GT(decomposed->benefit_table()->stats().composed, 0u);
}

TEST_F(BenefitDecompositionTest, ComposeOffIsBitIdenticalToExactSearch) {
  // With composition disabled, every overlap beyond the priced degree
  // falls back to a real what-if call, making the decomposed searches
  // bit-identical to the exact ones — the determinism anchor of the mode.
  SearchOptions options;
  options.space_budget_bytes = kBudget;
  struct Algorithm {
    const char* name;
    std::function<Result<SearchResult>(ConfigurationEvaluator*)> run;
  };
  const std::vector<Algorithm> algorithms = {
      {"greedy",
       [&](ConfigurationEvaluator* e) { return GreedySearch(e, options); }},
      {"heuristic",
       [&](ConfigurationEvaluator* e) {
         return GreedyHeuristicSearch(e, options);
       }},
      {"topdown",
       [&](ConfigurationEvaluator* e) {
         return TopDownSearch(dag_, e, options);
       }},
  };
  for (const Algorithm& algorithm : algorithms) {
    std::unique_ptr<ConfigurationEvaluator> exact = MakeEvaluator();
    std::unique_ptr<ConfigurationEvaluator> decomposed =
        MakeDecomposed(Degree(1, /*compose=*/false));
    Result<SearchResult> e = algorithm.run(exact.get());
    Result<SearchResult> d = algorithm.run(decomposed.get());
    ASSERT_TRUE(e.ok()) << algorithm.name;
    ASSERT_TRUE(d.ok()) << algorithm.name;
    EXPECT_EQ(e->chosen, d->chosen) << algorithm.name;
    EXPECT_EQ(e->workload_cost, d->workload_cost) << algorithm.name;
    EXPECT_EQ(e->update_cost, d->update_cost) << algorithm.name;
    EXPECT_EQ(e->baseline_cost, d->baseline_cost) << algorithm.name;
    EXPECT_EQ(e->benefit, d->benefit) << algorithm.name;
  }
}

TEST_F(BenefitDecompositionTest, FallbackAndComposedAccounting) {
  // Candidates 0 and 1 are both relevant to the namerica quantity
  // queries, so the {0,1} overlap exceeds a degree-1 table.
  std::unique_ptr<ConfigurationEvaluator> no_compose =
      MakeDecomposed(Degree(1, /*compose=*/false));
  ASSERT_TRUE(no_compose->Evaluate({0, 1}).ok());
  BenefitTableStats stats = no_compose->benefit_table()->stats();
  EXPECT_GT(stats.fallback_whatifs, 0u);
  EXPECT_EQ(stats.composed, 0u);

  std::unique_ptr<ConfigurationEvaluator> compose = MakeDecomposed(Degree(1));
  ASSERT_TRUE(compose->Evaluate({0, 1}).ok());
  stats = compose->benefit_table()->stats();
  EXPECT_GT(stats.composed, 0u);
  EXPECT_EQ(stats.fallback_whatifs, 0u);
}

TEST_F(BenefitDecompositionTest, DecomposedTraceCarriesTableStats) {
  std::unique_ptr<ConfigurationEvaluator> decomposed =
      MakeDecomposed(Degree(1));
  SearchOptions options;
  options.space_budget_bytes = kBudget;
  Result<SearchResult> result = GreedySearch(decomposed.get(), options);
  ASSERT_TRUE(result.ok());
  const std::vector<std::string>& trace = result->trace;
  EXPECT_NE(std::find_if(trace.begin(), trace.end(),
                         [](const std::string& line) {
                           return line.find("decomposed scoring:") !=
                                  std::string::npos;
                         }),
            trace.end());
  bool found_priced = false;
  for (const std::string& line : trace) {
    if (line.find("benefit.priced = ") != std::string::npos) {
      found_priced = true;
    }
  }
  EXPECT_TRUE(found_priced);
  EXPECT_GT(result->counters.benefit.priced, 0u);
  // The exact evaluator's counters stay silent about the benefit table.
  std::unique_ptr<ConfigurationEvaluator> exact = MakeEvaluator();
  Result<SearchResult> exact_result = GreedySearch(exact.get(), options);
  ASSERT_TRUE(exact_result.ok());
  EXPECT_EQ(exact_result->counters.benefit.priced, 0u);
  EXPECT_EQ(exact_result->counters.benefit.entries, 0u);
}

TEST_F(BenefitDecompositionTest, ExpiredDeadlineYieldsUsablePartialTable) {
  std::unique_ptr<ConfigurationEvaluator> evaluator = MakeEvaluator();
  Result<BenefitPricingReport> report = evaluator->PriceBenefitTable(
      Degree(1), &dag_, Deadline::AfterMillis(0));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->stop_reason, StopReason::kDeadline);
  EXPECT_LT(report->subsets_priced, report->subsets_enumerated);
  ASSERT_TRUE(evaluator->decomposed());
  EXPECT_TRUE(evaluator->benefit_table()->truncated());
  EXPECT_NE(evaluator->DescribeDecomposition().find("deadline"),
            std::string::npos);
  // The truncated table still evaluates — unpriced cells fall back to
  // real what-ifs, so the result matches the exact path.
  std::unique_ptr<ConfigurationEvaluator> exact = MakeEvaluator();
  Result<ConfigurationEvaluator::Evaluation> d = evaluator->Evaluate({0});
  Result<ConfigurationEvaluator::Evaluation> e = exact->Evaluate({0});
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(d->workload_cost, e->workload_cost);
}

TEST_F(BenefitDecompositionTest, PreCancelledTokenStopsPricing) {
  std::unique_ptr<ConfigurationEvaluator> evaluator = MakeEvaluator();
  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  evaluator->set_cancel(token);
  Result<BenefitPricingReport> report = evaluator->PriceBenefitTable(
      Degree(1), &dag_, Deadline::Infinite());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->stop_reason, StopReason::kCancelled);
  EXPECT_TRUE(evaluator->benefit_table()->truncated());
}

// --------------------------------------------- Advisor-level pipeline.

class BenefitAdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 6, params, 42).ok());
  }

  AdvisorOptions Options(SearchAlgorithm algorithm) {
    AdvisorOptions options;
    options.space_budget_bytes = 512.0 * 1024;
    options.algorithm = algorithm;
    options.threads = 1;
    return options;
  }

  /// What-if cost requests the advise issued (the repo-wide convention,
  /// see wlm_test.cc): every per-(query, configuration) evaluation the
  /// search performs, whether the plan cache can serve it or not. This is
  /// the quantity the benefit table eliminates — table-resolved queries
  /// never reach the what-if layer at all.
  static uint64_t WhatIfRequests(const Recommendation& rec) {
    const CostCacheStats& c = rec.search.counters.cost;
    return c.hits + c.misses;
  }

  /// True optimizer invocations (plan-cache misses).
  static uint64_t OptimizerRuns(const Recommendation& rec) {
    return rec.search.counters.cost.misses;
  }

  Database db_;
  Catalog catalog_;
  CostModel cost_model_;
};

TEST_F(BenefitAdvisorTest, PromisedBenefitWithinEpsilonForAllAlgorithms) {
  const Workload workload = MakeXMarkWorkload("xmark");
  for (SearchAlgorithm algorithm :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyHeuristic,
        SearchAlgorithm::kTopDown}) {
    AdvisorOptions exact_options = Options(algorithm);
    Result<Recommendation> exact =
        Advisor(&db_, &catalog_, exact_options).Recommend(workload);
    ASSERT_TRUE(exact.ok()) << SearchAlgorithmName(algorithm);

    AdvisorOptions decomposed_options = Options(algorithm);
    decomposed_options.decompose.enabled = true;
    decomposed_options.decompose.max_degree = 2;
    Result<Recommendation> decomposed =
        Advisor(&db_, &catalog_, decomposed_options).Recommend(workload);
    ASSERT_TRUE(decomposed.ok()) << SearchAlgorithmName(algorithm);
    EXPECT_TRUE(decomposed->decomposed);
    EXPECT_EQ(decomposed->pricing.stop_reason, StopReason::kConverged);
    EXPECT_FALSE(decomposed->indexes.empty());

    // The acceptance bound: promised benefit within ε of the exact
    // search's (the composed score is conservative, so the decomposed
    // promise can only understate, never overstate).
    const double epsilon = decomposed_options.decompose.epsilon;
    EXPECT_GE(decomposed->benefit,
              exact->benefit * (1.0 - epsilon))
        << SearchAlgorithmName(algorithm);
    EXPECT_LE(decomposed->benefit,
              exact->benefit * (1.0 + epsilon))
        << SearchAlgorithmName(algorithm);
    // The report surfaces the mode.
    EXPECT_NE(decomposed->Report().find("Decomposed scoring:"),
              std::string::npos);
  }
}

TEST_F(BenefitAdvisorTest, DecomposedAdvisingCutsWhatIfCallsTenfold) {
  // The acceptance property at test-runnable scale: a 200-template
  // workload (the base XMark mix plus template variations with distinct
  // regions, paths, and literals — what a compressed log presents)
  // advised with the default greedy+heuristic search issues ≥10× fewer
  // what-if calls decomposed than exact. The ratio grows with template
  // count (pricing is O(queries + candidates); exact evaluation is
  // O(configurations × queries)); the bench regression gate holds the
  // same floor at the 10k-template row.
  Workload workload = MakeXMarkWorkload("xmark");
  Random rng(7);
  Workload unseen = MakeXMarkUnseenWorkload("xmark", &rng, 185);
  int n = 0;
  for (const Query& q : unseen.queries()) {
    ASSERT_TRUE(
        workload.AddQueryText(q.text, q.weight, q.id + std::to_string(n++))
            .ok());
  }

  AdvisorOptions exact_options = Options(SearchAlgorithm::kGreedyHeuristic);
  Result<Recommendation> exact =
      Advisor(&db_, &catalog_, exact_options).Recommend(workload);
  ASSERT_TRUE(exact.ok());

  AdvisorOptions decomposed_options = exact_options;
  decomposed_options.decompose.enabled = true;
  Result<Recommendation> decomposed =
      Advisor(&db_, &catalog_, decomposed_options).Recommend(workload);
  ASSERT_TRUE(decomposed.ok());
  EXPECT_TRUE(decomposed->decomposed);

  uint64_t exact_calls = WhatIfRequests(*exact);
  uint64_t decomposed_calls = WhatIfRequests(*decomposed);
  ASSERT_GT(decomposed_calls, 0u);
  EXPECT_GE(exact_calls, 10 * decomposed_calls)
      << "exact=" << exact_calls << " decomposed=" << decomposed_calls;
  // The decomposed path also never runs the optimizer itself more often.
  EXPECT_LE(OptimizerRuns(*decomposed), OptimizerRuns(*exact));
  // Same ballpark recommendation quality on the way.
  EXPECT_GE(decomposed->benefit, exact->benefit * 0.95);
}

}  // namespace
}  // namespace xia
