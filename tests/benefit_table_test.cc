// CoPhy-style atomic-benefit decomposition (advisor/benefit_table.h).
// Covers the capped singleton enumeration, the table's insert/lookup/
// compose mechanics against a subset-scan reference, pricing determinism
// at any thread count, exactness of table hits, the conservative composed
// bound, fallback accounting, anytime (deadline/cancel) partial tables,
// and the headline acceptance property: decomposed advising issues
// several times fewer what-if optimizer calls than exact advising while
// promising benefit within kEpsilon of it (the ≥10× floor at 10k
// templates is enforced by the bench regression gate).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/benefit_table.h"
#include "advisor/enumeration.h"
#include "advisor/generalize.h"
#include "advisor/search_greedy.h"
#include "common/random.h"
#include "workload/variation.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace {

// ------------------------------------------------ Subset enumeration.

TEST(EnumerateBenefitSubsetsTest, EmptySetThenEachCandidateAlone) {
  bool capped = true;
  std::vector<std::vector<int>> subsets =
      EnumerateBenefitSubsets({2, 5, 9}, &capped);
  EXPECT_FALSE(capped);
  ASSERT_EQ(subsets.size(), 4u);
  EXPECT_TRUE(subsets[0].empty());
  EXPECT_EQ(subsets[1], std::vector<int>({2}));
  EXPECT_EQ(subsets[2], std::vector<int>({5}));
  EXPECT_EQ(subsets[3], std::vector<int>({9}));
}

TEST(EnumerateBenefitSubsetsTest, CapTruncatesAndReportsDeterministically) {
  std::vector<int> relevant(200);
  for (size_t i = 0; i < relevant.size(); ++i) {
    relevant[i] = static_cast<int>(i);
  }
  bool capped = false;
  std::vector<std::vector<int>> subsets =
      EnumerateBenefitSubsets(relevant, &capped);
  EXPECT_TRUE(capped);
  // The cap keeps the enumeration-order prefix: the empty set, then the
  // first kMaxSubsetsPerClass - 1 candidates.
  ASSERT_EQ(subsets.size(), kMaxSubsetsPerClass);
  EXPECT_TRUE(subsets[0].empty());
  EXPECT_EQ(subsets[1], std::vector<int>({0}));
  EXPECT_EQ(subsets.back(),
            std::vector<int>({static_cast<int>(kMaxSubsetsPerClass) - 2}));
  // One candidate fewer fits exactly.
  relevant.resize(kMaxSubsetsPerClass - 1);
  EXPECT_EQ(EnumerateBenefitSubsets(relevant, &capped).size(),
            kMaxSubsetsPerClass);
  EXPECT_FALSE(capped);
}

// ------------------------------------------------- Table mechanics.

BenefitEntry Entry(double cost, std::vector<int> used = {}) {
  BenefitEntry e;
  e.cost = cost;
  e.used = std::move(used);
  return e;
}

TEST(BenefitTableMechanicsTest, DebugStringListsCellsInEnumerationOrder) {
  BenefitTable table;
  table.Insert(0, std::nullopt, Entry(10.0));
  table.Insert(0, 1, Entry(7.5, {1}));
  table.Insert(2, std::nullopt, Entry(3.0));
  table.Insert(2, 5, Entry(2.0, {5}));
  EXPECT_EQ(table.DebugString(),
            "class 0 {} cost=10 used={}\n"
            "class 0 {1,} cost=7.5 used={1,}\n"
            "class 2 {} cost=3 used={}\n"
            "class 2 {5,} cost=2 used={5,}\n");
  table.MarkTruncated(StopReason::kDeadline);
  EXPECT_NE(table.DebugString().find("truncated: deadline\n"),
            std::string::npos);
}

TEST(BenefitTableMechanicsTest, LookupIsExactAndFirstInsertWins) {
  BenefitTable table;
  table.Insert(0, 1, Entry(5.0));  // Ignored: precedes the empty set.
  table.Insert(0, std::nullopt, Entry(10.0));
  table.Insert(0, 1, Entry(7.0, {1}));
  table.Insert(0, 1, Entry(99.0));  // Ignored: first insert wins.
  table.Insert(0, std::nullopt, Entry(99.0));
  table.Insert(0, 0, Entry(99.0));  // Ignored: out of ascending order.
  EXPECT_EQ(table.entries(), 2u);
  BenefitEntry out;
  ASSERT_TRUE(table.Lookup(0, {1}, &out));
  EXPECT_EQ(out.cost, 7.0);
  EXPECT_EQ(out.used, std::vector<int>({1}));
  EXPECT_FALSE(table.Lookup(0, {1, 2}, &out));  // Not a priced subset.
  EXPECT_FALSE(table.Lookup(3, {}, &out));      // Unknown class.
}

TEST(BenefitTableMechanicsTest, ComposeTakesMinOverPricedSubsets) {
  BenefitTable table;
  table.Insert(0, std::nullopt, Entry(10.0));
  table.Insert(0, 1, Entry(7.0, {1}));
  table.Insert(0, 2, Entry(8.0, {2}));
  table.Insert(0, 3, Entry(1.0, {3}));  // Not ⊆ the overlap below.
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

/// a ⊆ b, both sorted ascending.
bool SubsetOf(const std::vector<int>& a, const std::vector<int>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

// Lookup and Compose against a reference that keeps (subset, cell) pairs
// in enumeration order, looks a subset up by equality and composes by a
// strict-< scan over every priced subset of the overlap. Costs are drawn
// from a small set so ties exercise the tie-break, and classes are priced
// to random prefixes as a truncated pass leaves them.
TEST(BenefitTableMechanicsTest, ReadsMatchSubsetScanReference) {
  using Cells = std::vector<std::pair<std::vector<int>, BenefitEntry>>;
  Random rng(11);
  for (int round = 0; round < 50; ++round) {
    BenefitTable table;
    std::vector<Cells> reference(4);
    for (int cls = 0; cls < 4; ++cls) {
      std::vector<int> relevant;
      for (int c = 0; c < 12; ++c) {
        if (rng.Bernoulli(0.4)) relevant.push_back(c);
      }
      std::vector<std::vector<int>> subsets =
          EnumerateBenefitSubsets(relevant, nullptr);
      const int64_t kept = rng.Uniform(0, static_cast<int64_t>(subsets.size()));
      subsets.resize(static_cast<size_t>(kept));
      for (const std::vector<int>& subset : subsets) {
        BenefitEntry cell = Entry(static_cast<double>(rng.Uniform(1, 4)));
        if (!subset.empty() && rng.Bernoulli(0.5)) cell.used = subset;
        std::optional<int> candidate;
        if (!subset.empty()) candidate = subset.front();
        table.Insert(cls, candidate, cell);
        reference[static_cast<size_t>(cls)].emplace_back(subset, cell);
      }
    }
    for (int probe = 0; probe < 40; ++probe) {
      const int cls = static_cast<int>(rng.Uniform(0, 4));  // 4: unknown.
      std::vector<int> overlap;
      for (int c = 0; c < 12; ++c) {
        if (rng.Bernoulli(0.15)) overlap.push_back(c);
      }
      const Cells none;
      const Cells& cells = cls < 4 ? reference[static_cast<size_t>(cls)] : none;
      const BenefitEntry* want_lookup = nullptr;
      const BenefitEntry* want_compose = nullptr;
      for (const auto& [subset, cell] : cells) {
        if (subset == overlap) want_lookup = &cell;
        if (!SubsetOf(subset, overlap)) continue;
        if (want_compose == nullptr || cell.cost < want_compose->cost) {
          want_compose = &cell;
        }
      }
      BenefitEntry got;
      ASSERT_EQ(table.Lookup(cls, overlap, &got), want_lookup != nullptr);
      if (want_lookup != nullptr) {
        EXPECT_EQ(got.cost, want_lookup->cost);
        EXPECT_EQ(got.used, want_lookup->used);
      }
      ASSERT_EQ(table.Compose(cls, overlap, &got), want_compose != nullptr);
      if (want_compose != nullptr) {
        EXPECT_EQ(got.cost, want_compose->cost);
        EXPECT_EQ(got.used, want_compose->used);
      }
    }
  }
}

TEST(BenefitTableMechanicsTest, TruncationIsSticky) {
  BenefitTable table;
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
  }

  std::unique_ptr<ConfigurationEvaluator> MakeEvaluator(int threads = 1) {
    return std::make_unique<ConfigurationEvaluator>(
        optimizer_.get(), &workload_, &base_catalog_, &candidates_, &cache_,
        /*account_update_cost=*/true, threads);
  }

  /// Prices a table on a fresh evaluator and returns the evaluator.
  std::unique_ptr<ConfigurationEvaluator> MakeDecomposed(
      int threads = 1, Deadline deadline = Deadline::Infinite()) {
    std::unique_ptr<ConfigurationEvaluator> evaluator =
        MakeEvaluator(threads);
    Result<BenefitPricingReport> report =
        evaluator->PriceBenefitTable(deadline);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return evaluator;
  }

  Database db_;
  Workload workload_;
  Catalog base_catalog_;
  CostModel cost_model_;
  ContainmentCache cache_;
  std::vector<CandidateIndex> candidates_;
  std::unique_ptr<Optimizer> optimizer_;
};

constexpr double kBudget = 64.0 * 1024;

/// The asserted quality bound: on workloads small enough to run both
/// paths, the decomposed recommendation's promised benefit is within this
/// fraction of the exact search's.
constexpr double kEpsilon = 0.05;

TEST_F(BenefitDecompositionTest, PricingIsDeterministicAcrossThreadCounts) {
  std::unique_ptr<ConfigurationEvaluator> serial =
      MakeDecomposed(/*threads=*/1);
  std::unique_ptr<ConfigurationEvaluator> parallel =
      MakeDecomposed(/*threads=*/4);
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
  std::unique_ptr<ConfigurationEvaluator> decomposed = MakeDecomposed();
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
  std::unique_ptr<ConfigurationEvaluator> decomposed = MakeDecomposed();
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

TEST_F(BenefitDecompositionTest, FallbackAndComposedAccounting) {
  // Candidates 0 and 1 are both relevant to the namerica quantity
  // queries, so the {0,1} overlap is no priced subset: a full table
  // composes it.
  std::unique_ptr<ConfigurationEvaluator> compose = MakeDecomposed();
  ASSERT_TRUE(compose->Evaluate({0, 1}).ok());
  BenefitTableStats stats = compose->benefit_table()->stats();
  EXPECT_GT(stats.composed, 0u);
  EXPECT_EQ(stats.fallback_whatifs, 0u);

  // A table truncated before it priced anything has no cell to compose
  // from, so every query falls back to a real what-if call.
  std::unique_ptr<ConfigurationEvaluator> empty =
      MakeDecomposed(/*threads=*/1, Deadline::AfterMillis(0));
  ASSERT_EQ(empty->benefit_table()->entries(), 0u);
  ASSERT_TRUE(empty->Evaluate({0, 1}).ok());
  stats = empty->benefit_table()->stats();
  EXPECT_GT(stats.fallback_whatifs, 0u);
  EXPECT_EQ(stats.composed, 0u);
  EXPECT_EQ(stats.table_hits, 0u);
}

TEST_F(BenefitDecompositionTest, DecomposedTraceCarriesTableStats) {
  std::unique_ptr<ConfigurationEvaluator> decomposed = MakeDecomposed();
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
  Result<BenefitPricingReport> report =
      evaluator->PriceBenefitTable(Deadline::AfterMillis(0));
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
  Result<BenefitPricingReport> report =
      evaluator->PriceBenefitTable(Deadline::Infinite());
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
    decomposed_options.decompose = true;
    Result<Recommendation> decomposed =
        Advisor(&db_, &catalog_, decomposed_options).Recommend(workload);
    ASSERT_TRUE(decomposed.ok()) << SearchAlgorithmName(algorithm);
    EXPECT_TRUE(decomposed->decomposed);
    EXPECT_EQ(decomposed->pricing.stop_reason, StopReason::kConverged);
    EXPECT_FALSE(decomposed->indexes.empty());

    // The acceptance bound: promised benefit within ε of the exact
    // search's (the composed score is conservative, so the decomposed
    // promise can only understate, never overstate).
    EXPECT_GE(decomposed->benefit,
              exact->benefit * (1.0 - kEpsilon))
        << SearchAlgorithmName(algorithm);
    EXPECT_LE(decomposed->benefit,
              exact->benefit * (1.0 + kEpsilon))
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
  decomposed_options.decompose = true;
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
