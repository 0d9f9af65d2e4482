#include <gtest/gtest.h>

#include <set>

#include "advisor/advisor.h"
#include "advisor/analysis.h"
#include "common/metrics.h"
#include "exec/executor.h"
#include "workload/tpox_queries.h"
#include "workload/variation.h"
#include "workload/xmark_queries.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace {

class AdvisorIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 6, params, 42).ok());
    workload_ = MakeXMarkWorkload("xmark");
  }

  AdvisorOptions Options(SearchAlgorithm algo,
                         double budget = 128.0 * 1024) {
    AdvisorOptions options;
    options.algorithm = algo;
    options.space_budget_bytes = budget;
    return options;
  }

  Database db_;
  Catalog catalog_;
  Workload workload_;
};

TEST_F(AdvisorIntegrationTest, FullPipelineAllAlgorithms) {
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyHeuristic,
        SearchAlgorithm::kTopDown}) {
    Advisor advisor(&db_, &catalog_, Options(algo));
    Result<Recommendation> rec = advisor.Recommend(workload_);
    ASSERT_TRUE(rec.ok()) << SearchAlgorithmName(algo) << ": "
                          << rec.status().ToString();
    EXPECT_FALSE(rec->indexes.empty()) << SearchAlgorithmName(algo);
    EXPECT_LE(rec->total_size_bytes, 128.0 * 1024);
    EXPECT_GT(rec->benefit, 0.0);
    EXPECT_LT(rec->recommended_cost, rec->baseline_cost);
    // The recommendation reduces cost by orders of magnitude on this
    // scan-bound workload (the paper's headline claim).
    EXPECT_GT(rec->baseline_cost / rec->recommended_cost, 10.0)
        << SearchAlgorithmName(algo);
    // Artifacts are all populated.
    EXPECT_FALSE(rec->enumeration.candidates.empty());
    EXPECT_GE(rec->candidates.size(), rec->enumeration.candidates.size());
    EXPECT_EQ(rec->dag.size(), rec->candidates.size());
    EXPECT_FALSE(rec->search.trace.empty());
    // Report is printable and mentions DDL.
    EXPECT_NE(rec->Report().find("CREATE INDEX"), std::string::npos);
  }
}

TEST_F(AdvisorIntegrationTest, GeneralizationProducesWildcardCandidates) {
  Advisor advisor(&db_, &catalog_,
                  Options(SearchAlgorithm::kGreedyHeuristic));
  Result<Recommendation> rec = advisor.Recommend(workload_);
  ASSERT_TRUE(rec.ok());
  bool has_generalized = false;
  for (const CandidateIndex& c : rec->candidates) {
    if (c.from_generalization) {
      has_generalized = true;
      EXPECT_GT(c.def.pattern.WildcardCount(), 0u);
    }
  }
  EXPECT_TRUE(has_generalized);
}

TEST_F(AdvisorIntegrationTest, GeneralizationOffShrinksCandidateSet) {
  AdvisorOptions with = Options(SearchAlgorithm::kGreedyHeuristic);
  AdvisorOptions without = Options(SearchAlgorithm::kGreedyHeuristic);
  without.enable_generalization = false;
  Advisor a_with(&db_, &catalog_, with);
  Advisor a_without(&db_, &catalog_, without);
  Result<Recommendation> rec_with = a_with.Recommend(workload_);
  Result<Recommendation> rec_without = a_without.Recommend(workload_);
  ASSERT_TRUE(rec_with.ok());
  ASSERT_TRUE(rec_without.ok());
  EXPECT_GT(rec_with->candidates.size(), rec_without->candidates.size());
  EXPECT_EQ(rec_without->candidates.size(),
            rec_without->enumeration.candidates.size());
}

TEST_F(AdvisorIntegrationTest, RecommendationNamesAreUnique) {
  Advisor advisor(&db_, &catalog_,
                  Options(SearchAlgorithm::kGreedyHeuristic));
  Result<Recommendation> rec = advisor.Recommend(workload_);
  ASSERT_TRUE(rec.ok());
  std::set<std::string> names;
  for (const IndexDefinition& def : rec->indexes) {
    EXPECT_FALSE(def.name.empty());
    EXPECT_TRUE(names.insert(def.name).second) << def.name;
  }
}

TEST_F(AdvisorIntegrationTest, AnalysisThreeWayComparison) {
  Advisor advisor(&db_, &catalog_,
                  Options(SearchAlgorithm::kGreedyHeuristic));
  Result<Recommendation> rec = advisor.Recommend(workload_);
  ASSERT_TRUE(rec.ok());
  Result<RecommendationAnalysis> analysis =
      AnalyzeRecommendation(db_, catalog_, workload_, *rec,
                            advisor.options().cost_model, advisor.cache());
  ASSERT_TRUE(analysis.ok());
  ASSERT_EQ(analysis->rows.size(), workload_.size());
  for (const QueryCostRow& row : analysis->rows) {
    // Indexes never hurt an individual query's estimated cost.
    EXPECT_LE(row.cost_recommended, row.cost_no_index + 1e-9);
    // The overtrained configuration is the per-workload optimum.
    EXPECT_LE(row.cost_overtrained, row.cost_no_index + 1e-9);
  }
  EXPECT_LT(analysis->total_recommended, analysis->total_no_index);
  EXPECT_LE(analysis->total_overtrained,
            analysis->total_recommended + 1e-9);
  EXPECT_NE(analysis->ToTable().find("TOTAL"), std::string::npos);
}

TEST_F(AdvisorIntegrationTest, GeneralizedConfigHelpsUnseenQueries) {
  AdvisorOptions options = Options(SearchAlgorithm::kTopDown);
  Advisor advisor(&db_, &catalog_, options);
  Result<Recommendation> rec = advisor.Recommend(workload_);
  ASSERT_TRUE(rec.ok());

  Random rng(99);
  Workload unseen = MakeXMarkUnseenWorkload("xmark", &rng, 12);
  Result<EvaluateIndexesResult> without = EvaluateConfigurationOnWorkload(
      db_, catalog_, {}, unseen, options.cost_model, advisor.cache());
  Result<EvaluateIndexesResult> with = EvaluateConfigurationOnWorkload(
      db_, catalog_, rec->indexes, unseen, options.cost_model,
      advisor.cache());
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  EXPECT_LT(with->total_weighted_cost, without->total_weighted_cost);
}

TEST_F(AdvisorIntegrationTest, MaterializeAndExecuteRecommendation) {
  AdvisorOptions options = Options(SearchAlgorithm::kGreedyHeuristic);
  Advisor advisor(&db_, &catalog_, options);
  Result<Recommendation> rec = advisor.Recommend(workload_);
  ASSERT_TRUE(rec.ok());

  Result<double> built = MaterializeConfiguration(
      db_, rec->indexes, &catalog_, options.cost_model.storage);
  ASSERT_TRUE(built.ok());
  EXPECT_GT(*built, 0.0);
  EXPECT_EQ(catalog_.size(), rec->indexes.size());

  // Every workload query now optimizes to a physical plan and executes,
  // returning the same results as a collection scan.
  Optimizer optimizer(&db_, options.cost_model);
  Executor executor(&db_, &catalog_, options.cost_model);
  Catalog empty;
  for (const Query& query : workload_.queries()) {
    Result<QueryPlan> idx_plan =
        optimizer.Optimize(query, catalog_, advisor.cache());
    Result<QueryPlan> scan_plan =
        optimizer.Optimize(query, empty, advisor.cache());
    ASSERT_TRUE(idx_plan.ok());
    ASSERT_TRUE(scan_plan.ok());
    Result<ExecResult> idx_run = executor.Execute(*idx_plan);
    Result<ExecResult> scan_run = executor.Execute(*scan_plan);
    ASSERT_TRUE(idx_run.ok()) << query.id;
    ASSERT_TRUE(scan_run.ok()) << query.id;
    EXPECT_EQ(idx_run->nodes, scan_run->nodes) << query.id;
  }
}

TEST_F(AdvisorIntegrationTest, RelevanceSetupHasItsOwnSpanAndTraceIsUnchanged) {
  // Evaluator construction (the what-if kernel's relevance matrix) is
  // timed as advisor.relevance, once per Recommend; turning spans on
  // changes no search trace.
  Advisor plain(&db_, &catalog_, Options(SearchAlgorithm::kGreedyHeuristic));
  Result<Recommendation> untraced = plain.Recommend(workload_);
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();

  auto relevance_calls = [] {
    obs::Snapshot snap = obs::Registry().TakeSnapshot();
    auto it = snap.spans.find("advisor.relevance");
    return it == snap.spans.end() ? uint64_t{0} : it->second.count;
  };
  const uint64_t before = relevance_calls();
  obs::SetSpansEnabled(true);
  Advisor traced_advisor(&db_, &catalog_,
                         Options(SearchAlgorithm::kGreedyHeuristic));
  Result<Recommendation> traced = traced_advisor.Recommend(workload_);
  obs::SetSpansEnabled(false);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_EQ(relevance_calls(), before + 1);
  EXPECT_EQ(traced->search.TraceString(), untraced->search.TraceString());
}

TEST_F(AdvisorIntegrationTest, MultiCollectionTpoxPipeline) {
  Database tpox;
  TpoxParams params;
  ASSERT_TRUE(PopulateTpox(&tpox, 20, 40, 10, params, 11).ok());
  Workload workload = MakeTpoxWorkload();
  AddTpoxUpdates(&workload, 1.0);
  Catalog catalog;
  Advisor advisor(&tpox, &catalog,
                  Options(SearchAlgorithm::kGreedyHeuristic));
  Result<Recommendation> rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok());
  EXPECT_GT(rec->benefit, 0.0);
  // The recommendation spans multiple collections.
  std::set<std::string> collections;
  for (const IndexDefinition& def : rec->indexes) {
    collections.insert(def.collection);
  }
  EXPECT_GE(collections.size(), 2u);
}

TEST_F(AdvisorIntegrationTest, EmptyWorkloadYieldsEmptyRecommendation) {
  Workload empty;
  Advisor advisor(&db_, &catalog_,
                  Options(SearchAlgorithm::kGreedyHeuristic));
  Result<Recommendation> rec = advisor.Recommend(empty);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->indexes.empty());
  EXPECT_EQ(rec->benefit, 0.0);
}

TEST_F(AdvisorIntegrationTest, UpdateHeavyWorkloadShrinksConfig) {
  AdvisorOptions options = Options(SearchAlgorithm::kGreedyHeuristic);
  Advisor no_updates(&db_, &catalog_, options);
  Result<Recommendation> rec_no = no_updates.Recommend(workload_);
  ASSERT_TRUE(rec_no.ok());

  Workload heavy = MakeXMarkWorkload("xmark");
  AddXMarkUpdates(&heavy, "xmark", 50.0);
  Advisor with_updates(&db_, &catalog_, options);
  Result<Recommendation> rec_up = with_updates.Recommend(heavy);
  ASSERT_TRUE(rec_up.ok());
  // Heavy updates debit benefits, so the chosen configuration cannot be
  // more beneficial than the update-free one.
  EXPECT_LE(rec_up->benefit, rec_no->benefit + 1e-9);
}

}  // namespace
}  // namespace xia
