// What-if plan cache correctness: caching must be invisible in every
// observable output. Per-query and workload costs, used-candidate sets,
// and whole recommendations are required to be bit-identical to a serial
// brute-force reference that builds the full configuration overlay and
// optimizes every query from scratch — at any thread count, through
// Evaluate and EvaluateMany alike — while the hit/miss counters
// themselves stay deterministic. Long-lived and shared caches must never
// serve a plan priced for another workload or on data that has since
// changed. Also pins the memo-key canonicalization contract (CanonicalKey
// is the single normalization point for Evaluate and EvaluateMany) and
// the relevance predicate's consistency with the matcher.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/benefit.h"
#include "advisor/whatif.h"
#include "common/random.h"
#include "dml/dml.h"
#include "index/index_matcher.h"
#include "optimizer/cost_cache.h"
#include "optimizer/explain.h"
#include "workload/xmark_queries.h"
#include "xml/serializer.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace {

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

/// The brute-force reference's answer for one configuration.
struct OracleEvaluation {
  double workload_cost = 0;
  std::vector<double> per_query_cost;
  std::set<int> used_candidates;
};

/// Serial brute-force reference: the whole configuration as virtual
/// indexes named cand<i> on top of `base`, every query optimized against
/// that full overlay, no plan cache, no relevance filtering.
OracleEvaluation Oracle(const Database& db, const CostModel& cost_model,
                        const Workload& workload, const Catalog& base,
                        const std::vector<CandidateIndex>& candidates,
                        const std::vector<int>& config) {
  Catalog overlay = base;
  std::map<std::string, int> candidate_of;
  for (int c : std::set<int>(config.begin(), config.end())) {
    IndexDefinition def = candidates[static_cast<size_t>(c)].def;
    def.name = "cand" + std::to_string(c);
    candidate_of[def.name] = c;
    EXPECT_TRUE(
        overlay.AddVirtual(def, candidates[static_cast<size_t>(c)].stats)
            .ok());
  }
  Optimizer optimizer(&db, cost_model);
  ContainmentCache containment;
  OracleEvaluation out;
  for (const Query& query : workload.queries()) {
    Result<QueryPlan> plan = optimizer.Optimize(query, overlay, &containment);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) continue;
    out.per_query_cost.push_back(plan->total_cost);
    out.workload_cost += query.weight * plan->total_cost;
    for (const std::string& name :
         {plan->access.index_def.name, plan->access.secondary.index_def.name}) {
      auto it = candidate_of.find(name);
      if (plan->access.use_index && it != candidate_of.end()) {
        out.used_candidates.insert(it->second);
      }
    }
  }
  return out;
}

class CostCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 6, params, 42).ok());
    workload_ = MakeXMarkWorkload("xmark");

    candidates_.push_back(
        Cand("/site/regions/namerica/item/quantity", ValueType::kDouble));
    candidates_.push_back(
        Cand("/site/regions/*/item/quantity", ValueType::kDouble));
    candidates_.push_back(Cand("/site/regions/*/item/*", ValueType::kDouble));
    candidates_.push_back(Cand("/site/regions/*/item/*", ValueType::kVarchar));
    candidates_.push_back(Cand("//item/payment", ValueType::kVarchar));
    candidates_.push_back(
        Cand("/site/people/person/profile/@income", ValueType::kDouble));
  }

  CandidateIndex Cand(const std::string& pattern, ValueType type) {
    CandidateIndex c;
    c.def.collection = "xmark";
    c.def.pattern = P(pattern);
    c.def.type = type;
    c.stats = EstimateVirtualIndex(*db_.synopsis("xmark"), c.def,
                                   cost_model_.storage);
    return c;
  }

  /// A fresh evaluator with its own containment cache.
  struct Rig {
    std::unique_ptr<Optimizer> optimizer;
    std::unique_ptr<ContainmentCache> cache;
    std::unique_ptr<ConfigurationEvaluator> evaluator;
  };
  Rig MakeRig(int threads) {
    Rig rig;
    rig.optimizer = std::make_unique<Optimizer>(&db_, cost_model_);
    rig.cache = std::make_unique<ContainmentCache>();
    rig.evaluator = std::make_unique<ConfigurationEvaluator>(
        rig.optimizer.get(), &workload_, &base_catalog_, &candidates_,
        rig.cache.get(), /*account_update_cost=*/true, threads);
    return rig;
  }

  OracleEvaluation OracleFor(const std::vector<int>& config) const {
    return Oracle(db_, cost_model_, workload_, base_catalog_, candidates_,
                  config);
  }

  static void ExpectMatchesOracle(const ConfigurationEvaluator::Evaluation& a,
                                  const OracleEvaluation& oracle) {
    EXPECT_EQ(a.workload_cost, oracle.workload_cost);  // Bitwise.
    EXPECT_EQ(a.per_query_cost, oracle.per_query_cost);
    EXPECT_EQ(a.used_candidates, oracle.used_candidates);
  }

  static void ExpectIdentical(const ConfigurationEvaluator::Evaluation& a,
                              const ConfigurationEvaluator::Evaluation& b) {
    EXPECT_EQ(a.workload_cost, b.workload_cost);  // Bitwise: no tolerance.
    EXPECT_EQ(a.update_cost, b.update_cost);
    EXPECT_EQ(a.per_query_cost, b.per_query_cost);
    EXPECT_EQ(a.used_candidates, b.used_candidates);
  }

  Database db_;
  Workload workload_;
  Catalog base_catalog_;
  CostModel cost_model_;
  std::vector<CandidateIndex> candidates_;
};

// The configurations every equivalence test walks: empty, singletons,
// overlapping pairs, the full set, and permuted/duplicated inputs.
std::vector<std::vector<int>> TestConfigs() {
  return {{},        {0},     {1},   {2},     {3},
          {4},       {5},     {0, 1}, {1, 4},  {0, 1, 2, 3, 4, 5},
          {5, 3, 1}, {1, 3, 5}};
}

/// TestConfigs plus 30 seeded random configurations (unsorted, with
/// duplicates) over `num_candidates` candidates.
std::vector<std::vector<int>> OracleConfigs(size_t num_candidates) {
  std::vector<std::vector<int>> configs = TestConfigs();
  Random rng(2008);
  for (int i = 0; i < 30; ++i) {
    std::vector<int> config;
    int64_t size = rng.Uniform(0, static_cast<int64_t>(num_candidates) + 1);
    for (int64_t k = 0; k < size; ++k) {
      config.push_back(static_cast<int>(
          rng.Uniform(0, static_cast<int64_t>(num_candidates) - 1)));
    }
    configs.push_back(std::move(config));
  }
  return configs;
}

TEST_F(CostCacheTest, EvaluateMatchesOracle) {
  const std::vector<std::vector<int>> configs =
      OracleConfigs(candidates_.size());
  std::vector<ConfigurationEvaluator::Evaluation> serial;
  for (int threads : {1, 4}) {
    Rig rig = MakeRig(threads);
    for (size_t i = 0; i < configs.size(); ++i) {
      Result<ConfigurationEvaluator::Evaluation> e =
          rig.evaluator->Evaluate(configs[i]);
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      ExpectMatchesOracle(*e, OracleFor(configs[i]));
      if (threads == 1) {
        serial.push_back(*e);
      } else {
        ExpectIdentical(*e, serial[i]);
      }
    }
    // Relevant sets repeat across these overlapping configurations, so
    // the plan cache must have served some of them.
    CostCacheStats stats = rig.evaluator->cost_cache().stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.entries, 0u);
    EXPECT_EQ(stats.bypasses, 0u);
  }
}

TEST_F(CostCacheTest, EvaluateManyMatchesOracle) {
  const std::vector<std::vector<int>> configs =
      OracleConfigs(candidates_.size());
  Rig sequential = MakeRig(1);
  for (int threads : {1, 4}) {
    Rig rig = MakeRig(threads);
    std::vector<Result<ConfigurationEvaluator::Evaluation>> batch =
        rig.evaluator->EvaluateMany(configs);
    ASSERT_EQ(batch.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
      ExpectMatchesOracle(*batch[i], OracleFor(configs[i]));
      Result<ConfigurationEvaluator::Evaluation> one =
          sequential.evaluator->Evaluate(configs[i]);
      ASSERT_TRUE(one.ok());
      ExpectIdentical(*batch[i], *one);
    }
    // The batch evaluates each distinct configuration exactly once.
    EXPECT_EQ(rig.evaluator->num_evaluations(),
              sequential.evaluator->num_evaluations());
  }
}

TEST_F(CostCacheTest, CountersDeterministicAcrossThreadCounts) {
  // Hit/miss counting happens only in serial phases, so the exact counter
  // values — not just the costs — must match between a serial and a
  // 4-thread run of the same call sequence.
  auto run = [&](int threads) {
    Rig rig = MakeRig(threads);
    for (const std::vector<int>& config : TestConfigs()) {
      EXPECT_TRUE(rig.evaluator->Evaluate(config).ok());
    }
    EXPECT_TRUE(rig.evaluator->EvaluateMany(TestConfigs()).size() > 0);
    return rig.evaluator->cost_cache().stats();
  };
  CostCacheStats serial = run(1);
  CostCacheStats parallel = run(4);
  EXPECT_EQ(serial.hits, parallel.hits);
  EXPECT_EQ(serial.misses, parallel.misses);
  EXPECT_EQ(serial.entries, parallel.entries);
}

TEST_F(CostCacheTest, RepeatedQueriesShareCachedPlans) {
  // A workload with every query duplicated: fingerprint classes collapse
  // the duplicates, so the second copy of each query never misses.
  Workload doubled;
  for (const Query& q : workload_.queries()) doubled.AddQuery(q);
  for (const Query& q : workload_.queries()) doubled.AddQuery(q);
  Optimizer optimizer(&db_, cost_model_);
  ContainmentCache cache;
  ConfigurationEvaluator evaluator(&optimizer, &doubled, &base_catalog_,
                                   &candidates_, &cache,
                                   /*account_update_cost=*/true, 1);
  ASSERT_TRUE(evaluator.Evaluate({0, 1, 2}).ok());
  CostCacheStats stats = evaluator.cost_cache().stats();
  // Every lookup of the first evaluation misses (the cache starts empty
  // and inserts happen after the serial lookup phase), but duplicate
  // queries dedupe onto shared plan tasks: at most one optimizer call —
  // hence one cached plan — per distinct query.
  EXPECT_EQ(stats.misses, doubled.queries().size());
  EXPECT_LE(stats.entries, workload_.queries().size());
  // A follow-up configuration hits for every query whose relevant-index
  // set did not change (candidate 5 serves only the @income query).
  ASSERT_TRUE(evaluator.Evaluate({0, 1, 2, 5}).ok());
  EXPECT_GT(evaluator.cost_cache().stats().hits, 0u);
}

TEST_F(CostCacheTest, MemoKeyCanonicalizationEvaluate) {
  // Permutations and duplicates of one configuration are the same memo
  // entry: one evaluation, identical results (regression for the
  // CanonicalKey contract in benefit.h).
  Rig rig = MakeRig(1);
  Result<ConfigurationEvaluator::Evaluation> a =
      rig.evaluator->Evaluate({0, 2, 4});
  int after_first = rig.evaluator->num_evaluations();
  Result<ConfigurationEvaluator::Evaluation> b =
      rig.evaluator->Evaluate({4, 0, 2});
  Result<ConfigurationEvaluator::Evaluation> c =
      rig.evaluator->Evaluate({2, 2, 0, 4, 4});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  ExpectIdentical(*a, *b);
  ExpectIdentical(*a, *c);
  EXPECT_EQ(rig.evaluator->num_evaluations(), after_first);
}

TEST_F(CostCacheTest, MemoKeyCanonicalizationAcrossEvaluateAndEvaluateMany) {
  // EvaluateMany must canonicalize exactly like Evaluate: a batch of
  // permuted/duplicated variants resolves to one evaluation, and a later
  // Evaluate of any variant is a memo hit.
  Rig rig = MakeRig(4);
  std::vector<std::vector<int>> variants = {
      {0, 2, 4}, {4, 2, 0}, {2, 0, 4, 0}, {4, 4, 2, 0}};
  std::vector<Result<ConfigurationEvaluator::Evaluation>> batch =
      rig.evaluator->EvaluateMany(variants);
  ASSERT_EQ(batch.size(), variants.size());
  for (const auto& r : batch) ASSERT_TRUE(r.ok());
  for (size_t i = 1; i < batch.size(); ++i) {
    ExpectIdentical(*batch[0], *batch[i]);
  }
  EXPECT_EQ(rig.evaluator->num_evaluations(), 1);
  Result<ConfigurationEvaluator::Evaluation> again =
      rig.evaluator->Evaluate({2, 4, 0});
  ASSERT_TRUE(again.ok());
  ExpectIdentical(*batch[0], *again);
  EXPECT_EQ(rig.evaluator->num_evaluations(), 1);  // Memo hit, no new work.
}

TEST_F(CostCacheTest, CanServeAgreesWithMatch) {
  // The relevance predicate behind the keys is defined as "Match emits at
  // least one IndexMatch" — pin that equivalence so the two can never
  // drift apart.
  ContainmentCache cache;
  IndexMatcher matcher(&cache);
  for (const Query& q : workload_.queries()) {
    for (const CandidateIndex& cand : candidates_) {
      CatalogEntry entry;
      entry.def = cand.def;
      bool via_match = !matcher.Match(q.normalized, {&entry}).empty();
      EXPECT_EQ(matcher.CanServe(q.normalized, matcher.Intern(q.normalized),
                                 cand.def, cache.Intern(cand.def.pattern)),
                via_match)
          << cand.def.pattern.ToString();
    }
  }
}

TEST_F(CostCacheTest, RecommendationsMatchOracleAtAnyThreadCount) {
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyHeuristic,
        SearchAlgorithm::kTopDown}) {
    Recommendation recs[2];
    int thread_counts[2] = {1, 4};
    for (int t = 0; t < 2; ++t) {
      AdvisorOptions options;
      options.algorithm = algo;
      options.space_budget_bytes = 128.0 * 1024;
      options.threads = thread_counts[t];
      Advisor advisor(&db_, &base_catalog_, options);
      Result<Recommendation> rec = advisor.Recommend(workload_);
      ASSERT_TRUE(rec.ok()) << SearchAlgorithmName(algo);
      recs[t] = std::move(*rec);
    }
    EXPECT_EQ(recs[0].search.chosen, recs[1].search.chosen)
        << SearchAlgorithmName(algo);
    EXPECT_EQ(recs[0].search.workload_cost, recs[1].search.workload_cost);
    EXPECT_EQ(recs[0].search.update_cost, recs[1].search.update_cost);
    EXPECT_EQ(recs[0].search.baseline_cost, recs[1].search.baseline_cost);
    EXPECT_EQ(recs[0].search.evaluations, recs[1].search.evaluations);
    ASSERT_EQ(recs[0].indexes.size(), recs[1].indexes.size());
    for (size_t i = 0; i < recs[0].indexes.size(); ++i) {
      EXPECT_EQ(recs[0].indexes[i].DdlString(),
                recs[1].indexes[i].DdlString());
    }
    // The promised costs are the brute-force costs of the chosen and the
    // empty configuration.
    const Recommendation& rec = recs[0];
    EXPECT_EQ(rec.search.baseline_cost,
              Oracle(db_, cost_model_, workload_, base_catalog_,
                     rec.candidates, {})
                  .workload_cost)
        << SearchAlgorithmName(algo);
    EXPECT_EQ(rec.search.workload_cost,
              Oracle(db_, cost_model_, workload_, base_catalog_,
                     rec.candidates, rec.search.chosen)
                  .workload_cost)
        << SearchAlgorithmName(algo);
    EXPECT_GT(rec.search.counters.cost.hits, 0u) << SearchAlgorithmName(algo);
    // The deterministic counters line is the trace tail.
    ASSERT_FALSE(rec.search.trace.empty());
    EXPECT_EQ(rec.search.trace.back(), rec.search.counters.TraceLine());
  }
}

TEST_F(CostCacheTest, WhatIfSessionMatchesOracleAcrossEdits) {
  // Drive a session through an add/drop/evaluate script; every evaluation
  // must equal optimizing each query from scratch against the session's
  // catalog, and re-evaluations must hit (identity-carrying keys make
  // AddIndex/DropIndex self-invalidating — no explicit invalidation).
  WhatIfSession session(&db_, base_catalog_, cost_model_, 1);
  Optimizer optimizer(&db_, cost_model_);

  auto expect_oracle_eval = [&]() {
    Result<EvaluateIndexesResult> r = session.EvaluateWorkload(workload_);
    ASSERT_TRUE(r.ok());
    ContainmentCache containment;
    double total = 0;
    ASSERT_EQ(r->plans.size(), workload_.queries().size());
    for (size_t i = 0; i < r->plans.size(); ++i) {
      const Query& q = workload_.queries()[i];
      Result<QueryPlan> fresh =
          optimizer.Optimize(q, session.catalog(), &containment);
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ(PlanFingerprint(r->plans[i]), PlanFingerprint(*fresh));
      EXPECT_EQ(r->plans[i].query_id, q.id);
      total += q.weight * fresh->total_cost;
    }
    EXPECT_EQ(r->total_weighted_cost, total);
  };

  expect_oracle_eval();
  uint64_t hits_before = session.cache_counters().cost.hits;
  expect_oracle_eval();  // Unchanged catalog: every query hits.
  uint64_t hits_after = session.cache_counters().cost.hits;
  EXPECT_GE(hits_after - hits_before, workload_.queries().size());

  IndexDefinition def;
  def.collection = "xmark";
  def.pattern = P("/site/regions/*/item/quantity");
  def.type = ValueType::kDouble;
  ASSERT_TRUE(session.AddIndex(def).ok());
  expect_oracle_eval();  // Affected queries re-optimize, others hit.

  ASSERT_TRUE(session.DropIndex(session.session_indexes().front()).ok());
  hits_before = session.cache_counters().cost.hits;
  expect_oracle_eval();  // Keys revert to the pre-add ones: all hits again.
  hits_after = session.cache_counters().cost.hits;
  EXPECT_GE(hits_after - hits_before, workload_.queries().size());

  // ExplainQuery routes through the same cache: the second call hits.
  const Query& q0 = workload_.queries()[0];
  Result<QueryPlan> first = session.ExplainQuery(q0);
  hits_before = session.cache_counters().cost.hits;
  Result<QueryPlan> second = session.ExplainQuery(q0);
  ContainmentCache containment;
  Result<QueryPlan> fresh =
      optimizer.Optimize(q0, session.catalog(), &containment);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(session.cache_counters().cost.hits, hits_before + 1);
  EXPECT_EQ(PlanFingerprint(*first), PlanFingerprint(*fresh));
  EXPECT_EQ(PlanFingerprint(*second), PlanFingerprint(*fresh));
  EXPECT_EQ(second->query_id, q0.id);
}

TEST_F(CostCacheTest, EvaluateIndexesModeSharedCacheAcrossCalls) {
  Optimizer optimizer(&db_, cost_model_);
  ContainmentCache cache;
  WhatIfCostCache cost_cache;
  std::vector<IndexDefinition> config = {candidates_[1].def};

  Result<EvaluateIndexesResult> first =
      EvaluateIndexesMode(optimizer, workload_.queries(), config,
                          base_catalog_, &cache, 1, &cost_cache);
  ASSERT_TRUE(first.ok());
  CostCacheStats stats = cost_cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);

  Result<EvaluateIndexesResult> second =
      EvaluateIndexesMode(optimizer, workload_.queries(), config,
                          base_catalog_, &cache, 4, &cost_cache);
  ASSERT_TRUE(second.ok());
  // Same overlay: every query resolves from the cache, bit-identically.
  EXPECT_EQ(cost_cache.stats().hits - stats.hits,
            workload_.queries().size());
  EXPECT_EQ(first->total_weighted_cost, second->total_weighted_cost);
  EXPECT_EQ(first->index_use_counts, second->index_use_counts);
  for (size_t i = 0; i < first->plans.size(); ++i) {
    EXPECT_EQ(PlanFingerprint(first->plans[i]),
              PlanFingerprint(second->plans[i]));
  }

  // A null cache pointer gets a cache private to the call.
  Result<EvaluateIndexesResult> bare =
      EvaluateIndexesMode(optimizer, workload_.queries(), config,
                          base_catalog_, &cache);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->total_weighted_cost, first->total_weighted_cost);
}

/// Every observable field of two recommendations, bit for bit.
void ExpectSameRecommendation(const Recommendation& a,
                              const Recommendation& b) {
  EXPECT_EQ(a.baseline_cost, b.baseline_cost);
  EXPECT_EQ(a.recommended_cost, b.recommended_cost);
  EXPECT_EQ(a.update_cost, b.update_cost);
  EXPECT_EQ(a.search.chosen, b.search.chosen);
  ASSERT_EQ(a.indexes.size(), b.indexes.size());
  for (size_t i = 0; i < a.indexes.size(); ++i) {
    EXPECT_EQ(a.indexes[i].DdlString(), b.indexes[i].DdlString());
  }
  EXPECT_EQ(a.Report(), b.Report());
}

// Regression: the server-shared cache used keys local to one evaluator
// (query-class index + candidate indices), so a second advise over a
// different workload sharing the cache was served the first workload's
// plans.
TEST_F(CostCacheTest, SharedCacheNeverServesAnotherWorkloadsPlans) {
  WhatIfCostCache shared;
  AdvisorOptions options;
  options.threads = 1;
  options.shared_cost_cache = &shared;
  ASSERT_TRUE(Advisor(&db_, &base_catalog_, options).Recommend(workload_).ok());

  Workload rest;
  for (size_t i = 1; i < workload_.queries().size(); ++i) {
    rest.AddQuery(workload_.queries()[i]);
  }
  for (const UpdateOp& op : workload_.updates()) rest.AddUpdate(op);
  Result<Recommendation> warm =
      Advisor(&db_, &base_catalog_, options).Recommend(rest);
  options.shared_cost_cache = nullptr;
  Result<Recommendation> cold =
      Advisor(&db_, &base_catalog_, options).Recommend(rest);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(cold.ok());
  ExpectSameRecommendation(*warm, *cold);
  EXPECT_GT(warm->search.counters.cost.hits, cold->search.counters.cost.hits);
}

// Regression: no key included the state of the collection, so long-lived
// caches (the server's shared cache, DriftMonitor, WhatIfSession) kept
// serving plans priced on data that had since changed. Each mutation kind
// — incremental insert, incremental delete, and bulk load + Analyze —
// must leave a long-lived cache answering exactly like a fresh one.
class LongLivedCacheTest : public ::testing::Test {
 protected:
  enum class Mutation { kInsert, kDelete, kLoadAndAnalyze };

  void SetUp() override {
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 4, params_, 42).ok());
    workload_ = MakeXMarkWorkload("xmark");
    IndexDefinition def;
    def.collection = "xmark";
    def.pattern = P("/site/regions/*/item/quantity");
    def.type = ValueType::kDouble;
    config_.push_back(def);
  }

  std::string FreshDocXml() {
    Document doc = GenerateXMarkDocument(db_.mutable_names(), params_, &rng_);
    return SerializeDocument(doc, db_.names());
  }

  void Mutate(Mutation mutation) {
    switch (mutation) {
      case Mutation::kInsert:
        for (int i = 0; i < 8; ++i) {
          ASSERT_TRUE(
              dml::ApplyInsert(&db_, &catalog_, "xmark", FreshDocXml()).ok());
        }
        break;
      case Mutation::kDelete:
        // One of four documents: below the staleness bound, so the
        // synopsis is decremented in place rather than rebuilt.
        ASSERT_TRUE(dml::ApplyDelete(&db_, &catalog_, "xmark", 0).ok());
        break;
      case Mutation::kLoadAndAnalyze:
        for (int i = 0; i < 8; ++i) {
          ASSERT_TRUE(db_.LoadXml("xmark", FreshDocXml()).ok());
        }
        // Loaded but not yet analyzed: only the collection's size moved.
        ExpectEvaluateMatchesFreshCache();
        ASSERT_TRUE(db_.Analyze("xmark").ok());
        break;
    }
  }

  Result<Recommendation> Advise(WhatIfCostCache* cache) {
    AdvisorOptions options;
    options.threads = 1;
    options.shared_cost_cache = cache;
    return Advisor(&db_, &catalog_, options).Recommend(workload_);
  }

  Result<EvaluateIndexesResult> Evaluate(WhatIfCostCache* cache) {
    Optimizer optimizer(&db_, cost_model_);
    return EvaluateIndexesMode(optimizer, workload_.queries(), config_,
                               catalog_, &containment_, 1, cache);
  }

  void ExpectEvaluateMatchesFreshCache() {
    WhatIfCostCache fresh;
    Result<EvaluateIndexesResult> warm = Evaluate(&long_lived_);
    Result<EvaluateIndexesResult> cold = Evaluate(&fresh);
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(warm->total_weighted_cost, cold->total_weighted_cost);
    ASSERT_EQ(warm->plans.size(), cold->plans.size());
    for (size_t i = 0; i < warm->plans.size(); ++i) {
      EXPECT_EQ(PlanFingerprint(warm->plans[i]),
                PlanFingerprint(cold->plans[i]));
    }
  }

  void RunScenario(Mutation mutation) {
    ASSERT_TRUE(Advise(&long_lived_).ok());
    ASSERT_TRUE(Evaluate(&long_lived_).ok());
    Mutate(mutation);
    WhatIfCostCache fresh;
    Result<Recommendation> warm = Advise(&long_lived_);
    Result<Recommendation> cold = Advise(&fresh);
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(cold.ok());
    ExpectSameRecommendation(*warm, *cold);
    ExpectEvaluateMatchesFreshCache();
  }

  Database db_;
  Catalog catalog_;
  CostModel cost_model_;
  ContainmentCache containment_;
  Workload workload_;
  std::vector<IndexDefinition> config_;
  XMarkParams params_;
  Random rng_{99};
  WhatIfCostCache long_lived_;
};

TEST_F(LongLivedCacheTest, InsertedDocumentsReprice) {
  RunScenario(Mutation::kInsert);
}

TEST_F(LongLivedCacheTest, DeletedDocumentReprices) {
  RunScenario(Mutation::kDelete);
}

TEST_F(LongLivedCacheTest, LoadAndAnalyzeReprice) {
  RunScenario(Mutation::kLoadAndAnalyze);
}

}  // namespace
}  // namespace xia
