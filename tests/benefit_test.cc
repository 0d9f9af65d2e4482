#include <gtest/gtest.h>

#include <memory>

#include "advisor/benefit.h"
#include "advisor/enumeration.h"
#include "advisor/generalize.h"
#include "common/random.h"
#include "index/index_builder.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace {

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

class BenefitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 6, params, 42).ok());
    workload_ = MakeXMarkWorkload("xmark");
    optimizer_ = std::make_unique<Optimizer>(&db_, cost_model_);

    // Candidate set: exact quantity index, generalized variants, and an
    // unrelated index no query can use.
    candidates_.push_back(
        Cand("/site/regions/namerica/item/quantity", ValueType::kDouble));
    candidates_.push_back(
        Cand("/site/regions/*/item/quantity", ValueType::kDouble));
    candidates_.push_back(
        Cand("/site/regions/*/item/*", ValueType::kDouble));
    candidates_.push_back(
        Cand("/site/categories/category/description/text",
             ValueType::kVarchar));
    evaluator_ = std::make_unique<ConfigurationEvaluator>(
        optimizer_.get(), &workload_, &base_catalog_, &candidates_, &cache_,
        /*account_update_cost=*/true);
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

  Database db_;
  Workload workload_;
  Catalog base_catalog_;
  CostModel cost_model_;
  ContainmentCache cache_;
  std::vector<CandidateIndex> candidates_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<ConfigurationEvaluator> evaluator_;
};

TEST_F(BenefitTest, EmptyConfigIsBaseline) {
  Result<double> baseline = evaluator_->BaselineCost();
  ASSERT_TRUE(baseline.ok());
  EXPECT_GT(*baseline, 0.0);
  Result<ConfigurationEvaluator::Evaluation> eval = evaluator_->Evaluate({});
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->workload_cost, *baseline);
  EXPECT_TRUE(eval->used_candidates.empty());
  EXPECT_EQ(eval->per_query_cost.size(), workload_.size());
}

TEST_F(BenefitTest, UsefulIndexReducesCost) {
  Result<double> baseline = evaluator_->BaselineCost();
  ASSERT_TRUE(baseline.ok());
  Result<ConfigurationEvaluator::Evaluation> eval =
      evaluator_->Evaluate({0});
  ASSERT_TRUE(eval.ok());
  EXPECT_LT(eval->workload_cost, *baseline);
  EXPECT_TRUE(eval->used_candidates.count(0));
}

TEST_F(BenefitTest, UselessIndexIsNotUsed) {
  Result<ConfigurationEvaluator::Evaluation> eval =
      evaluator_->Evaluate({3});
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(eval->used_candidates.count(3));
}

TEST_F(BenefitTest, IndexInteractionShadowsGeneralIndex) {
  // Alone, the general index is used.
  Result<ConfigurationEvaluator::Evaluation> alone =
      evaluator_->Evaluate({1});
  ASSERT_TRUE(alone.ok());
  EXPECT_TRUE(alone->used_candidates.count(1));
  // Together with the exact index, queries on namerica prefer the exact
  // one; the general one survives only for other regions' queries.
  Result<ConfigurationEvaluator::Evaluation> both =
      evaluator_->Evaluate({0, 1});
  ASSERT_TRUE(both.ok());
  EXPECT_TRUE(both->used_candidates.count(0));
  // Interaction: combined cost <= each alone.
  Result<ConfigurationEvaluator::Evaluation> exact_alone =
      evaluator_->Evaluate({0});
  ASSERT_TRUE(exact_alone.ok());
  EXPECT_LE(both->workload_cost, alone->workload_cost + 1e-9);
  EXPECT_LE(both->workload_cost, exact_alone->workload_cost + 1e-9);
}

TEST_F(BenefitTest, MonotoneImprovementWithMoreIndexes) {
  Result<ConfigurationEvaluator::Evaluation> small =
      evaluator_->Evaluate({0});
  Result<ConfigurationEvaluator::Evaluation> large =
      evaluator_->Evaluate({0, 1, 2});
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LE(large->workload_cost, small->workload_cost + 1e-9);
}

TEST_F(BenefitTest, MemoizationAvoidsRecomputation) {
  ASSERT_TRUE(evaluator_->Evaluate({0, 1}).ok());
  int evals = evaluator_->num_evaluations();
  // Same config, any order / duplicates: served from cache.
  ASSERT_TRUE(evaluator_->Evaluate({1, 0}).ok());
  ASSERT_TRUE(evaluator_->Evaluate({0, 1, 1}).ok());
  EXPECT_EQ(evaluator_->num_evaluations(), evals);
}

TEST_F(BenefitTest, UpdateCostDebitsConfigurations) {
  AddXMarkUpdates(&workload_, "xmark", 1.0);
  ConfigurationEvaluator with_updates(optimizer_.get(), &workload_,
                                      &base_catalog_, &candidates_, &cache_,
                                      /*account_update_cost=*/true);
  ConfigurationEvaluator without_updates(optimizer_.get(), &workload_,
                                         &base_catalog_, &candidates_,
                                         &cache_,
                                         /*account_update_cost=*/false);
  // The /site/regions/*/item/* index overlaps the item-insert update.
  Result<ConfigurationEvaluator::Evaluation> with =
      with_updates.Evaluate({2});
  Result<ConfigurationEvaluator::Evaluation> without =
      without_updates.Evaluate({2});
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_GT(with->update_cost, 0.0);
  EXPECT_EQ(without->update_cost, 0.0);
  EXPECT_EQ(with->workload_cost, without->workload_cost);
}

TEST_F(BenefitTest, UpdateCostZeroForNonOverlappingIndex) {
  AddXMarkUpdates(&workload_, "xmark", 1.0);
  ConfigurationEvaluator evaluator(optimizer_.get(), &workload_,
                                   &base_catalog_, &candidates_, &cache_,
                                   /*account_update_cost=*/true);
  // The categories/description index overlaps no update target.
  Result<ConfigurationEvaluator::Evaluation> eval = evaluator.Evaluate({3});
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->update_cost, 0.0);
}

// ---------------------------------------------- Plan-attribution parsing.

TEST(TryParseCandidateIdTest, AcceptsOnlyCandNDigits) {
  EXPECT_EQ(TryParseCandidateId("cand0"), std::optional<int>(0));
  EXPECT_EQ(TryParseCandidateId("cand12"), std::optional<int>(12));
  EXPECT_EQ(TryParseCandidateId("cand007"), std::optional<int>(7));
  EXPECT_FALSE(TryParseCandidateId("cand").has_value());
  EXPECT_FALSE(TryParseCandidateId("cand12x").has_value());
  EXPECT_FALSE(TryParseCandidateId("cand7extra").has_value());
  EXPECT_FALSE(TryParseCandidateId("candelabra").has_value());
  EXPECT_FALSE(TryParseCandidateId("idx_price").has_value());
  EXPECT_FALSE(TryParseCandidateId("").has_value());
  EXPECT_FALSE(TryParseCandidateId("Cand3").has_value());
  EXPECT_FALSE(TryParseCandidateId("cand-3").has_value());
  // Overflow past int: rejected, not wrapped.
  EXPECT_FALSE(TryParseCandidateId("cand99999999999999999").has_value());
}

// Regression: a physical base-catalog index whose name starts with "cand"
// but is not "cand<digits>" used to crash attribution — the old
// std::stoi(name.substr(4)) threw std::invalid_argument on "candelabra".
// Mixing such a physical index with virtual candidates must evaluate
// cleanly and attribute nothing to it.
TEST_F(BenefitTest, PhysicalIndexNamesSurviveAttribution) {
  // Capture the index-free baseline BEFORE mutating base_catalog_ — the
  // fixture evaluator reads the same catalog through its pointer.
  Result<double> no_physical_baseline = evaluator_->BaselineCost();
  ASSERT_TRUE(no_physical_baseline.ok());
  IndexDefinition def;
  def.name = "candelabra";
  def.collection = "xmark";
  def.pattern = P("/site/regions/namerica/item/quantity");
  def.type = ValueType::kDouble;
  Result<PathIndex> built = BuildIndex(db_, def);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(base_catalog_
                  .AddPhysical(std::make_shared<PathIndex>(std::move(*built)),
                               cost_model_.storage)
                  .ok());
  ConfigurationEvaluator evaluator(optimizer_.get(), &workload_,
                                   &base_catalog_, &candidates_, &cache_,
                                   /*account_update_cost=*/true);
  // The physical index is the best access path for the namerica quantity
  // queries, so plans name it — attribution must skip it, not throw.
  Result<ConfigurationEvaluator::Evaluation> empty = evaluator.Evaluate({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->used_candidates.empty());
  Result<double> baseline = evaluator.BaselineCost();
  ASSERT_TRUE(baseline.ok());
  // Sanity that the physical index is actually in play: the baseline with
  // it present beats the index-free baseline captured above.
  EXPECT_LT(*baseline, *no_physical_baseline);
  // Virtual candidates still attribute normally alongside it.
  Result<ConfigurationEvaluator::Evaluation> with_cand =
      evaluator.Evaluate({1});
  ASSERT_TRUE(with_cand.ok());
  for (int used : with_cand->used_candidates) EXPECT_EQ(used, 1);
}

// Regression: a physical index named like a candidate overlay ("cand3")
// must not be credited to candidate 3 when 3 is not in the evaluated
// configuration — the old parse accepted any "cand<prefix-digits>" name
// ("cand7extra" silently credited 7). Attribution now also requires the
// parsed id to be a member of the configuration.
TEST_F(BenefitTest, PhysicalIndexNamedLikeCandidateNotCredited) {
  IndexDefinition def;
  def.name = "cand3";  // Not in any evaluated config below.
  def.collection = "xmark";
  def.pattern = P("/site/regions/namerica/item/quantity");
  def.type = ValueType::kDouble;
  Result<PathIndex> built = BuildIndex(db_, def);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(base_catalog_
                  .AddPhysical(std::make_shared<PathIndex>(std::move(*built)),
                               cost_model_.storage)
                  .ok());
  ConfigurationEvaluator evaluator(optimizer_.get(), &workload_,
                                   &base_catalog_, &candidates_, &cache_,
                                   /*account_update_cost=*/true);
  // Candidate 1 is the wildcard-region index; the exact physical "cand3"
  // wins the namerica queries, but 3 ∉ {1} so it must not be attributed.
  Result<ConfigurationEvaluator::Evaluation> eval = evaluator.Evaluate({1});
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->used_candidates.count(3), 0u);
  for (int used : eval->used_candidates) EXPECT_EQ(used, 1);
  Result<ConfigurationEvaluator::Evaluation> empty = evaluator.Evaluate({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->used_candidates.empty());
}

TEST_F(BenefitTest, ExprTableCoversForPathsAndPredicates) {
  size_t expected = 0;
  for (const Query& q : workload_.queries()) {
    expected += 1 + q.normalized.predicates.size();
  }
  EXPECT_EQ(evaluator_->exprs().size(), expected);
}

TEST_F(BenefitTest, CoverageBitmapMatchesContainment) {
  Bitmap cover = evaluator_->CoverageOf({1});  // /site/regions/*/item/qty.
  size_t covered = 0;
  for (size_t e = 0; e < evaluator_->exprs().size(); ++e) {
    if (cover.Test(e)) {
      ++covered;
      EXPECT_TRUE(evaluator_->Covers(1, e));
      EXPECT_TRUE(
          cache_.Contains(candidates_[1].def.pattern,
                          evaluator_->exprs()[e].pattern));
    }
  }
  // It covers the two region quantity predicates (namerica, africa).
  EXPECT_GE(covered, 2u);
  // The empty config covers nothing.
  EXPECT_TRUE(evaluator_->CoverageOf({}).None());
}

TEST_F(BenefitTest, SargableExprNotCoveredByWrongType) {
  // A VARCHAR index on quantity cannot cover the numeric-range expr.
  candidates_.push_back(
      Cand("/site/regions/namerica/item/quantity", ValueType::kVarchar));
  ConfigurationEvaluator evaluator(optimizer_.get(), &workload_,
                                   &base_catalog_, &candidates_, &cache_,
                                   true);
  int vc = static_cast<int>(candidates_.size()) - 1;
  for (size_t e = 0; e < evaluator.exprs().size(); ++e) {
    const auto& expr = evaluator.exprs()[e];
    if (expr.sargable_op && expr.implied_type == ValueType::kDouble) {
      EXPECT_FALSE(evaluator.Covers(vc, e));
    }
  }
}

TEST_F(BenefitTest, CoverageEqualsOrOfContainmentOverRandomConfigs) {
  // The enumerated and generalized XMark candidates, plus one on another
  // collection, which must cover nothing here.
  Result<EnumerationResult> enumeration =
      EnumerateBasicCandidates(db_, workload_, &cache_);
  ASSERT_TRUE(enumeration.ok()) << enumeration.status().ToString();
  std::vector<CandidateIndex> candidates =
      GeneralizeCandidates(enumeration->candidates, db_, GeneralizeOptions());
  candidates.push_back(candidates.front());
  candidates.back().def.collection = "elsewhere";
  ConfigurationEvaluator evaluator(optimizer_.get(), &workload_,
                                   &base_catalog_, &candidates, &cache_,
                                   /*account_update_cost=*/true);
  const auto& exprs = evaluator.exprs();

  // Reference: the per-pair definition (collection gate, type gate,
  // uncached containment), ORed over the configuration.
  auto covers = [&](int c, size_t e) {
    const CandidateIndex& cand = candidates[static_cast<size_t>(c)];
    const ConfigurationEvaluator::WorkloadExpr& expr = exprs[e];
    if (cand.def.collection !=
        workload_.queries()[static_cast<size_t>(expr.query)]
            .normalized.collection) {
      return false;
    }
    bool type_ok = expr.sargable_op ? cand.def.type == expr.implied_type
                                    : cand.def.type == ValueType::kVarchar;
    return type_ok && PatternContains(cand.def.pattern, expr.pattern);
  };
  Random rng(5);
  size_t covered_bits = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<int> config;
    const int64_t size = rng.Uniform(0, 6);
    for (int64_t k = 0; k < size; ++k) {
      config.push_back(static_cast<int>(
          rng.Uniform(0, static_cast<int64_t>(candidates.size()) - 1)));
    }
    Bitmap coverage = evaluator.CoverageOf(config);
    ASSERT_EQ(coverage.size(), exprs.size());
    for (size_t e = 0; e < exprs.size(); ++e) {
      bool expected = false;
      for (int c : config) {
        EXPECT_EQ(evaluator.Covers(c, e), covers(c, e))
            << candidates[static_cast<size_t>(c)].def.Key() << " / "
            << exprs[e].pattern.ToString();
        expected = expected || covers(c, e);
      }
      EXPECT_EQ(coverage.Test(e), expected) << "round " << round;
    }
    covered_bits += coverage.Count();
  }
  EXPECT_GT(covered_bits, 0u);
  EXPECT_TRUE(
      evaluator.CoverageOf({static_cast<int>(candidates.size()) - 1}).None());
}

}  // namespace
}  // namespace xia
