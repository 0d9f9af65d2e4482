// Property-style tests: invariants checked over randomized inputs and
// parameter sweeps, exercising the whole stack rather than one module.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "common/logging.h"
#include "common/random.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "index/index_builder.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "random_document.h"
#include "workload/variation.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"
#include "xpath/containment.h"
#include "xpath/evaluator.h"
#include "xpath/nfa.h"
#include "xpath/parser.h"

namespace xia {
namespace {

/// Generates a random pattern over a small name universe.
PathPattern RandomPattern(Random* rng) {
  static const std::vector<std::string>* kNames =
      new std::vector<std::string>{"a", "b", "c", "d"};
  size_t len = static_cast<size_t>(rng->Uniform(1, 4));
  std::vector<Step> steps;
  for (size_t i = 0; i < len; ++i) {
    Step s;
    s.axis = rng->Bernoulli(0.3) ? Axis::kDescendant : Axis::kChild;
    s.wildcard = rng->Bernoulli(0.25);
    if (!s.wildcard) s.name = rng->Choice(*kNames);
    if (i + 1 == len && rng->Bernoulli(0.15)) s.is_attribute = true;
    steps.push_back(std::move(s));
  }
  return PathPattern(std::move(steps));
}

/// Generates a random label word over the same universe.
std::vector<PatternSymbol> RandomWord(Random* rng) {
  static const std::vector<std::string>* kNames =
      new std::vector<std::string>{"a", "b", "c", "d", "z"};
  size_t len = static_cast<size_t>(rng->Uniform(1, 5));
  std::vector<PatternSymbol> word;
  for (size_t i = 0; i < len; ++i) {
    PatternSymbol sym;
    sym.name = rng->Choice(*kNames);
    sym.is_attr = (i + 1 == len) && rng->Bernoulli(0.2);
    word.push_back(std::move(sym));
  }
  return word;
}

// Containment decisions must agree with word-level membership: if
// L(s) ⊆ L(g) then every word s accepts, g accepts.
TEST(ContainmentSemanticsProperty, ContainmentAgreesWithMembership) {
  Random rng(2024);
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    PathPattern g = RandomPattern(&rng);
    PathPattern s = RandomPattern(&rng);
    bool contains = PatternContains(g, s);
    PatternNfa g_nfa(g);
    PatternNfa s_nfa(s);
    for (int w = 0; w < 20; ++w) {
      std::vector<PatternSymbol> word = RandomWord(&rng);
      if (s_nfa.MatchesWord(word)) {
        ++checked;
        if (contains) {
          EXPECT_TRUE(g_nfa.MatchesWord(word))
              << g.ToString() << " claims to contain " << s.ToString();
        }
      }
    }
  }
  EXPECT_GT(checked, 50);  // The sweep actually exercised members.
}

// A word matched by both patterns witnesses intersection.
TEST(IntersectionSemanticsProperty, WitnessImpliesIntersects) {
  Random rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    PathPattern a = RandomPattern(&rng);
    PathPattern b = RandomPattern(&rng);
    PatternNfa a_nfa(a);
    PatternNfa b_nfa(b);
    for (int w = 0; w < 10; ++w) {
      std::vector<PatternSymbol> word = RandomWord(&rng);
      if (a_nfa.MatchesWord(word) && b_nfa.MatchesWord(word)) {
        EXPECT_TRUE(PatternsIntersect(a, b))
            << a.ToString() << " / " << b.ToString();
        break;
      }
    }
  }
}

/// Brute-force evaluation: every node whose root-to-node label path the
/// pattern's NFA accepts, in document order.
std::vector<NodeIndex> NfaReference(const Document& doc,
                                    const NameTable& names,
                                    const PathPattern& pattern) {
  PatternNfa nfa(pattern);
  std::vector<NodeIndex> out;
  for (size_t n = 0; n < doc.num_nodes(); ++n) {
    if (VerifyNodePathNfa(doc, names, static_cast<NodeIndex>(n), nfa)) {
      out.push_back(static_cast<NodeIndex>(n));
    }
  }
  return out;
}

/// Random pattern over RandomDocument's vocabulary, plus `zz`, a name no
/// document carries. The last step may test a `k0`-`k2` attribute; an
/// attribute step elsewhere (which can match nothing) is rare.
PathPattern RandomDocPattern(Random* rng) {
  static const std::vector<std::string>* kElements =
      new std::vector<std::string>{"root", "a", "b", "c", "d", "zz"};
  static const std::vector<std::string>* kAttributes =
      new std::vector<std::string>{"k0", "k1", "k2"};
  size_t len = static_cast<size_t>(rng->Uniform(1, 4));
  std::vector<Step> steps;
  for (size_t i = 0; i < len; ++i) {
    Step s;
    s.axis = rng->Bernoulli(0.45) ? Axis::kDescendant : Axis::kChild;
    bool last = i + 1 == len;
    s.is_attribute = rng->Bernoulli(last ? 0.25 : 0.03);
    s.wildcard = rng->Bernoulli(0.25);
    if (!s.wildcard) {
      s.name = rng->Choice(s.is_attribute ? *kAttributes : *kElements);
    }
    steps.push_back(std::move(s));
  }
  return PathPattern(std::move(steps));
}

// The evaluator is sound and complete against the NFA definition of
// pattern membership: EvaluatePattern returns exactly the nodes whose
// root word the pattern accepts, in document order.
TEST(EvaluatorSemanticsProperty, ResultsMatchPattern) {
  Database db;
  XMarkParams params;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 2, params, 42).ok());
  const Collection& coll = *db.GetCollection("xmark");
  const std::vector<std::string> patterns = {
      "//item",          "/site/regions/*/item/quantity",
      "//item/@id",      "/site/*/person",
      "//mailbox//from", "/site/regions/africa/item/*",
      "//@category",     "/site//date"};
  for (const std::string& text : patterns) {
    Result<PathPattern> pattern = ParsePathPattern(text);
    ASSERT_TRUE(pattern.ok());
    for (const Document& doc : coll.docs()) {
      EXPECT_EQ(EvaluatePattern(doc, db.names(), *pattern),
                NfaReference(doc, db.names(), *pattern))
          << text;
    }
  }
}

// The same equivalence over seeded random documents (nested same-name
// elements, so `//` contexts overlap) and random patterns over `/`, `//`,
// `*` and `@`.
TEST(EvaluatorSemanticsProperty, RandomDocumentsMatchNfaReference) {
  NameTable names;
  Random rng(1701);
  size_t nonempty = 0;
  for (int d = 0; d < 40; ++d) {
    Document doc = RandomDocument(&names, &rng);
    for (int p = 0; p < 40; ++p) {
      PathPattern pattern = RandomDocPattern(&rng);
      std::vector<NodeIndex> got = EvaluatePattern(doc, names, pattern);
      ASSERT_EQ(got, NfaReference(doc, names, pattern))
          << pattern.ToString() << " on document " << d;
      if (!got.empty()) ++nonempty;
    }
  }
  EXPECT_GT(nonempty, 400u);  // The sweep exercised real matches.
}

// Synopsis counts are exact for any pattern (it is a lossless path
// summary for linear patterns): estimate == actual evaluation count.
TEST(SynopsisExactnessProperty, EstimatesEqualActualCounts) {
  Database db;
  XMarkParams params;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 3, params, 42).ok());
  const Collection& coll = *db.GetCollection("xmark");
  const PathSynopsis* synopsis = db.synopsis("xmark");
  const std::vector<std::string> patterns = {
      "//item",       "//item/quantity",   "/site/regions/*/item",
      "//@id",        "//person//age",     "/site/open_auctions/*",
      "//bidder",     "/site/*/*/item/price"};
  for (const std::string& text : patterns) {
    Result<PathPattern> pattern = ParsePathPattern(text);
    ASSERT_TRUE(pattern.ok());
    size_t actual = 0;
    for (const Document& doc : coll.docs()) {
      actual += EvaluatePattern(doc, db.names(), *pattern).size();
    }
    EXPECT_EQ(synopsis->EstimateCount(*pattern),
              static_cast<double>(actual))
        << text;
  }
}

// Physical index entry counts equal virtual estimates for any pattern.
TEST(SizingProperty, VirtualEntriesMatchPhysicalForAllPatterns) {
  Database db;
  XMarkParams params;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 2, params, 42).ok());
  StorageConstants constants;
  const std::vector<std::string> patterns = {
      "//item/quantity", "/site/regions/*/item/*", "//person/profile/@income",
      "//date", "/site/closed_auctions/closed_auction/price"};
  for (const std::string& text : patterns) {
    for (ValueType type : {ValueType::kVarchar, ValueType::kDouble}) {
      IndexDefinition def;
      def.name = "i";
      def.collection = "xmark";
      Result<PathPattern> pattern = ParsePathPattern(text);
      ASSERT_TRUE(pattern.ok());
      def.pattern = *pattern;
      def.type = type;
      VirtualIndexStats est =
          EstimateVirtualIndex(*db.synopsis("xmark"), def, constants);
      Result<PathIndex> built = BuildIndex(db, def);
      ASSERT_TRUE(built.ok());
      EXPECT_EQ(est.entries, static_cast<double>(built->num_entries()))
          << text << " AS " << ValueTypeName(type);
    }
  }
}

// ------------------------- Budget sweep: advisor invariants at any budget.

class BudgetSweepTest : public ::testing::TestWithParam<double> {
 protected:
  static Database* db() {
    static Database* db = [] {
      auto* d = new Database();
      XMarkParams params;
      XIA_CHECK(PopulateXMark(d, "xmark", 5, params, 42).ok());
      return d;
    }();
    return db;
  }
};

TEST_P(BudgetSweepTest, AllAlgorithmsRespectBudgetAndNeverHurt) {
  double budget = GetParam();
  Workload workload = MakeXMarkWorkload("xmark");
  Catalog catalog;
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyHeuristic,
        SearchAlgorithm::kTopDown}) {
    AdvisorOptions options;
    options.space_budget_bytes = budget;
    options.algorithm = algo;
    Advisor advisor(db(), &catalog, options);
    Result<Recommendation> rec = advisor.Recommend(workload);
    ASSERT_TRUE(rec.ok()) << SearchAlgorithmName(algo);
    EXPECT_LE(rec->total_size_bytes, budget + 1e-6)
        << SearchAlgorithmName(algo) << " @" << budget;
    EXPECT_GE(rec->benefit, 0.0) << SearchAlgorithmName(algo);
    EXPECT_LE(rec->recommended_cost, rec->baseline_cost + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweepTest,
                         ::testing::Values(1024.0, 16.0 * 1024, 64.0 * 1024,
                                           256.0 * 1024, 4.0 * 1024 * 1024));

// ------------------- Random query sweep: scan/index execution parity.

class RandomQueryParityTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomQueryParityTest, ScanAndIndexPlansAgree) {
  static Database* db = [] {
    auto* d = new Database();
    XMarkParams params;
    XIA_CHECK(PopulateXMark(d, "xmark", 4, params, 7).ok());
    return d;
  }();
  Random rng(static_cast<uint64_t>(GetParam()));
  Workload unseen = MakeXMarkUnseenWorkload("xmark", &rng, 6);

  CostModel cost_model;
  ContainmentCache cache;
  Optimizer optimizer(db, cost_model);
  Catalog empty;

  // Materialize an aggressive generalized configuration so index plans
  // exist for most queries.
  Catalog catalog;
  for (const auto& [pattern_text, type] :
       std::vector<std::pair<std::string, ValueType>>{
           {"/site/regions/*/item/*", ValueType::kDouble},
           {"/site/regions/*/item/*", ValueType::kVarchar},
           {"/site/people/person/profile/@income", ValueType::kDouble},
           {"//price", ValueType::kDouble},
           {"//item/location", ValueType::kVarchar}}) {
    IndexDefinition def;
    def.collection = "xmark";
    Result<PathPattern> pattern = ParsePathPattern(pattern_text);
    ASSERT_TRUE(pattern.ok());
    def.pattern = *pattern;
    def.type = type;
    def.name = catalog.UniqueName(def.pattern);
    Result<PathIndex> built = BuildIndex(*db, def);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(catalog
                    .AddPhysical(
                        std::make_shared<PathIndex>(std::move(*built)),
                        cost_model.storage)
                    .ok());
  }

  Executor executor(db, &catalog, cost_model);
  // A pool far smaller than the data, so the page accounting
  // (TouchDocument / TouchNodePage) runs under eviction pressure.
  BufferPool pool(64);
  Executor pooled(db, &catalog, cost_model, &pool);
  for (const Query& query : unseen.queries()) {
    Result<QueryPlan> scan_plan = optimizer.Optimize(query, empty, &cache);
    Result<QueryPlan> idx_plan = optimizer.Optimize(query, catalog, &cache);
    ASSERT_TRUE(scan_plan.ok());
    ASSERT_TRUE(idx_plan.ok());
    Result<ExecResult> scan_run = executor.Execute(*scan_plan);
    Result<ExecResult> idx_run = executor.Execute(*idx_plan);
    ASSERT_TRUE(scan_run.ok());
    ASSERT_TRUE(idx_run.ok());
    EXPECT_EQ(scan_run->nodes, idx_run->nodes) << query.text;
    for (const QueryPlan* plan : {&*scan_plan, &*idx_plan}) {
      Result<ExecResult> pooled_run = pooled.Execute(*plan);
      ASSERT_TRUE(pooled_run.ok());
      EXPECT_EQ(pooled_run->nodes, scan_run->nodes) << query.text;
      EXPECT_EQ(pooled_run->returned, scan_run->returned) << query.text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryParityTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace xia
