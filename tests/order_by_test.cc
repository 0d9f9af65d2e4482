// ORDER BY support: sort-aware costing in the optimizer and ordered
// execution in the executor.

#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "index/index_builder.h"
#include "optimizer/optimizer.h"
#include "common/string_util.h"
#include "query/parser.h"
#include "xml/builder.h"
#include "xmldata/xmark_gen.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace xia {
namespace {

class OrderByTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 10, params, 42).ok());
    Materialize("p_idx", "/site/regions/africa/item/price",
                ValueType::kDouble);
  }

  void Materialize(const std::string& name, const std::string& pattern,
                   ValueType type) {
    IndexDefinition def;
    def.name = name;
    def.collection = "xmark";
    Result<PathPattern> p = ParsePathPattern(pattern);
    ASSERT_TRUE(p.ok());
    def.pattern = *p;
    def.type = type;
    Result<PathIndex> built = BuildIndex(db_, def);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(catalog_
                    .AddPhysical(
                        std::make_shared<PathIndex>(std::move(*built)),
                        cost_model_.storage)
                    .ok());
  }

  QueryPlan Plan(const std::string& text, const Catalog& catalog) {
    Result<Query> q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    Optimizer opt(&db_, cost_model_);
    Result<QueryPlan> plan = opt.Optimize(*q, catalog, &cache_);
    EXPECT_TRUE(plan.ok());
    return std::move(*plan);
  }

  Database db_;
  Catalog catalog_;
  CostModel cost_model_;
  ContainmentCache cache_;
};

TEST_F(OrderByTest, ScanPaysSortCost) {
  Catalog empty;
  QueryPlan unordered = Plan(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 5 return $i/name",
      empty);
  QueryPlan ordered = Plan(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 5 order by $i/price return $i/name",
      empty);
  EXPECT_EQ(unordered.sort_cost, 0.0);
  EXPECT_GT(ordered.sort_cost, 0.0);
  EXPECT_NEAR(ordered.total_cost - unordered.total_cost,
              ordered.sort_cost, 1e-9);
  EXPECT_NE(ordered.Explain().find("sort"), std::string::npos);
}

TEST_F(OrderByTest, OrderKeyIndexAvoidsSort) {
  // The probe is on the order key itself: rows come back in key order.
  QueryPlan plan = Plan(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/price > 100 order by $i/price return $i/name",
      catalog_);
  ASSERT_TRUE(plan.access.use_index);
  EXPECT_EQ(plan.access.index_def.name, "p_idx");
  EXPECT_EQ(plan.sort_cost, 0.0);
}

TEST_F(OrderByTest, DifferentKeyIndexStillPaysSort) {
  Materialize("q_idx", "/site/regions/africa/item/quantity",
              ValueType::kDouble);
  QueryPlan plan = Plan(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 8 order by $i/price return $i/name",
      catalog_);
  ASSERT_TRUE(plan.access.use_index);
  if (plan.access.index_def.name == "q_idx") {
    EXPECT_GT(plan.sort_cost, 0.0);
  }
}

TEST_F(OrderByTest, ExecutionReturnsSortedResults) {
  Catalog empty;
  const std::string text =
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 2 order by $i/price return $i/name";
  QueryPlan scan_plan = Plan(text, empty);
  QueryPlan idx_plan = Plan(text, catalog_);

  Executor executor(&db_, &catalog_, cost_model_);
  Result<ExecResult> scan = executor.Execute(scan_plan);
  Result<ExecResult> indexed = executor.Execute(idx_plan);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(indexed.ok());
  ASSERT_GT(scan->nodes.size(), 2u);
  // Identical ordered sequences from both plans.
  EXPECT_EQ(scan->nodes, indexed->nodes);
  // And the sequence really is non-decreasing in the item's price.
  Result<PathPattern> price =
      ParsePathPattern("/site/regions/africa/item/price");
  ASSERT_TRUE(price.ok());
  double prev = -1;
  for (const NodeRef& ref : scan->nodes) {
    const Document& doc = db_.GetCollection("xmark")->doc(ref.doc);
    const XmlNode& item = doc.node(ref.node);
    double own_price = -1;
    for (NodeIndex n : EvaluatePattern(doc, db_.names(), *price)) {
      if (item.begin <= doc.node(n).begin && doc.node(n).end <= item.end) {
        own_price = *ParseDouble(doc.TextValue(n));
        break;
      }
    }
    ASSERT_GE(own_price, 0.0);
    EXPECT_GE(own_price, prev);
    prev = own_price;
  }
}

TEST_F(OrderByTest, UnorderedQueriesKeepDocumentOrder) {
  Catalog empty;
  QueryPlan plan = Plan(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 2 return $i/name",
      empty);
  Executor executor(&db_, &catalog_, cost_model_);
  Result<ExecResult> run = executor.Execute(plan);
  ASSERT_TRUE(run.ok());
  for (size_t i = 1; i < run->nodes.size(); ++i) {
    EXPECT_LT(run->nodes[i - 1], run->nodes[i]);
  }
}

// ----------------------- Differential: scan / index vs brute force.

/// The ORDER BY algorithm the executor is checked against, kept in its
/// simplest form: evaluate the key pattern afresh for every driving node,
/// take the first match inside the node's subtree, and parse numbers
/// inside the comparator.
void ReferenceSortByOrderKey(const Collection& coll, const NameTable& names,
                             const NormalizedQuery& query,
                             std::vector<NodeRef>* nodes) {
  if (query.order_by.empty() || nodes->size() < 2) return;
  const PathPattern& key_pattern = query.order_by.front();
  std::vector<std::pair<std::string, NodeRef>> keyed;
  for (const NodeRef& ref : *nodes) {
    const Document& doc = coll.doc(ref.doc);
    const XmlNode& driving = doc.node(ref.node);
    std::string key;
    for (NodeIndex n : EvaluatePattern(doc, names, key_pattern)) {
      const XmlNode& cand = doc.node(n);
      if (driving.begin <= cand.begin && cand.end <= driving.end) {
        key = doc.TextValue(n);
        break;
      }
    }
    keyed.emplace_back(std::move(key), ref);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     auto na = ParseDouble(a.first);
                     auto nb = ParseDouble(b.first);
                     if (na.has_value() && nb.has_value()) return *na < *nb;
                     return a.first < b.first;
                   });
  for (size_t i = 0; i < keyed.size(); ++i) (*nodes)[i] = keyed[i].second;
}

/// Brute-force ordered result: driving nodes of every live document that
/// satisfies all predicates, in document order, then the reference sort.
std::vector<NodeRef> ReferenceResult(const Database& db,
                                     const NormalizedQuery& query) {
  const Collection& coll = *db.GetCollection(query.collection);
  std::vector<NodeRef> out;
  for (const Document& doc : coll.docs()) {
    if (!coll.IsLive(doc.id())) continue;
    bool qualifies = true;
    for (const QueryPredicate& pred : query.predicates) {
      qualifies = qualifies && DocSatisfiesPredicate(doc, db.names(), pred);
    }
    if (!qualifies) continue;
    for (NodeIndex n : EvaluatePattern(doc, db.names(), query.for_path)) {
      out.push_back(NodeRef{doc.id(), n});
    }
  }
  ReferenceSortByOrderKey(coll, db.names(), query, &out);
  return out;
}

/// Seeded `shop` documents whose items carry a numeric, non-numeric or
/// missing `price`, and sometimes a nested item (whose price may come
/// first in document order) — every kind of key the sort must rank.
void AddShopItem(DocumentBuilder* b, Random* rng, int depth) {
  static const std::vector<std::string>* kWords =
      new std::vector<std::string>{"n/a", "abc", "", "12abc", "zeta"};
  b->StartElement("item");
  auto add_leaf = [&](const std::string& name, const std::string& value) {
    b->StartElement(name);
    b->AddText(value);
    b->EndElement();
  };
  bool nested_first = depth < 2 && rng->Bernoulli(0.25);
  if (nested_first) AddShopItem(b, rng, depth + 1);
  add_leaf("qty", std::to_string(rng->Uniform(0, 99)));
  switch (rng->Uniform(0, 3)) {
    case 0:
      add_leaf("price", std::to_string(rng->Uniform(0, 500)));
      break;
    case 1:
      add_leaf("price", std::to_string(rng->Uniform(-50, 50)) + ".25");
      break;
    case 2:
      add_leaf("price", rng->Choice(*kWords));
      break;
    default:
      break;  // Missing key.
  }
  if (!nested_first && depth < 2 && rng->Bernoulli(0.25)) {
    AddShopItem(b, rng, depth + 1);
  }
  b->EndElement();
}

class OrderByDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Collection*> coll = db_.CreateCollection("shop");
    ASSERT_TRUE(coll.ok());
    Random rng(4242);
    DocumentBuilder b(db_.mutable_names());
    for (int d = 0; d < 120; ++d) {
      b.StartElement("shop");
      for (int64_t i = rng.Uniform(1, 4); i > 0; --i) {
        AddShopItem(&b, &rng, 0);
      }
      b.EndElement();
      Result<Document> doc = b.Finish();
      ASSERT_TRUE(doc.ok());
      (*coll)->Add(std::move(*doc));
    }
    ASSERT_TRUE(db_.Analyze("shop").ok());
    IndexDefinition def;
    def.name = "qty_idx";
    def.collection = "shop";
    Result<PathPattern> p = ParsePathPattern("/shop//item/qty");
    ASSERT_TRUE(p.ok());
    def.pattern = *p;
    def.type = ValueType::kDouble;
    Result<PathIndex> built = BuildIndex(db_, def);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(catalog_
                    .AddPhysical(
                        std::make_shared<PathIndex>(std::move(*built)),
                        cost_model_.storage)
                    .ok());
  }

  Database db_;
  Catalog catalog_;
  CostModel cost_model_;
  ContainmentCache cache_;
};

TEST_F(OrderByDifferentialTest, PlansMatchBruteForceReference) {
  Optimizer opt(&db_, cost_model_);
  Executor executor(&db_, &catalog_, cost_model_);
  Catalog empty;
  size_t index_plans = 0;
  for (const char* text :
       {"for $i in doc(\"shop\")/shop//item where $i/qty > 95 "
        "order by $i/price return $i",
        "for $i in doc(\"shop\")/shop//item where $i/qty > 95 "
        "order by $i//price return $i",
        "for $i in doc(\"shop\")/shop/item where $i/qty > 95 "
        "order by $i/item/price return $i",
        "for $i in doc(\"shop\")/shop//item where $i/qty > 95 "
        "order by $i/qty return $i",
        "for $i in doc(\"shop\")/shop//item order by $i/price return $i"}) {
    SCOPED_TRACE(text);
    Result<Query> q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    std::vector<NodeRef> expected = ReferenceResult(db_, q->normalized);
    ASSERT_GT(expected.size(), 2u);
    for (const Catalog* catalog : {&empty, &catalog_}) {
      Result<QueryPlan> plan = opt.Optimize(*q, *catalog, &cache_);
      ASSERT_TRUE(plan.ok());
      if (plan->access.use_index) ++index_plans;
      Result<ExecResult> run = executor.Execute(*plan);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->nodes, expected);
    }
  }
  EXPECT_GE(index_plans, 3u);  // The index side was really exercised.
}

}  // namespace
}  // namespace xia
