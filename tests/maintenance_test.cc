#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "dml/dml.h"
#include "exec/executor.h"
#include "index/index_builder.h"
#include "index/maintenance.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
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

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

class MaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    params.items_per_region = 3;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 4, params, 42).ok());
    Materialize("quantity", "/site/regions/*/item/quantity",
                ValueType::kDouble);
    Materialize("items", "/site/regions/*/item", ValueType::kVarchar);
    Materialize("income", "/site/people/person/profile/@income",
                ValueType::kDouble);
  }

  void Materialize(const std::string& name, const std::string& pattern,
                   ValueType type) {
    IndexDefinition def;
    def.name = name;
    def.collection = "xmark";
    def.pattern = P(pattern);
    def.type = type;
    Result<PathIndex> built = BuildIndex(db_, def);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(catalog_
                    .AddPhysical(
                        std::make_shared<PathIndex>(std::move(*built)),
                        constants_)
                    .ok());
  }

  size_t Entries(const std::string& name) {
    return catalog_.Find(name)->physical->num_entries();
  }

  Database db_;
  Catalog catalog_;
  StorageConstants constants_;
};

TEST_F(MaintenanceTest, InsertAddsMatchingEntries) {
  size_t quantity_before = Entries("quantity");
  size_t items_before = Entries("items");
  size_t income_before = Entries("income");

  // Add one more document and maintain.
  Random rng(77);
  XMarkParams params;
  params.items_per_region = 3;
  Collection* coll = db_.GetCollection("xmark");
  DocId doc = coll->Add(
      GenerateXMarkDocument(db_.mutable_names(), params, &rng));
  Result<MaintenanceStats> stats =
      ApplyDocumentInsert(db_, "xmark", doc, &catalog_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_EQ(stats->indexes_touched, 3u);
  // 6 regions x 3 items: 18 new quantities and items.
  EXPECT_EQ(Entries("quantity"), quantity_before + 18);
  EXPECT_EQ(Entries("items"), items_before + 18);
  EXPECT_EQ(Entries("income"), income_before + 15);  // params.people.
  EXPECT_EQ(stats->entries_inserted, 18u + 18u + 15u);
}

TEST_F(MaintenanceTest, InsertKeepsIndexUsableAndCorrect) {
  Random rng(77);
  XMarkParams params;
  params.items_per_region = 3;
  Collection* coll = db_.GetCollection("xmark");
  DocId doc = coll->Add(
      GenerateXMarkDocument(db_.mutable_names(), params, &rng));
  ASSERT_TRUE(ApplyDocumentInsert(db_, "xmark", doc, &catalog_).ok());
  ASSERT_TRUE(db_.Analyze("xmark").ok());  // Refresh synopsis too.

  // Index execution agrees with a collection scan on the grown data.
  ContainmentCache cache;
  CostModel cost_model;
  Optimizer optimizer(&db_, cost_model);
  Result<Query> query = ParseQuery(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 5 return $i/name");
  ASSERT_TRUE(query.ok());
  Catalog empty;
  Result<QueryPlan> scan_plan = optimizer.Optimize(*query, empty, &cache);
  Result<QueryPlan> idx_plan = optimizer.Optimize(*query, catalog_, &cache);
  ASSERT_TRUE(scan_plan.ok());
  ASSERT_TRUE(idx_plan.ok());
  ASSERT_TRUE(idx_plan->access.use_index);
  Executor executor(&db_, &catalog_, cost_model);
  Result<ExecResult> scan_run = executor.Execute(*scan_plan);
  Result<ExecResult> idx_run = executor.Execute(*idx_plan);
  ASSERT_TRUE(scan_run.ok());
  ASSERT_TRUE(idx_run.ok());
  EXPECT_EQ(scan_run->nodes, idx_run->nodes);
  // The new document participates in results.
  bool saw_new_doc = false;
  for (const NodeRef& ref : idx_run->nodes) {
    if (ref.doc == doc) saw_new_doc = true;
  }
  EXPECT_TRUE(saw_new_doc);
}

TEST_F(MaintenanceTest, DeleteRemovesDocumentEntries) {
  size_t quantity_before = Entries("quantity");
  Result<MaintenanceStats> stats =
      ApplyDocumentDelete(db_, "xmark", /*doc=*/1, &catalog_);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->indexes_touched, 3u);
  EXPECT_EQ(Entries("quantity"), quantity_before - 18);
  // No index entry references doc 1 anymore.
  for (const auto& entry : catalog_.Find("quantity")->physical->entries()) {
    EXPECT_NE(entry.node.doc, 1);
  }
  // Deleting again is a no-op.
  Result<MaintenanceStats> again =
      ApplyDocumentDelete(db_, "xmark", 1, &catalog_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->entries_removed, 0u);
}

TEST_F(MaintenanceTest, StatsRefreshedAfterMaintenance) {
  double size_before = catalog_.Find("quantity")->stats.size_bytes;
  ASSERT_TRUE(ApplyDocumentDelete(db_, "xmark", 0, &catalog_).ok());
  double size_after = catalog_.Find("quantity")->stats.size_bytes;
  EXPECT_LT(size_after, size_before);
}

TEST_F(MaintenanceTest, VirtualIndexesUntouched) {
  IndexDefinition def;
  def.name = "virt";
  def.collection = "xmark";
  def.pattern = P("//price");
  def.type = ValueType::kDouble;
  ASSERT_TRUE(catalog_.AddVirtual(def, VirtualIndexStats{}).ok());
  Result<MaintenanceStats> stats =
      ApplyDocumentDelete(db_, "xmark", 0, &catalog_);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->indexes_touched, 3u);  // Only the physical ones.
}

TEST_F(MaintenanceTest, ErrorsOnBadInput) {
  EXPECT_FALSE(ApplyDocumentInsert(db_, "ghost", 0, &catalog_).ok());
  EXPECT_FALSE(ApplyDocumentInsert(db_, "xmark", 999, &catalog_).ok());
  EXPECT_FALSE(ApplyDocumentDelete(db_, "xmark", -1, &catalog_).ok());
}

TEST_F(MaintenanceTest, InsertedEntriesStaySorted) {
  Random rng(77);
  XMarkParams params;
  params.items_per_region = 3;
  Collection* coll = db_.GetCollection("xmark");
  DocId doc = coll->Add(
      GenerateXMarkDocument(db_.mutable_names(), params, &rng));
  ASSERT_TRUE(ApplyDocumentInsert(db_, "xmark", doc, &catalog_).ok());
  const auto& entries = catalog_.Find("quantity")->physical->entries();
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_FALSE(entries[i].key < entries[i - 1].key);
  }
}

// Incremental upkeep equals a rebuild: after every step of a seeded run
// of dml inserts, deletes and updates, each physical index holds exactly
// the entries, in exactly the order, a BuildIndex of the live collection
// holds, and its catalog statistics (the distinct-key count kept by
// InsertEntries/RemoveDocument included) equal the rebuild's bit for bit.
// `//date` keys repeat across documents, so runs of equal keys grow,
// split and vanish along the way.
TEST_F(MaintenanceTest, IncrementalUpkeepEqualsRebuild) {
  Materialize("dates", "//date", ValueType::kVarchar);
  const std::vector<std::string> checked = {"dates", "items", "quantity"};
  XMarkParams params;
  params.items_per_region = 3;
  Random rng(2024);
  auto fresh_xml = [&]() {
    Document doc = GenerateXMarkDocument(db_.mutable_names(), params, &rng);
    return SerializeDocument(doc, db_.names());
  };
  auto live_doc = [&]() {
    const Collection* coll = db_.GetCollection("xmark");
    std::vector<DocId> live;
    for (DocId id = 0; id < static_cast<DocId>(coll->num_docs()); ++id) {
      if (coll->IsLive(id)) live.push_back(id);
    }
    return rng.Choice(live);
  };

  auto same_entry = [](const PathIndex::Entry& a, const PathIndex::Entry& b) {
    return a.key == b.key && a.node == b.node;
  };

  int steps_of_kind[3] = {0, 0, 0};  // Inserts, deletes, updates.
  auto apply_step = [&]() -> Result<dml::DmlResult> {
    int64_t kind = rng.Uniform(0, 2);
    if (db_.GetCollection("xmark")->num_live_docs() <= 2) kind = 0;
    ++steps_of_kind[kind];
    if (kind == 0) {
      return dml::ApplyInsert(&db_, &catalog_, "xmark", fresh_xml());
    }
    const DocId target = live_doc();
    if (kind == 1) return dml::ApplyDelete(&db_, &catalog_, "xmark", target);
    return dml::ApplyUpdate(&db_, &catalog_, "xmark", target, fresh_xml());
  };

  for (int step = 0; step < 60; ++step) {
    Result<dml::DmlResult> applied = apply_step();
    ASSERT_TRUE(applied.ok()) << "step " << step << ": "
                              << applied.status().ToString();

    for (const std::string& name : checked) {
      SCOPED_TRACE("step " + std::to_string(step) + ", index " + name);
      const CatalogEntry* entry = catalog_.Find(name);
      Result<PathIndex> rebuilt = BuildIndex(db_, entry->def);
      ASSERT_TRUE(rebuilt.ok());
      const auto& kept = entry->physical->entries();
      const auto& built = rebuilt->entries();
      ASSERT_EQ(kept.size(), built.size());
      for (size_t i = 0; i < kept.size(); ++i) {
        ASSERT_TRUE(same_entry(kept[i], built[i])) << "entry " << i;
      }
      size_t distinct = 0;
      for (size_t i = 0; i < kept.size(); ++i) {
        if (i == 0 || !(kept[i].key == kept[i - 1].key)) ++distinct;
      }
      ASSERT_EQ(entry->physical->distinct_keys(), distinct);
      const VirtualIndexStats want = StatsFromPhysical(*rebuilt, constants_);
      const VirtualIndexStats& got = entry->stats;
      EXPECT_EQ(Bits(got.entries), Bits(want.entries));
      EXPECT_EQ(Bits(got.size_bytes), Bits(want.size_bytes));
      EXPECT_EQ(Bits(got.leaf_pages), Bits(want.leaf_pages));
      EXPECT_EQ(got.height, want.height);
      EXPECT_EQ(Bits(got.distinct), Bits(want.distinct));
      EXPECT_EQ(Bits(got.avg_key_bytes), Bits(want.avg_key_bytes));
    }
  }
  // The run exercised every kind of step and the duplicate-heavy index.
  EXPECT_GT(steps_of_kind[0], 0);
  EXPECT_GT(steps_of_kind[1], 0);
  EXPECT_GT(steps_of_kind[2], 0);
  const CatalogEntry* dates = catalog_.Find("dates");
  EXPECT_LT(dates->physical->distinct_keys(), dates->physical->num_entries());
}

}  // namespace
}  // namespace xia
