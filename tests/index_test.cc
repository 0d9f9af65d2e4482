#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/random.h"
#include "index/catalog.h"
#include "index/index_builder.h"
#include "index/virtual_index.h"
#include "storage/database.h"
#include "xpath/parser.h"

namespace xia {
namespace {

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

IndexDefinition Def(const std::string& name, const std::string& pattern,
                    ValueType type, const std::string& collection = "c") {
  IndexDefinition def;
  def.name = name;
  def.collection = collection;
  def.pattern = P(pattern);
  def.type = type;
  return def;
}

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateCollection("c").ok());
    ASSERT_TRUE(db_.LoadXml("c", R"(
      <items>
        <item><price>10</price><name>ring</name></item>
        <item><price>30</price><name>vase</name></item>
        <item><price>30</price><name>coin</name></item>
        <item><price>oops</price><name>lamp</name></item>
      </items>)").ok());
    ASSERT_TRUE(db_.Analyze("c").ok());
  }

  Database db_;
};

// ----------------------------------------------------------- Definition.

TEST_F(IndexTest, DdlStringMatchesDb2Shape) {
  IndexDefinition def = Def("idx_p", "/items/item/price",
                            ValueType::kDouble);
  EXPECT_EQ(def.DdlString(),
            "CREATE INDEX idx_p ON c(doc) GENERATE KEY USING XMLPATTERN "
            "'/items/item/price' AS SQL DOUBLE");
  EXPECT_NE(Def("a", "/x", ValueType::kVarchar).Key(),
            Def("a", "/x", ValueType::kDouble).Key());
}

// -------------------------------------------------------------- Builder.

TEST_F(IndexTest, DoubleIndexRejectsNonCastable) {
  Result<PathIndex> index =
      BuildIndex(db_, Def("i", "/items/item/price", ValueType::kDouble));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_entries(), 3u);  // "oops" rejected.
}

TEST_F(IndexTest, VarcharIndexKeepsEverything) {
  Result<PathIndex> index =
      BuildIndex(db_, Def("i", "/items/item/price", ValueType::kVarchar));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_entries(), 4u);
}

TEST_F(IndexTest, StructuralVarcharIndexesValuelessNodes) {
  Result<PathIndex> index =
      BuildIndex(db_, Def("i", "/items/item", ValueType::kVarchar));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_entries(), 4u);  // Every item, empty-string keys.
  EXPECT_EQ(index->AllNodes().size(), 4u);
}

TEST_F(IndexTest, BuildFailsOnMissingCollection) {
  Result<PathIndex> index =
      BuildIndex(db_, Def("i", "/x", ValueType::kVarchar, "ghost"));
  EXPECT_FALSE(index.ok());
}

// -------------------------------------------------------------- Lookups.

TEST_F(IndexTest, LookupEq) {
  Result<PathIndex> index =
      BuildIndex(db_, Def("i", "/items/item/price", ValueType::kDouble));
  ASSERT_TRUE(index.ok());
  auto key = TypedValue::Make(ValueType::kDouble, "30");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(index->LookupEq(*key).size(), 2u);
  auto missing = TypedValue::Make(ValueType::kDouble, "999");
  EXPECT_TRUE(index->LookupEq(*missing).empty());
}

TEST_F(IndexTest, LookupRangeBounds) {
  Result<PathIndex> index =
      BuildIndex(db_, Def("i", "/items/item/price", ValueType::kDouble));
  ASSERT_TRUE(index.ok());
  auto v10 = TypedValue::Make(ValueType::kDouble, "10");
  auto v30 = TypedValue::Make(ValueType::kDouble, "30");
  // (10, inf): the two 30s.
  EXPECT_EQ(index->LookupRange(v10, false, std::nullopt, false).size(), 2u);
  // [10, inf): all three.
  EXPECT_EQ(index->LookupRange(v10, true, std::nullopt, false).size(), 3u);
  // (-inf, 30): just 10.
  EXPECT_EQ(index->LookupRange(std::nullopt, false, v30, false).size(), 1u);
  // [10, 30]: all three.
  EXPECT_EQ(index->LookupRange(v10, true, v30, true).size(), 3u);
}

TEST_F(IndexTest, VarcharLookupLexicographic) {
  Result<PathIndex> index =
      BuildIndex(db_, Def("i", "/items/item/name", ValueType::kVarchar));
  ASSERT_TRUE(index.ok());
  auto key = TypedValue::Make(ValueType::kVarchar, "ring");
  EXPECT_EQ(index->LookupEq(*key).size(), 1u);
  // Range [coin, ring): coin, lamp.
  auto lo = TypedValue::Make(ValueType::kVarchar, "coin");
  auto hi = TypedValue::Make(ValueType::kVarchar, "ring");
  EXPECT_EQ(index->LookupRange(lo, true, hi, false).size(), 2u);
}

TEST_F(IndexTest, SizeAndHeightPositive) {
  Result<PathIndex> index =
      BuildIndex(db_, Def("i", "/items/item/name", ValueType::kVarchar));
  ASSERT_TRUE(index.ok());
  StorageConstants constants;
  EXPECT_GT(index->ByteSize(constants), 0.0);
  EXPECT_GE(index->LeafPages(constants), 1.0);
  EXPECT_GE(index->Height(constants), 1);
}

// --------------------------------------------------------- Virtual index.

TEST_F(IndexTest, VirtualEstimateMatchesPhysicalEntryCount) {
  StorageConstants constants;
  const PathSynopsis* synopsis = db_.synopsis("c");
  ASSERT_NE(synopsis, nullptr);
  for (auto type : {ValueType::kVarchar, ValueType::kDouble}) {
    IndexDefinition def = Def("i", "/items/item/price", type);
    VirtualIndexStats est = EstimateVirtualIndex(*synopsis, def, constants);
    Result<PathIndex> built = BuildIndex(db_, def);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(est.entries, static_cast<double>(built->num_entries()))
        << ValueTypeName(type);
    // Sizes agree within 50% (key-size averaging differs slightly).
    double actual = built->ByteSize(constants);
    if (actual > 0) {
      EXPECT_NEAR(est.size_bytes / actual, 1.0, 0.5);
    }
  }
}

TEST_F(IndexTest, StatsFromPhysicalCountsDistinct) {
  Result<PathIndex> index =
      BuildIndex(db_, Def("i", "/items/item/price", ValueType::kDouble));
  ASSERT_TRUE(index.ok());
  VirtualIndexStats stats = StatsFromPhysical(*index, StorageConstants());
  EXPECT_EQ(stats.entries, 3.0);
  EXPECT_EQ(stats.distinct, 2.0);  // 10 and 30.
}

// Seeded inserts and removals over few keys (so runs of equal keys sit
// at both ends and between every document) against a reference that
// merges with std::merge, removes with std::erase_if and recounts the
// distinct keys.
TEST_F(IndexTest, InPlaceUpkeepMatchesMergeAndRecount) {
  auto less = [](const PathIndex::Entry& a, const PathIndex::Entry& b) {
    return a.key == b.key ? a.node < b.node : a.key < b.key;
  };
  auto same = [](const std::vector<PathIndex::Entry>& a,
                 const std::vector<PathIndex::Entry>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i].key == b[i].key && a[i].node == b[i].node)) return false;
    }
    return true;
  };
  auto recount = [](const std::vector<PathIndex::Entry>& entries) {
    size_t distinct = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i == 0 || !(entries[i].key == entries[i - 1].key)) ++distinct;
    }
    return distinct;
  };
  Random rng(7);
  auto document = [&](DocId doc) {
    std::vector<PathIndex::Entry> entries;
    const int64_t count = rng.Uniform(0, 6);
    for (int64_t n = 0; n < count; ++n) {
      TypedValue key;
      key.type = ValueType::kDouble;
      key.num = static_cast<double>(rng.Uniform(0, 4));
      entries.push_back({key, NodeRef{doc, static_cast<NodeIndex>(n)}});
    }
    return entries;
  };

  std::vector<PathIndex::Entry> reference;
  for (DocId doc = 0; doc < 3; ++doc) {
    std::vector<PathIndex::Entry> entries = document(doc);
    reference.insert(reference.end(), entries.begin(), entries.end());
  }
  PathIndex index(Def("i", "/a", ValueType::kDouble), reference);
  std::sort(reference.begin(), reference.end(), less);
  ASSERT_EQ(index.distinct_keys(), recount(reference));

  DocId next_doc = 3;
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (rng.Bernoulli(0.55)) {
      std::vector<PathIndex::Entry> entries = document(next_doc++);
      std::vector<PathIndex::Entry> sorted = entries;
      std::sort(sorted.begin(), sorted.end(), less);
      std::vector<PathIndex::Entry> merged;
      std::merge(reference.begin(), reference.end(), sorted.begin(),
                 sorted.end(), std::back_inserter(merged), less);
      reference = std::move(merged);
      EXPECT_EQ(index.InsertEntries(std::move(entries)), sorted.size());
    } else {
      const DocId doc = static_cast<DocId>(rng.Uniform(0, next_doc - 1));
      auto of_doc = [&](const PathIndex::Entry& e) {
        return e.node.doc == doc;
      };
      const size_t removed = std::erase_if(reference, of_doc);
      EXPECT_EQ(index.RemoveDocument(doc), removed);
    }
    ASSERT_TRUE(same(index.entries(), reference));
    ASSERT_EQ(index.distinct_keys(), recount(reference));
  }
}

// --------------------------------------------------------------- Catalog.

TEST_F(IndexTest, CatalogAddFindDrop) {
  Catalog catalog;
  StorageConstants constants;
  Result<PathIndex> built =
      BuildIndex(db_, Def("idx1", "/items/item/price", ValueType::kDouble));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(catalog
                  .AddPhysical(std::make_shared<PathIndex>(std::move(*built)),
                               constants)
                  .ok());
  ASSERT_TRUE(catalog
                  .AddVirtual(Def("idx2", "/items/item/name",
                                  ValueType::kVarchar),
                              VirtualIndexStats{})
                  .ok());
  EXPECT_EQ(catalog.size(), 2u);
  const CatalogEntry* phys = catalog.Find("idx1");
  ASSERT_NE(phys, nullptr);
  EXPECT_FALSE(phys->is_virtual);
  ASSERT_NE(phys->physical, nullptr);
  const CatalogEntry* virt = catalog.Find("idx2");
  ASSERT_NE(virt, nullptr);
  EXPECT_TRUE(virt->is_virtual);
  EXPECT_EQ(catalog.IndexesFor("c").size(), 2u);
  EXPECT_TRUE(catalog.IndexesFor("other").empty());
  EXPECT_TRUE(catalog.Drop("idx1").ok());
  EXPECT_EQ(catalog.Find("idx1"), nullptr);
  EXPECT_FALSE(catalog.Drop("idx1").ok());
}

TEST_F(IndexTest, CatalogRejectsDuplicateNames) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddVirtual(Def("dup", "/a", ValueType::kVarchar),
                              VirtualIndexStats{})
                  .ok());
  EXPECT_FALSE(catalog
                   .AddVirtual(Def("dup", "/b", ValueType::kVarchar),
                               VirtualIndexStats{})
                   .ok());
}

TEST_F(IndexTest, CatalogCopyIsIndependentOverlay) {
  Catalog base;
  ASSERT_TRUE(base.AddVirtual(Def("i1", "/a", ValueType::kVarchar),
                              VirtualIndexStats{})
                  .ok());
  Catalog overlay = base;
  ASSERT_TRUE(overlay
                  .AddVirtual(Def("i2", "/b", ValueType::kVarchar),
                              VirtualIndexStats{})
                  .ok());
  EXPECT_EQ(overlay.size(), 2u);
  EXPECT_EQ(base.size(), 1u);  // Base untouched: virtual indexes invisible.
}

TEST_F(IndexTest, UniqueNameAvoidsCollisions) {
  Catalog catalog;
  PathPattern p = P("/items/item/price");
  std::string first = catalog.UniqueName(p);
  ASSERT_TRUE(catalog
                  .AddVirtual(Def(first, "/items/item/price",
                                  ValueType::kVarchar),
                              VirtualIndexStats{})
                  .ok());
  std::string second = catalog.UniqueName(p);
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace xia
