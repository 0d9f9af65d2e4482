#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "dml/dml.h"
#include "index/catalog.h"
#include "index/index_builder.h"
#include "storage/database.h"
#include "storage/path_synopsis.h"
#include "storage/statistics.h"
#include "storage/storage_engine.h"
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

class SynopsisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateCollection("c").ok());
    // Two documents with the paper's region structure.
    ASSERT_TRUE(db_.LoadXml("c", R"(
      <regions>
        <africa>
          <item id="a1"><quantity>5</quantity><price>10</price></item>
          <item id="a2"><quantity>3</quantity><price>20</price></item>
        </africa>
        <namerica>
          <item id="n1"><quantity>8</quantity><price>30</price></item>
        </namerica>
      </regions>)").ok());
    ASSERT_TRUE(db_.LoadXml("c", R"(
      <regions>
        <africa>
          <item id="a3"><quantity>1</quantity><price>40</price></item>
        </africa>
        <samerica>
          <item id="s1"><quantity>9</quantity><price>abc</price></item>
        </samerica>
      </regions>)").ok());
    ASSERT_TRUE(db_.Analyze("c").ok());
    synopsis_ = db_.synopsis("c");
    ASSERT_NE(synopsis_, nullptr);
  }

  Database db_;
  const PathSynopsis* synopsis_ = nullptr;
};

TEST_F(SynopsisTest, CountsAreExactForLinearPaths) {
  EXPECT_EQ(synopsis_->EstimateCount(P("/regions")), 2.0);
  EXPECT_EQ(synopsis_->EstimateCount(P("/regions/africa")), 2.0);
  EXPECT_EQ(synopsis_->EstimateCount(P("/regions/africa/item")), 3.0);
  EXPECT_EQ(synopsis_->EstimateCount(P("/regions/*/item")), 5.0);
  EXPECT_EQ(synopsis_->EstimateCount(P("//item")), 5.0);
  EXPECT_EQ(synopsis_->EstimateCount(P("//item/quantity")), 5.0);
  EXPECT_EQ(synopsis_->EstimateCount(P("//item/@id")), 5.0);
  EXPECT_EQ(synopsis_->EstimateCount(P("/regions/europe/item")), 0.0);
}

TEST_F(SynopsisTest, DistinctPathsCounted) {
  // regions, africa, namerica, samerica, item x3 (one per region),
  // quantity x3, price x3, @id x3 = 16.
  EXPECT_EQ(synopsis_->NumPaths(), 16u);
  // 2 regions roots + 4 region elements + 5 items + 15 item children.
  EXPECT_EQ(synopsis_->TotalNodes(), 26u);
}

TEST_F(SynopsisTest, EnumeratePathsContainsFullPaths) {
  auto paths = synopsis_->EnumeratePaths();
  bool found = false;
  for (const auto& [path, count] : paths) {
    if (path == "/regions/africa/item/quantity") {
      found = true;
      EXPECT_EQ(count, 3u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SynopsisTest, AggregateValuesTracksNumerics) {
  AggValueStats q = synopsis_->AggregateValues(P("//item/quantity"));
  EXPECT_EQ(q.node_count, 5u);
  EXPECT_EQ(q.value_count, 5u);
  EXPECT_EQ(q.numeric_count, 5u);
  EXPECT_EQ(q.min_num, 1.0);
  EXPECT_EQ(q.max_num, 9.0);
  EXPECT_EQ(q.sample.size(), 5u);

  // One price is non-numeric ("abc").
  AggValueStats p = synopsis_->AggregateValues(P("//item/price"));
  EXPECT_EQ(p.value_count, 5u);
  EXPECT_EQ(p.numeric_count, 4u);
}

TEST_F(SynopsisTest, StructuralNodesHaveNoValues) {
  AggValueStats items = synopsis_->AggregateValues(P("//item"));
  EXPECT_EQ(items.node_count, 5u);
  EXPECT_EQ(items.value_count, 0u);
}

TEST_F(SynopsisTest, IntersectionCount) {
  // //item ∩ /regions/africa/item = the 3 africa items.
  EXPECT_EQ(
      synopsis_->EstimateIntersectionCount(P("//item"),
                                           P("/regions/africa/item")),
      3.0);
  // Disjoint patterns share nothing.
  EXPECT_EQ(synopsis_->EstimateIntersectionCount(P("//quantity"),
                                                 P("//price")),
            0.0);
}

TEST_F(SynopsisTest, MatchReturnsPerPathNodes) {
  std::vector<const SynopsisNode*> nodes = synopsis_->Match(P("//item"));
  EXPECT_EQ(nodes.size(), 3u);  // One synopsis node per region's item path.
  uint64_t total = 0;
  for (const SynopsisNode* n : nodes) total += n->count;
  EXPECT_EQ(total, 5u);
}

TEST_F(SynopsisTest, PathStringReconstructsPath) {
  std::vector<const SynopsisNode*> nodes =
      synopsis_->Match(P("/regions/africa/item/quantity"));
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0]->PathString(db_.names()),
            "/regions/africa/item/quantity");
}

// ----------------------------------------------------------- Statistics.

TEST(StatisticsTest, SelectivityFromSample) {
  AggValueStats stats;
  for (int i = 1; i <= 10; ++i) stats.sample.push_back(std::to_string(i));
  stats.value_count = 10;
  // 5 of 10 values > 5; Laplace: (5 + 0.5) / 11.
  EXPECT_NEAR(EstimateSelectivity(stats, CompareOp::kGt, "5"), 5.5 / 11,
              1e-9);
  // Equality on one value: (1 + 0.5) / 11.
  EXPECT_NEAR(EstimateSelectivity(stats, CompareOp::kEq, "7"), 1.5 / 11,
              1e-9);
  // Never exactly zero or one.
  EXPECT_GT(EstimateSelectivity(stats, CompareOp::kGt, "100"), 0.0);
  EXPECT_LT(EstimateSelectivity(stats, CompareOp::kLe, "100"), 1.0);
}

TEST(StatisticsTest, SelectivityDefaults) {
  AggValueStats empty;
  EXPECT_EQ(EstimateSelectivity(empty, CompareOp::kGt, "5"), 0.1);
  EXPECT_EQ(EstimateSelectivity(empty, CompareOp::kExists, ""), 1.0);
}

TEST(StatisticsTest, EquiDepthHistogram) {
  AggValueStats stats;
  for (int i = 1; i <= 100; ++i) stats.sample.push_back(std::to_string(i));
  stats.value_count = 1000;  // Scaled 10x from the sample.
  Histogram hist = BuildEquiDepthHistogram(stats, 4);
  ASSERT_EQ(hist.buckets.size(), 4u);
  uint64_t total = 0;
  for (const HistogramBucket& b : hist.buckets) {
    EXPECT_LE(b.lo, b.hi);
    total += b.count;
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(hist.buckets[0].lo, 1.0);
  EXPECT_EQ(hist.buckets[3].hi, 100.0);
  // Equi-depth: equal counts.
  EXPECT_EQ(hist.buckets[0].count, hist.buckets[3].count);
}

TEST(StatisticsTest, HistogramUpperBoundaryIsInclusive) {
  AggValueStats stats;
  for (int i = 1; i <= 100; ++i) stats.sample.push_back(std::to_string(i));
  stats.value_count = 1000;
  Histogram hist = BuildEquiDepthHistogram(stats, 4);
  ASSERT_EQ(hist.buckets.size(), 4u);
  // Probing exactly the last bucket's upper bound is INSIDE the histogram:
  // the buckets are closed intervals, so the max sample value must land in
  // the last bucket and cover the full mass. The historic drift treated hi
  // as exclusive and dropped the final bucket for this probe.
  double max_v = hist.buckets.back().hi;
  EXPECT_EQ(hist.BucketIndexFor(max_v), 3);
  EXPECT_DOUBLE_EQ(hist.FractionLE(max_v), 1.0);
  // Above the last hi: still 1.0, and no containing bucket.
  EXPECT_DOUBLE_EQ(hist.FractionLE(max_v + 1.0), 1.0);
  EXPECT_EQ(hist.BucketIndexFor(max_v + 1.0), -1);
}

TEST(StatisticsTest, HistogramLowerBoundaryAndBelow) {
  AggValueStats stats;
  for (int i = 1; i <= 100; ++i) stats.sample.push_back(std::to_string(i));
  stats.value_count = 1000;
  Histogram hist = BuildEquiDepthHistogram(stats, 4);
  ASSERT_EQ(hist.buckets.size(), 4u);
  double min_v = hist.buckets.front().lo;
  // At the first lo: inside bucket 0, fraction is the interpolated sliver
  // at the bucket's left edge (zero width covered).
  EXPECT_EQ(hist.BucketIndexFor(min_v), 0);
  EXPECT_DOUBLE_EQ(hist.FractionLE(min_v), 0.0);
  // Strictly below the first bucket: outside, fraction 0.
  EXPECT_EQ(hist.BucketIndexFor(min_v - 1.0), -1);
  EXPECT_DOUBLE_EQ(hist.FractionLE(min_v - 1.0), 0.0);
}

TEST(StatisticsTest, HistogramSharedBoundaryLowerBucketWins) {
  // Force adjacent buckets to share a boundary value: equi-depth split of
  // {1,1,2,2} into 2 buckets gives [1,1] and [2,2]; of {1,2,2,3} gives
  // [1,2] and [2,3] where 2 is both a hi and the next lo.
  AggValueStats stats;
  stats.sample = {"1", "2", "2", "3"};
  stats.value_count = 4;
  Histogram hist = BuildEquiDepthHistogram(stats, 2);
  ASSERT_EQ(hist.buckets.size(), 2u);
  ASSERT_EQ(hist.buckets[0].hi, 2.0);
  ASSERT_EQ(hist.buckets[1].lo, 2.0);
  EXPECT_EQ(hist.BucketIndexFor(2.0), 0);  // Lower bucket wins the tie.
  // FractionLE at the shared boundary covers all of bucket 0 (probe == hi).
  EXPECT_DOUBLE_EQ(hist.FractionLE(2.0), 0.5);
}

TEST(StatisticsTest, HistogramSingleValueBucketInterpolation) {
  // A zero-width bucket ([5,5]) must count fully when probed at its value,
  // not divide by zero.
  AggValueStats stats;
  stats.sample = {"5", "5", "5", "5"};
  stats.value_count = 4;
  Histogram hist = BuildEquiDepthHistogram(stats, 2);
  ASSERT_FALSE(hist.buckets.empty());
  EXPECT_DOUBLE_EQ(hist.FractionLE(5.0), 1.0);
  EXPECT_EQ(hist.BucketIndexFor(5.0), 0);
}

TEST(StatisticsTest, HistogramEmptyProbes) {
  Histogram empty;
  EXPECT_EQ(empty.BucketIndexFor(1.0), -1);
  EXPECT_DOUBLE_EQ(empty.FractionLE(1.0), 0.0);
}

TEST(StatisticsTest, HistogramIgnoresNonNumerics) {
  AggValueStats stats;
  stats.sample = {"a", "b", "3", "1", "2"};
  stats.value_count = 5;
  Histogram hist = BuildEquiDepthHistogram(stats, 10);
  EXPECT_EQ(hist.buckets.size(), 3u);
  EXPECT_FALSE(hist.ToString().empty());
}

TEST(StatisticsTest, HistogramEmptyForNoNumerics) {
  AggValueStats stats;
  stats.sample = {"x", "y"};
  EXPECT_TRUE(BuildEquiDepthHistogram(stats, 4).buckets.empty());
}

TEST(SynopsisReservoirTest, SampleCapHolds) {
  Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  std::string xml = "<root>";
  for (int i = 0; i < 500; ++i) {
    xml += "<v>" + std::to_string(i) + "</v>";
  }
  xml += "</root>";
  ASSERT_TRUE(db.LoadXml("c", xml).ok());
  ASSERT_TRUE(db.Analyze("c").ok());
  AggValueStats stats = db.synopsis("c")->AggregateValues(P("/root/v"));
  EXPECT_EQ(stats.value_count, 500u);
  EXPECT_EQ(stats.sample.size(), 128u);  // Reservoir cap.
  EXPECT_EQ(stats.min_num, 0.0);
  EXPECT_EQ(stats.max_num, 499.0);
}

// ------------------------------------------------ Pinned synopsis contents.
//
// The synopsis after a full build and after incremental upkeep, pinned
// against constants recorded from a known-good build: a faster AddDocument
// or RemoveDocument must leave every count, value statistic, reservoir
// slot and distinct probe exactly where it was.

/// 64-bit FNV-1a, local to the test so a pinned constant cannot move with
/// a library hash.
class Fnv {
 public:
  void Byte(uint8_t b) {
    hash_ ^= b;
    hash_ *= 1099511628211ull;
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Str(std::string_view s) {
    U64(s.size());
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  void Double(double d) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    Str(buf);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

void HashSynopsisNode(const SynopsisNode& n, Fnv* fnv) {
  fnv->U64(static_cast<uint64_t>(n.name));
  fnv->U64(n.is_attr ? 1 : 0);
  fnv->U64(n.depth);
  fnv->U64(n.count);
  fnv->U64(n.value_count);
  fnv->U64(n.numeric_count);
  fnv->Double(n.min_num);
  fnv->Double(n.max_num);
  fnv->Double(n.total_value_bytes);
  fnv->U64(n.sample.size());
  for (const std::string& v : n.sample) fnv->Str(v);
  fnv->U64(n.sample_seen);
  fnv->U64(n.distinct_probe.size());
  fnv->U64(n.children.size());
  for (const auto& child : n.children) HashSynopsisNode(*child, fnv);
}

std::string SynopsisHash(const PathSynopsis& synopsis) {
  Fnv fnv;
  fnv.U64(synopsis.TotalNodes());
  fnv.Double(synopsis.StalenessFraction());
  HashSynopsisNode(synopsis.root(), &fnv);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, fnv.value());
  return buf;
}

TEST(SynopsisPinTest, AnalyzeAndSeededDmlKeepRecordedContents) {
  Database db;
  Catalog catalog;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 40, XMarkParams(), 41).ok());
  ASSERT_NE(db.synopsis("xmark"), nullptr);
  EXPECT_EQ(SynopsisHash(*db.synopsis("xmark")), "0xb95abf9b0ce8e10b");

  // Two physical indexes, so every write also runs index upkeep.
  for (const auto& [pattern, type] :
       std::vector<std::pair<std::string, ValueType>>{
           {"/site/regions/*/item/quantity", ValueType::kDouble},
           {"//date", ValueType::kVarchar}}) {
    IndexDefinition def;
    def.collection = "xmark";
    def.pattern = P(pattern);
    def.type = type;
    def.name = catalog.UniqueName(def.pattern);
    Result<PathIndex> built = BuildIndex(db, def);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE(catalog
                    .AddPhysical(std::make_shared<PathIndex>(std::move(*built)),
                                 StorageConstants())
                    .ok());
  }

  std::vector<std::string> texts;
  {
    NameTable names;
    Random gen(42);
    for (int i = 0; i < 12; ++i) {
      texts.push_back(SerializeDocument(
          GenerateXMarkDocument(&names, XMarkParams(), &gen), names));
    }
  }
  std::vector<DocId> live;
  for (DocId id = 0; id < 40; ++id) live.push_back(id);
  Random rng(43);
  size_t rebuilds = 0;
  for (int op = 0; op < 90; ++op) {
    const int64_t roll = rng.Uniform(0, 9);
    const std::string& xml = texts[static_cast<size_t>(op) % texts.size()];
    if (roll < 3 || live.size() < 8) {
      Result<dml::DmlResult> r = dml::ApplyInsert(&db, &catalog, "xmark", xml);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      live.push_back(r->doc);
      continue;
    }
    const size_t slot = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
    Result<dml::DmlResult> r =
        roll < 6 ? dml::ApplyUpdate(&db, &catalog, "xmark", live[slot], xml)
                 : dml::ApplyDelete(&db, &catalog, "xmark", live[slot]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    rebuilds += r->synopsis_rebuilt ? 1 : 0;
    if (roll < 6) {
      live[slot] = r->doc;
    } else {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(slot));
    }
  }
  EXPECT_GE(rebuilds, 2u);
  EXPECT_EQ(SynopsisHash(*db.synopsis("xmark")), "0x3ffa05943e80687f");
  EXPECT_EQ(storage::StorageEngine::StateFingerprint(db, catalog),
            "752b6b82-3424060");
}

}  // namespace
}  // namespace xia
