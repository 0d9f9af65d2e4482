#include <gtest/gtest.h>

#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "exec/executor.h"
#include "index/index_builder.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "storage/buffer_pool.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace {

// ------------------------------------------------------------- LRU core.

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(4);
  EXPECT_FALSE(pool.Touch(1));
  EXPECT_TRUE(pool.Touch(1));
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(2);
  pool.Touch(1);
  pool.Touch(2);
  pool.Touch(1);   // 1 is now most recent.
  pool.Touch(3);   // Evicts 2.
  EXPECT_TRUE(pool.Touch(1));
  EXPECT_TRUE(pool.Touch(3));
  EXPECT_FALSE(pool.Touch(2));  // Was evicted.
  EXPECT_EQ(pool.size(), 2u);
}

TEST(BufferPoolTest, ZeroCapacityAlwaysMisses) {
  BufferPool pool(0);
  EXPECT_FALSE(pool.Touch(1));
  EXPECT_FALSE(pool.Touch(1));
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(BufferPoolTest, ResetClearsEverything) {
  BufferPool pool(4);
  pool.Touch(1);
  pool.Touch(1);
  pool.Reset();
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_FALSE(pool.Touch(1));  // Cold again.
}

// Regression: Reset() used to zero the live obs counters, silently
// erasing buffer-pool history from registry snapshots mid-run. The
// instance view starts over; the registry totals must not move backward.
TEST(BufferPoolTest, ResetKeepsRegistrySnapshotMonotonic) {
  BufferPool pool(4);
  pool.Touch(1);  // Miss.
  pool.Touch(1);  // Hit.
  pool.Touch(2);  // Miss.
  obs::Snapshot before = obs::Registry().TakeSnapshot();
  pool.Reset();
  obs::Snapshot after = obs::Registry().TakeSnapshot();
  for (const char* name :
       {"bufferpool.hits", "bufferpool.misses", "bufferpool.evictions"}) {
    EXPECT_GE(after.counter(name), before.counter(name)) << name;
  }
  // The instance view did start over...
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
  // ...and keeps counting into both views afterwards.
  pool.Touch(3);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(obs::Registry().TakeSnapshot().counter("bufferpool.misses"),
            after.counter("bufferpool.misses") + 1);
}

TEST(BufferPoolTest, HitRatio) {
  BufferPool pool(8);
  EXPECT_EQ(pool.HitRatio(), 0.0);
  pool.Touch(1);
  pool.Touch(1);
  pool.Touch(1);
  pool.Touch(2);
  EXPECT_NEAR(pool.HitRatio(), 0.5, 1e-9);
}

TEST(BufferPoolTest, PageIdSpacesDisjoint) {
  // Document pages and index pages never collide.
  EXPECT_NE(DocPageId(3, 7), IndexPageId(3, 7));
  EXPECT_NE(DocPageId(0, 0), IndexPageId(0, 0));
  EXPECT_NE(DocPageId(1, 2), DocPageId(2, 1));
}

// ------------------------------------------------ FetchRun == Fetch loop.

/// Drives `pool` through the same seeded mix of single touches and runs;
/// `use_run` picks FetchRun or the equivalent Fetch loop for the runs.
/// Returns every touch's hit/miss outcome, then probes the final LRU
/// order: a fresh page evicts the next victim, and re-touching each id
/// reveals which one it was.
std::vector<bool> DriveAndProbe(BufferPool* pool, bool use_run) {
  Random rng(99);
  std::vector<bool> trace;
  for (int step = 0; step < 200; ++step) {
    uint64_t first = static_cast<uint64_t>(rng.Uniform(0, 40));
    uint32_t count = static_cast<uint32_t>(rng.Uniform(0, 12));
    if (rng.Bernoulli(0.3)) {
      trace.push_back(*pool->Fetch(first));
      continue;
    }
    uint64_t hits = pool->hits();
    if (use_run) {
      EXPECT_TRUE(pool->FetchRun(first, count).ok());
    } else {
      for (uint32_t i = 0; i < count; ++i) {
        EXPECT_TRUE(pool->Fetch(first + i).ok());
      }
    }
    trace.push_back(pool->hits() - hits == count);
  }
  trace.push_back(pool->Touch(1000));
  for (uint64_t id = 0; id < 52; ++id) trace.push_back(pool->Touch(id));
  return trace;
}

TEST(BufferPoolTest, FetchRunMatchesFetchLoop) {
  for (size_t capacity : {size_t{0}, size_t{1}, size_t{5}, size_t{16},
                          size_t{64}}) {
    SCOPED_TRACE(capacity);
    BufferPool run_pool(capacity);
    BufferPool loop_pool(capacity);
    EXPECT_EQ(DriveAndProbe(&run_pool, true),
              DriveAndProbe(&loop_pool, false));
    EXPECT_EQ(run_pool.hits(), loop_pool.hits());
    EXPECT_EQ(run_pool.misses(), loop_pool.misses());
    EXPECT_EQ(run_pool.evictions(), loop_pool.evictions());
    EXPECT_EQ(run_pool.size(), loop_pool.size());
  }
}

TEST(BufferPoolTest, FetchRunFailsOnTheSamePageAsFetchLoop) {
  const uint64_t kFirst = DocPageId(3, 0);
  const uint64_t kBad = DocPageId(3, 4);
  fp::FailSpec spec;
  spec.match_arg = static_cast<int64_t>(kBad);
  fp::ScopedFailpoint armed("storage.bufferpool.fetch", spec);

  BufferPool run_pool(16);
  uint64_t trips = fp::Trips("storage.bufferpool.fetch");
  Status run = run_pool.FetchRun(kFirst, 8);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(fp::Trips("storage.bufferpool.fetch"), trips + 1);

  BufferPool loop_pool(16);
  Status loop;
  for (uint64_t id = kFirst; id < kFirst + 8 && loop.ok(); ++id) {
    loop = loop_pool.Fetch(id).status();
  }
  EXPECT_EQ(run.code(), loop.code());
  EXPECT_EQ(run.message(), loop.message());
  // Pages before the failing one were touched; the rest were not.
  EXPECT_EQ(run_pool.misses(), 4u);
  EXPECT_EQ(run_pool.misses(), loop_pool.misses());
  EXPECT_EQ(run_pool.size(), loop_pool.size());
}

// ---------------------------------------------------- Executor coupling.

class BufferedExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 10, params, 42).ok());
    for (const auto& [name, pattern] :
         std::vector<std::pair<std::string, std::string>>{
             {"q_idx", "/site/regions/africa/item/quantity"},
             {"p_idx", "/site/regions/africa/item/price"}}) {
      IndexDefinition def;
      def.name = name;
      def.collection = "xmark";
      Result<PathPattern> p = ParsePathPattern(pattern);
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
  }

  QueryPlan Plan(const std::string& text, const Catalog& catalog) {
    Result<Query> q = ParseQuery(text);
    EXPECT_TRUE(q.ok());
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

constexpr const char* kQuery =
    "for $i in doc(\"xmark\")/site/regions/africa/item "
    "where $i/quantity > 5 return $i/name";

TEST_F(BufferedExecutionTest, SecondScanRunsWarm) {
  BufferPool pool(100000);
  Executor executor(&db_, &catalog_, cost_model_, &pool);
  Catalog empty;
  QueryPlan plan = Plan(kQuery, empty);
  Result<ExecResult> cold = executor.Execute(plan);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->buffer_misses, 0u);
  EXPECT_EQ(cold->buffer_hits, 0u);  // Nothing cached yet.
  Result<ExecResult> warm = executor.Execute(plan);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->buffer_misses, 0u);  // Everything cached.
  EXPECT_EQ(warm->buffer_hits, cold->buffer_misses);
}

TEST_F(BufferedExecutionTest, IndexPlanReadsFewerColdPagesThanScan) {
  // Selective predicate: very few africa items cost more than 495, so the
  // index plan only touches the handful of qualifying documents.
  const char* selective =
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/price > 495 return $i/name";
  Catalog empty;
  QueryPlan scan_plan = Plan(selective, empty);
  QueryPlan idx_plan = Plan(selective, catalog_);
  ASSERT_TRUE(idx_plan.access.use_index);

  BufferPool scan_pool(100000);
  Executor scan_exec(&db_, &catalog_, cost_model_, &scan_pool);
  Result<ExecResult> scan = scan_exec.Execute(scan_plan);
  ASSERT_TRUE(scan.ok());

  BufferPool idx_pool(100000);
  Executor idx_exec(&db_, &catalog_, cost_model_, &idx_pool);
  Result<ExecResult> idx = idx_exec.Execute(idx_plan);
  ASSERT_TRUE(idx.ok());

  EXPECT_LT(idx->buffer_misses, scan->buffer_misses);
  EXPECT_EQ(scan->nodes, idx->nodes);  // Caching never changes results.
}

TEST_F(BufferedExecutionTest, SmallPoolThrashes) {
  Catalog empty;
  QueryPlan plan = Plan(kQuery, empty);
  BufferPool tiny(4);
  Executor executor(&db_, &catalog_, cost_model_, &tiny);
  ASSERT_TRUE(executor.Execute(plan).ok());
  Result<ExecResult> second = executor.Execute(plan);
  ASSERT_TRUE(second.ok());
  // The scan touches far more pages than fit: the second run still
  // misses (sequential flooding defeats a tiny LRU).
  EXPECT_GT(second->buffer_misses, 0u);
}

TEST_F(BufferedExecutionTest, NoPoolReportsZeroCounters) {
  Executor executor(&db_, &catalog_, cost_model_);
  Catalog empty;
  Result<ExecResult> run = executor.Execute(Plan(kQuery, empty));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->buffer_hits, 0u);
  EXPECT_EQ(run->buffer_misses, 0u);
}

}  // namespace
}  // namespace xia
