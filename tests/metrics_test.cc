// Tests for the xia::obs observability substrate: sharded-counter
// exactness under concurrency, snapshot determinism across thread counts,
// the retired-total semantics that keep registry names monotonic across
// instance lifetimes, the disabled-span zero-overhead contract, and the
// span quantiles read from the log2 buckets.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace_span.h"

namespace xia {
namespace obs {
namespace {

// Fixed deterministic workload against named metrics: the increments are
// a pure function of the iteration index, so the aggregate a snapshot
// reports must be identical no matter how iterations are scheduled.
void RunFixedWorkload(ThreadPool* pool, Counter* hits, Counter* misses,
                      Gauge* depth) {
  constexpr size_t kIterations = 10000;
  ParallelFor(pool, kIterations, [&](size_t i) {
    if (i % 3 == 0) {
      hits->Increment();
    } else {
      misses->Add(2);
    }
    depth->Add(1);
    depth->Sub(1);
  });
}

TEST(MetricsTest, SnapshotIdenticalAcrossThreadCounts) {
  Counter hits("test.fixed.hits");
  Counter misses("test.fixed.misses");
  Gauge depth("test.fixed.depth");

  // Serial run.
  RunFixedWorkload(nullptr, &hits, &misses, &depth);
  Snapshot serial = Registry().TakeSnapshot();
  uint64_t serial_hits = serial.counter("test.fixed.hits");
  uint64_t serial_misses = serial.counter("test.fixed.misses");

  // Same workload on four threads: the deltas must match exactly.
  ThreadPool pool(4);
  RunFixedWorkload(&pool, &hits, &misses, &depth);
  Snapshot threaded = Registry().TakeSnapshot();
  EXPECT_EQ(threaded.counter("test.fixed.hits") - serial_hits, serial_hits);
  EXPECT_EQ(threaded.counter("test.fixed.misses") - serial_misses,
            serial_misses);
  // 10000 iterations, one hit per i % 3 == 0.
  EXPECT_EQ(serial_hits, 3334u);
  EXPECT_EQ(serial_misses, 2u * (10000u - 3334u));
  // Balanced Add/Sub: the gauge nets out regardless of interleaving.
  EXPECT_EQ(threaded.gauges.at("test.fixed.depth"), 0);
}

TEST(MetricsTest, CounterStripesSumExactly) {
  Counter c;  // Unattached: invisible to snapshots.
  ThreadPool pool(4);
  ParallelFor(&pool, 100000, [&](size_t i) { c.Add(i % 5); });
  uint64_t expected = 0;
  for (size_t i = 0; i < 100000; ++i) expected += i % 5;
  EXPECT_EQ(c.Value(), expected);
  EXPECT_EQ(Registry().TakeSnapshot().counter(""), 0u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(MetricsTest, RetiredTotalsSurviveInstanceChurn) {
  {
    Counter first("test.churn.total");
    first.Add(7);
    EXPECT_EQ(Registry().TakeSnapshot().counter("test.churn.total"), 7u);
  }
  // Destroyed instance's value is retained.
  EXPECT_EQ(Registry().TakeSnapshot().counter("test.churn.total"), 7u);
  {
    // A new instance of the same name adds on top of the retired total.
    Counter second("test.churn.total");
    second.Add(3);
    EXPECT_EQ(Registry().TakeSnapshot().counter("test.churn.total"), 10u);
  }
  EXPECT_EQ(Registry().TakeSnapshot().counter("test.churn.total"), 10u);
  // Gauges retain nothing: the quantity dies with the instance.
  {
    Gauge g("test.churn.gauge");
    g.Set(42);
    EXPECT_EQ(Registry().TakeSnapshot().gauges.at("test.churn.gauge"), 42);
  }
  EXPECT_EQ(Registry().TakeSnapshot().gauges.count("test.churn.gauge"), 0u);
}

TEST(MetricsTest, RegistryOwnedCountersAreStable) {
  Counter& a = Registry().GetCounter("test.owned.counter");
  Counter& b = Registry().GetCounter("test.owned.counter");
  EXPECT_EQ(&a, &b);
  a.Add(5);
  EXPECT_EQ(Registry().TakeSnapshot().counter("test.owned.counter"), 5u);
  Gauge& g = Registry().GetGauge("test.owned.gauge");
  g.Set(-3);
  EXPECT_EQ(Registry().TakeSnapshot().gauges.at("test.owned.gauge"), -3);
}

TEST(MetricsTest, DisabledSpansAddNothing) {
  ASSERT_FALSE(SpansEnabled());  // Off by default.
  Snapshot before = Registry().TakeSnapshot();
  for (int i = 0; i < 1000; ++i) {
    XIA_SPAN("test.span.disabled");
  }
  Snapshot after = Registry().TakeSnapshot();
  // No span entry materializes, and nothing else moves: the disabled
  // macro is one relaxed load with no clock and no registry access.
  EXPECT_EQ(after.spans.count("test.span.disabled"), 0u);
  EXPECT_EQ(after.counters, before.counters);
  EXPECT_EQ(after.gauges, before.gauges);
  EXPECT_EQ(after.spans, before.spans);
  EXPECT_EQ(after.ToText("  "), before.ToText("  "));
}

TEST(MetricsTest, EnabledSpansAggregateByName) {
  SetSpansEnabled(true);
  for (int i = 0; i < 5; ++i) {
    XIA_SPAN("test.span.enabled");
  }
  SetSpansEnabled(false);
  Snapshot snap = Registry().TakeSnapshot();
  ASSERT_EQ(snap.spans.count("test.span.enabled"), 1u);
  EXPECT_EQ(snap.spans.at("test.span.enabled").count, 5u);
  // Rendered under the span. prefix in the text surface.
  EXPECT_NE(snap.ToText().find("span.test.span.enabled = 5 calls"),
            std::string::npos);
}

TEST(MetricsTest, SnapshotRendersDeterministically) {
  Counter z("test.render.zebra");
  Counter a("test.render.aardvark");
  z.Add(1);
  a.Add(2);
  Snapshot s1 = Registry().TakeSnapshot();
  Snapshot s2 = Registry().TakeSnapshot();
  // Identical state renders byte-identically, insertion order be damned.
  EXPECT_EQ(s1.ToText(), s2.ToText());
  EXPECT_EQ(s1.ToJson(), s2.ToJson());
  std::string text = s1.ToText("# ");
  size_t aard = text.find("# test.render.aardvark = 2");
  size_t zeb = text.find("# test.render.zebra = 1");
  ASSERT_NE(aard, std::string::npos);
  ASSERT_NE(zeb, std::string::npos);
  EXPECT_LT(aard, zeb);  // Sorted by name.
  std::vector<std::string> lines = s1.TextLines("");
  EXPECT_EQ(lines.size(),
            s1.counters.size() + s1.gauges.size() + s1.spans.size());
  // JSON shape: three sorted sections.
  std::string json = s1.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":{"), std::string::npos);
  EXPECT_NE(json.find("\"test.render.aardvark\":2"), std::string::npos);
}

TEST(MetricsTest, LatencyHistogramBucketsByLog2) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.total_micros(), 1006u);
  uint64_t bucketed = 0;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    bucketed += h.bucket(i);
  }
  EXPECT_EQ(bucketed, 5u);
  // 2 and 3 share bit_width 2; 0 and 1 land below it.
  EXPECT_EQ(h.bucket(2), 2u);
}

// Each quantile is the upper bound of the log2 bucket its rank
// (ceil(percent% of the samples)) falls in.
TEST(MetricsTest, SpanQuantilesAreTheirBucketsUpperBounds) {
  LatencyHistogram h;
  for (int i = 0; i < 50; ++i) h.Record(10);   // Bucket 4: [8, 15].
  for (int i = 0; i < 40; ++i) h.Record(100);  // Bucket 7: [64, 127].
  for (int i = 0; i < 9; ++i) h.Record(1000);  // Bucket 10: [512, 1023].
  h.Record(10000);                             // Bucket 14: [8192, 16383].
  SpanStats stats = h.Stats();
  EXPECT_EQ(stats.count, 100u);
  EXPECT_EQ(stats.total_micros, 500u + 4000u + 9000u + 10000u);
  EXPECT_EQ(stats.p50_micros, 15u);    // Rank 50, the last in bucket 4.
  EXPECT_EQ(stats.p90_micros, 127u);   // Rank 90, the last in bucket 7.
  EXPECT_EQ(stats.p99_micros, 1023u);  // Rank 99, the last in bucket 10.

  // One more sample moves every rank up by one, over each boundary.
  h.Record(10000);
  stats = h.Stats();
  EXPECT_EQ(stats.count, 101u);
  EXPECT_EQ(stats.p50_micros, 127u);    // Rank 51.
  EXPECT_EQ(stats.p90_micros, 1023u);   // Rank 91.
  EXPECT_EQ(stats.p99_micros, 16383u);  // Rank 100.

  LatencyHistogram zeros;
  zeros.Record(0);
  EXPECT_EQ(zeros.Stats().p99_micros, 0u);  // Bucket 0 holds only 0.
}

TEST(MetricsTest, EmptyHistogramReportsZeroQuantiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.Stats(), SpanStats{});
}

// The last bucket has no upper bound of its own: a quantile that falls in
// it reads as the span's total, which no sample exceeds.
TEST(MetricsTest, SampleBeyondTheLastBucketReadsAsTheTotal) {
  const uint64_t huge = uint64_t{1} << 45;  // bit_width 46 > 39.
  LatencyHistogram h;
  h.Record(5);
  h.Record(huge);
  EXPECT_EQ(h.bucket(LatencyHistogram::kBuckets - 1), 1u);
  SpanStats stats = h.Stats();
  EXPECT_EQ(stats.p50_micros, 7u);  // Rank 1: the 5 us sample's bucket.
  EXPECT_EQ(stats.p90_micros, huge + 5);
  EXPECT_EQ(stats.p99_micros, huge + 5);
  EXPECT_GE(stats.p99_micros, huge);
}

// `stats` appends the quantiles after the count and total, and the JSON
// keeps "count" and "total_micros" first.
TEST(MetricsTest, SnapshotRendersSpanQuantiles) {
  LatencyHistogram& h = Registry().GetSpanHistogram("test.quantiles.rendered");
  h.Record(9);
  h.Record(10);
  h.Record(11);
  Snapshot snap = Registry().TakeSnapshot();
  const std::string text =
      "span.test.quantiles.rendered = 3 calls, 30 us, p50 15 us, p90 15 us, "
      "p99 15 us\n";
  EXPECT_NE(snap.ToText().find(text), std::string::npos) << snap.ToText();
  const std::string json =
      "\"test.quantiles.rendered\":{\"count\":3,\"total_micros\":30,"
      "\"p50_micros\":15,\"p90_micros\":15,\"p99_micros\":15}";
  EXPECT_NE(snap.ToJson().find(json), std::string::npos) << snap.ToJson();
}

}  // namespace
}  // namespace obs
}  // namespace xia
