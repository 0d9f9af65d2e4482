// xia::wlm — workload capture, template compression, and drift-triggered
// re-advising. Covers the ring-log semantics, capture through the
// server's `run` verb, content-deterministic compression (threads
// 1 vs 4, and under an injected capture failpoint), capture-log IO, the
// drift monitor, and the headline acceptance property: a 10×-duplicated
// workload advised through capture + compression yields the same
// recommendation as the equivalent hand-built weighted workload with ≥5×
// fewer what-if cost requests.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/whatif.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "server/session.h"
#include "wlm/capture.h"
#include "wlm/compress.h"
#include "wlm/drift.h"
#include "wlm/fingerprint.h"
#include "wlm/wlm_io.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace wlm {
namespace {

Query Parse(const std::string& text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(*q);
}

CaptureRecord Rec(const std::string& text, double cost) {
  CaptureRecord r;
  r.text = text;
  r.est_cost = cost;
  r.fingerprint = TemplateFingerprint(Parse(text));
  return r;
}

/// Everything that must be bit-identical between two equivalent advising
/// runs, rendered with round-trip float precision.
std::string RecommendationSignature(const Recommendation& rec) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.17g|%.17g|%.17g|%.17g|%.17g\n",
                rec.baseline_cost, rec.recommended_cost, rec.update_cost,
                rec.benefit, rec.total_size_bytes);
  std::string out = buf;
  for (const IndexDefinition& def : rec.indexes) {
    out += def.pattern.ToString() + " " + ValueTypeName(def.type) + "\n";
  }
  return out;
}

uint64_t CostRequests(const Recommendation& rec) {
  const CostCacheStats& c = rec.search.counters.cost;
  return c.hits + c.misses;
}

// ------------------------------------------------------- Fingerprinting.

TEST(TemplateFingerprintTest, LiteralsDoNotSplitTemplates) {
  std::string fp_a = TemplateFingerprint(Parse(
      "for $i in doc(\"c\")/site/item where $i/price < 100 return $i"));
  std::string fp_b = TemplateFingerprint(Parse(
      "for $i in doc(\"c\")/site/item where $i/price < 7 return $i"));
  EXPECT_EQ(fp_a, fp_b);
  // Literal spelling and whitespace do not matter either: the fingerprint
  // comes from the parsed normal form.
  std::string fp_c = TemplateFingerprint(Parse(
      "for  $i in doc(\"c\")/site/item  where $i/price < 7.0 return $i"));
  EXPECT_EQ(fp_a, fp_c);
}

TEST(TemplateFingerprintTest, StructureDoesSplitTemplates) {
  std::string base = TemplateFingerprint(Parse(
      "for $i in doc(\"c\")/site/item where $i/price < 100 return $i"));
  // Different comparison operator.
  EXPECT_NE(base, TemplateFingerprint(Parse(
                      "for $i in doc(\"c\")/site/item where $i/price > 100 "
                      "return $i")));
  // Different predicate pattern.
  EXPECT_NE(base, TemplateFingerprint(Parse(
                      "for $i in doc(\"c\")/site/item where $i/cost < 100 "
                      "return $i")));
  // Different collection.
  EXPECT_NE(base, TemplateFingerprint(Parse(
                      "for $i in doc(\"d\")/site/item where $i/price < 100 "
                      "return $i")));
}

// ------------------------------------------------------------- Ring log.

TEST(QueryLogTest, AppendSnapshotAndStats) {
  QueryLog log(64);
  // Registry totals aggregate attached instances; read them via snapshot.
  uint64_t before =
      obs::Registry().TakeSnapshot().counter("wlm.captured");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        log.Append(Rec("for $i in doc(\"c\")/a/b where $i/v > " +
                           std::to_string(i) + " return $i",
                       1.0 + i))
            .ok());
  }
  std::vector<CaptureRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 5u);
  // Snapshot is in sequence order: capture order is reproduced exactly.
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].seq, snap[i].seq);
  }
  QueryLogStats stats = log.stats();
  EXPECT_EQ(stats.captured, 5u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.size, 5u);
  EXPECT_EQ(stats.capacity, 64u);
  EXPECT_EQ(
      obs::Registry().TakeSnapshot().counter("wlm.captured") - before, 5u);
  EXPECT_NE(stats.ToString().find("captured 5"), std::string::npos);

  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
  // Lifetime counts survive Clear.
  EXPECT_EQ(log.stats().captured, 5u);
}

TEST(QueryLogTest, RingOverwritesOldestAndCountsDrops) {
  QueryLog log(2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.Append(Rec("for $i in doc(\"c\")/a/b where $i/v > " +
                                   std::to_string(i) + " return $i",
                               1.0))
                    .ok());
  }
  std::vector<CaptureRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  // The survivors are the newest records.
  EXPECT_EQ(snap[0].seq + 1, snap[1].seq);
  EXPECT_EQ(snap[1].seq, 4u);
  QueryLogStats stats = log.stats();
  EXPECT_EQ(stats.captured, 5u);
  EXPECT_EQ(stats.dropped, 3u);
}

TEST(QueryLogTest, AppendFailpointDropsTheMatchedRecord) {
  QueryLog log(64);
  uint64_t before = obs::Registry().TakeSnapshot().counter("wlm.dropped");
  fp::FailSpec spec;
  spec.code = StatusCode::kInternal;
  spec.match_arg = 2;  // Fail exactly the third captured query.
  fp::ScopedFailpoint guard("wlm.capture.append", spec);
  int failures = 0;
  for (int i = 0; i < 5; ++i) {
    Status s = log.Append(Rec("for $i in doc(\"c\")/a/b where $i/v > " +
                                  std::to_string(i) + " return $i",
                              1.0));
    if (!s.ok()) ++failures;
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(log.Snapshot().size(), 4u);
  EXPECT_EQ(log.stats().dropped, 1u);
  EXPECT_EQ(
      obs::Registry().TakeSnapshot().counter("wlm.dropped") - before, 1u);
}

// ------------------------------------------------- Capture through run.

/// A server state over the XMark data `gen xmark 4` builds, driven
/// through the dispatcher the way a client's verbs are.
class CaptureHookTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(Run("gen xmark 4").find("generated"), 0u);
  }

  std::string Run(const std::string& line) {
    std::ostringstream out;
    server::CommandDispatcher(&shared_).Execute(line, &session_, out);
    return out.str();
  }

  server::SharedState shared_;
  server::ClientSession session_{shared_};
};

constexpr char kAfricaQuery[] =
    "for $i in doc(\"xmark\")/site/regions/africa/item "
    "where $i/quantity > 5 return $i/name";

TEST_F(CaptureHookTest, ExecutorCapturesTextFingerprintAndCost) {
  const std::string text = kAfricaQuery;
  // The plan `run` executes: the state's cost model over its catalog.
  Optimizer opt(&shared_.db, shared_.default_options.cost_model);
  Result<QueryPlan> plan =
      opt.Optimize(Parse(text), shared_.catalog, &shared_.containment);
  ASSERT_TRUE(plan.ok());

  ASSERT_EQ(Run("capture on 64").find("capture armed (64 record ring"), 0u);
  ASSERT_NE(Run("run " + text).find("result nodes"), std::string::npos);
  std::vector<CaptureRecord> snap = shared_.capture_log->Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].text, text);
  EXPECT_EQ(snap[0].fingerprint, TemplateFingerprint(Parse(text)));
  EXPECT_DOUBLE_EQ(snap[0].est_cost, plan->total_cost);

  // Disarmed: the same execution captures nothing.
  Run("capture off");
  ASSERT_NE(Run("run " + text).find("result nodes"), std::string::npos);
  EXPECT_EQ(shared_.capture_log->Snapshot().size(), 1u);
}

TEST_F(CaptureHookTest, CaptureFailureNeverFailsTheQuery) {
  Run("capture on 64");
  fp::FailSpec spec;
  spec.code = StatusCode::kInternal;
  fp::ScopedFailpoint guard("wlm.capture.append", spec);
  // Every capture append trips, yet the query succeeds.
  EXPECT_NE(Run(std::string("run ") + kAfricaQuery).find("result nodes"),
            std::string::npos);
  EXPECT_TRUE(shared_.capture_log->Snapshot().empty());
  EXPECT_EQ(shared_.capture_log->stats().dropped, 1u);
  EXPECT_EQ(Run("log stats"), "captured 0, dropped 1, holding 0/64\n");
}

// ----------------------------------------------------------- Compression.

std::vector<CaptureRecord> MixedLog() {
  std::vector<CaptureRecord> records;
  // Template A: 3 executions at cost 2 (weight 6).
  for (int i = 0; i < 3; ++i) {
    records.push_back(
        Rec("for $i in doc(\"c\")/site/item where $i/price < " +
                std::to_string(10 * (i + 1)) + " return $i",
            2.0));
  }
  // Template B: 1 execution at cost 10 (weight 10) — expensive and rare.
  records.push_back(
      Rec("for $i in doc(\"c\")/site/item where $i/quantity > 5 "
          "order by $i/price return $i/name",
          10.0));
  // Template C: 2 executions at cost 0.5 (weight 1).
  for (int i = 0; i < 2; ++i) {
    records.push_back(
        Rec("for $i in doc(\"c\")/site/open_auction return $i", 0.5));
  }
  return records;
}

TEST(CompressTest, ClustersByTemplateAndWeightsByTotalCost) {
  Result<CompressedWorkload> out = CompressLog(MixedLog());
  ASSERT_TRUE(out.ok());
  const CompressionReport& report = out->report;
  EXPECT_EQ(report.input_records, 6u);
  EXPECT_EQ(report.templates_total, 3u);
  // Weight order: B (10) > A (6) > C (1).
  ASSERT_EQ(report.clusters.size(), 3u);
  EXPECT_DOUBLE_EQ(report.clusters[0].weight, 10.0);
  EXPECT_EQ(report.clusters[0].frequency, 1u);
  EXPECT_DOUBLE_EQ(report.clusters[1].weight, 6.0);
  EXPECT_EQ(report.clusters[1].frequency, 3u);
  EXPECT_DOUBLE_EQ(report.clusters[1].mean_cost, 2.0);
  // The representative is the lexicographically smallest member text.
  EXPECT_EQ(report.clusters[1].representative_text,
            "for $i in doc(\"c\")/site/item where $i/price < 10 return $i");
  // The workload mirrors the clusters: ids T1.., cluster weights.
  ASSERT_EQ(out->workload.size(), 3u);
  EXPECT_EQ(out->workload.queries()[0].id, "T1");
  EXPECT_DOUBLE_EQ(out->workload.queries()[0].weight, 10.0);
  EXPECT_DOUBLE_EQ(out->workload.TotalQueryWeight(), 17.0);
}

TEST(CompressTest, ZeroCostClustersFallBackToFrequencyWeight) {
  std::vector<CaptureRecord> records;
  records.push_back(Rec("for $i in doc(\"c\")/a/b return $i", 0.0));
  records.push_back(Rec("for $i in doc(\"c\")/a/b return $i", 0.0));
  Result<CompressedWorkload> out = CompressLog(records);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->workload.size(), 1u);
  EXPECT_DOUBLE_EQ(out->workload.queries()[0].weight, 2.0);
}

TEST(CompressTest, WorkloadFromLogKeepsEveryRecordAtWeightOne) {
  Result<Workload> raw = WorkloadFromLog(MixedLog());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->size(), 6u);
  EXPECT_EQ(raw->queries()[0].id, "R1");
  EXPECT_DOUBLE_EQ(raw->TotalQueryWeight(), 6.0);
}

// Same log contents → byte-identical compressed workload, no matter how
// capture threads interleaved the appends.
TEST(CompressTest, DeterministicAcrossCaptureThreadCounts) {
  std::vector<CaptureRecord> base = MixedLog();
  auto compress_with_threads = [&](int threads) -> std::string {
    QueryLog log(1024);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t]() {
        // Interleave: each thread appends a strided slice.
        for (size_t i = static_cast<size_t>(t); i < base.size();
             i += static_cast<size_t>(threads)) {
          CaptureRecord r = base[i];
          EXPECT_TRUE(log.Append(std::move(r)).ok());
        }
      });
    }
    for (std::thread& w : workers) w.join();
    Result<CompressedWorkload> out = CompressLog(log.Snapshot());
    EXPECT_TRUE(out.ok());
    if (!out.ok()) return "";
    return out->report.ToString() + "===\n" + out->workload.Describe();
  };
  std::string serial = compress_with_threads(1);
  std::string parallel = compress_with_threads(4);
  EXPECT_EQ(serial, parallel);
}

// An injected capture failure drops a deterministic record (failpoints
// match on the sequence argument), so compression stays reproducible
// under failure injection too.
TEST(CompressTest, DeterministicUnderInjectedCaptureFailure) {
  std::vector<CaptureRecord> base = MixedLog();
  auto run = [&]() -> std::string {
    QueryLog log(1024);
    fp::FailSpec spec;
    spec.code = StatusCode::kInternal;
    spec.match_arg = 1;  // Drop the second capture, every run.
    fp::ScopedFailpoint guard("wlm.capture.append", spec);
    for (const CaptureRecord& r : base) {
      CaptureRecord copy = r;
      (void)log.Append(std::move(copy));
    }
    EXPECT_EQ(log.Snapshot().size(), base.size() - 1);
    Result<CompressedWorkload> out = CompressLog(log.Snapshot());
    EXPECT_TRUE(out.ok());
    if (!out.ok()) return "";
    return out->report.ToString() + "===\n" + out->workload.Describe();
  };
  EXPECT_EQ(run(), run());
}

// ----------------------------------------------------------- Capture IO.

class WlmIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wlm_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
};

TEST_F(WlmIoTest, SaveLoadRoundTripsRecordsAndRecomputesFingerprints) {
  std::vector<CaptureRecord> records = MixedLog();
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].seq = i;
    records[i].timestamp_micros = 1700000000000000 + static_cast<int64_t>(i);
  }
  records[0].est_cost = 1.0 / 3.0;  // Needs round-trip float precision.
  std::string path = (dir_ / "log.wlm").string();
  ASSERT_TRUE(SaveCaptureLogFile(records, path).ok());
  Result<std::vector<CaptureRecord>> loaded = LoadCaptureLogFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*loaded)[i].seq, records[i].seq);
    EXPECT_EQ((*loaded)[i].timestamp_micros, records[i].timestamp_micros);
    EXPECT_DOUBLE_EQ((*loaded)[i].est_cost, records[i].est_cost);
    EXPECT_EQ((*loaded)[i].text, records[i].text);
    // Fingerprints come from re-parsing, never from the file — and they
    // must agree with what capture computed.
    EXPECT_EQ((*loaded)[i].fingerprint, records[i].fingerprint);
  }
}

TEST_F(WlmIoTest, TornWriteLeavesNoFinalFile) {
  std::string path = (dir_ / "torn.wlm").string();
  fp::FailSpec spec;
  spec.code = StatusCode::kInternal;
  fp::ScopedFailpoint guard("wlm.log_io.write", spec);
  EXPECT_FALSE(SaveCaptureLogFile(MixedLog(), path).ok());
  // Write-temp-then-rename: neither the final file nor the temp survives.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(WlmIoTest, ParseRejectsGarbageWithLineNumbers) {
  EXPECT_FALSE(ParseCaptureLog("bogus 1 2 3 query").ok());
  EXPECT_FALSE(ParseCaptureLog("rec nonsense 2 3 query").ok());
  EXPECT_FALSE(ParseCaptureLog("rec 1 2 3").ok());  // Missing text.
  // Unparseable query text is rejected (fingerprints are recomputed).
  EXPECT_FALSE(ParseCaptureLog("rec 1 2 3 not a query").ok());
  // Comments and blank lines are fine.
  Result<std::vector<CaptureRecord>> ok = ParseCaptureLog(
      "# header\n\nrec 1 2 3 for $i in doc(\"c\")/a/b return $i\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 1u);
  Status bad = ParseCaptureLog("rec 1 2\n").status();
  EXPECT_NE(bad.message().find("line 1"), std::string::npos);
}

// ------------------------------------ Compressed advising (acceptance).

class WlmAdvisingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 6, params, 42).ok());
  }

  AdvisorOptions Options(int threads) {
    AdvisorOptions options;
    options.space_budget_bytes = 512.0 * 1024;
    options.threads = threads;
    return options;
  }

  Database db_;
  Catalog catalog_;
  CostModel cost_model_;
};

// The headline property: a 10×-duplicated stream advised via capture +
// compression equals advising the hand-built deduplicated weighted
// workload bit-for-bit, at ≥5× fewer what-if cost requests than advising
// the raw log.
TEST_F(WlmAdvisingTest, CompressedAdvisingMatchesHandWeightedWorkload) {
  const std::vector<std::string> templates = {
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 5 return $i/name",
      "for $i in doc(\"xmark\")/site/regions/asia/item "
      "where $i/price < 50 return $i/name",
      "for $o in doc(\"xmark\")/site/open_auctions/open_auction "
      "where $o/current > 100 return $o",
  };

  // Capture each query 10× with the cost the what-if path estimates.
  QueryLog log(4096);
  uint64_t captured_before =
      obs::Registry().TakeSnapshot().counter("wlm.captured");
  {
    WhatIfSession session(&db_, catalog_, cost_model_, /*threads=*/1);
    for (int round = 0; round < 10; ++round) {
      for (const std::string& text : templates) {
        Query query = Parse(text);
        Result<QueryPlan> plan = session.ExplainQuery(query);
        ASSERT_TRUE(plan.ok());
        ASSERT_TRUE(log.Append(QueryRecord(query, plan->total_cost)).ok());
      }
    }
  }
  EXPECT_EQ(obs::Registry().TakeSnapshot().counter("wlm.captured") -
                captured_before,
            30u);
  std::vector<CaptureRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 30u);

  // Compress: 3 templates, frequency 10 each.
  Result<CompressedWorkload> compressed = CompressLog(records);
  ASSERT_TRUE(compressed.ok());
  ASSERT_EQ(compressed->workload.size(), 3u);
  for (const TemplateCluster& c : compressed->report.clusters) {
    EXPECT_EQ(c.frequency, 10u);
    EXPECT_DOUBLE_EQ(c.weight, 10.0 * c.mean_cost);
  }

  // Hand-build the equivalent deduplicated weighted workload.
  Workload hand_built;
  size_t n = 0;
  for (const TemplateCluster& c : compressed->report.clusters) {
    ASSERT_TRUE(hand_built
                    .AddQueryText(c.representative_text, c.weight,
                                  "T" + std::to_string(++n))
                    .ok());
  }

  Result<Recommendation> from_compressed =
      Advisor(&db_, &catalog_, Options(1)).Recommend(compressed->workload);
  Result<Recommendation> from_hand_built =
      Advisor(&db_, &catalog_, Options(1)).Recommend(hand_built);
  ASSERT_TRUE(from_compressed.ok());
  ASSERT_TRUE(from_hand_built.ok());
  EXPECT_FALSE(from_compressed->indexes.empty());
  EXPECT_EQ(RecommendationSignature(*from_compressed),
            RecommendationSignature(*from_hand_built));

  // ... and at any thread count (tentpole determinism requirement).
  Result<Recommendation> compressed_mt =
      Advisor(&db_, &catalog_, Options(4)).Recommend(compressed->workload);
  ASSERT_TRUE(compressed_mt.ok());
  EXPECT_EQ(RecommendationSignature(*from_compressed),
            RecommendationSignature(*compressed_mt));

  // Efficiency: advising the raw 30-query log issues 10× the what-if
  // cost requests of the compressed 3-query workload (≥5× required).
  Result<Workload> raw = WorkloadFromLog(records);
  ASSERT_TRUE(raw.ok());
  Result<Recommendation> from_raw =
      Advisor(&db_, &catalog_, Options(1)).Recommend(*raw);
  ASSERT_TRUE(from_raw.ok());
  uint64_t raw_requests = CostRequests(*from_raw);
  uint64_t compressed_requests = CostRequests(*from_compressed);
  ASSERT_GT(compressed_requests, 0u);
  EXPECT_GE(raw_requests, 5 * compressed_requests);
  // The raw run still lands on the same physical design.
  EXPECT_FALSE(from_raw->indexes.empty());
}

// ------------------------------------------------------ Drift monitor.

TEST_F(WlmAdvisingTest, DriftMonitorTriggersOnFirstWindowThenSettles) {
  Workload workload;
  ASSERT_TRUE(workload
                  .AddQueryText(
                      "for $i in doc(\"xmark\")/site/regions/africa/item "
                      "where $i/quantity > 5 return $i/name",
                      10.0, "T1")
                  .ok());

  DriftMonitor monitor(&db_, cost_model_);
  EXPECT_FALSE(monitor.has_prediction());

  // First window: no recorded prediction — stale by definition, and
  // MaybeReadvise produces a recommendation.
  Result<ReadviseOutcome> first =
      monitor.MaybeReadvise(workload, catalog_, Options(1));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->drift.exceeded);
  ASSERT_TRUE(first->recommendation.has_value());
  EXPECT_TRUE(monitor.has_prediction());

  // Materialize nothing (catalog unchanged): the captured workload still
  // runs at baseline cost while the recommendation promised better, so
  // drift stays above any reasonable threshold and re-advising fires
  // again — the monitor is honest about unapplied recommendations.
  Result<DriftReport> stale = monitor.Check(workload, catalog_);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale->has_prediction);
  EXPECT_GT(stale->drift, 0.0);

  // Record the honest baseline (as if the DBA rejected the advice and we
  // re-promised current cost): the same workload now shows zero drift.
  Result<double> current = monitor.CurrentCost(workload, catalog_);
  ASSERT_TRUE(current.ok());
  monitor.RecordPrediction(*current, workload.TotalQueryWeight());
  Result<DriftReport> fresh = monitor.Check(workload, catalog_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NEAR(fresh->drift, 0.0, 1e-9);
  EXPECT_FALSE(fresh->exceeded);
  Result<ReadviseOutcome> settled =
      monitor.MaybeReadvise(workload, catalog_, Options(1));
  ASSERT_TRUE(settled.ok());
  EXPECT_FALSE(settled->recommendation.has_value());

  // Weight scaling: the same workload at double weight predicts double
  // cost, so drift stays zero (per-weight normalization).
  Workload doubled;
  ASSERT_TRUE(doubled
                  .AddQueryText(workload.queries()[0].text, 20.0, "T1")
                  .ok());
  Result<DriftReport> scaled = monitor.Check(doubled, catalog_);
  ASSERT_TRUE(scaled.ok());
  EXPECT_NEAR(scaled->drift, 0.0, 1e-9);
}

TEST_F(WlmAdvisingTest, DriftTripsWhenTheStreamShiftsToExpensiveQueries) {
  // A second, tiny collection: queries against it are far cheaper per
  // unit weight than xmark scans.
  ASSERT_TRUE(db_.CreateCollection("tiny").ok());
  ASSERT_TRUE(db_.LoadXml("tiny", "<r><v>1</v><v>2</v></r>").ok());
  ASSERT_TRUE(db_.Analyze("tiny").ok());

  Workload cheap;
  ASSERT_TRUE(
      cheap.AddQueryText("for $v in doc(\"tiny\")/r/v return $v", 10.0, "T1")
          .ok());
  DriftMonitor monitor(&db_, cost_model_);
  Result<double> cheap_cost = monitor.CurrentCost(cheap, catalog_);
  ASSERT_TRUE(cheap_cost.ok());
  monitor.RecordPrediction(*cheap_cost, cheap.TotalQueryWeight());

  // Same weight, but the stream moved to xmark scans: per-weight cost
  // explodes past the promise and the threshold trips.
  Workload shifted;
  ASSERT_TRUE(shifted
                  .AddQueryText(
                      "for $o in doc(\"xmark\")/site/open_auctions/"
                      "open_auction where $o/current > 100 return $o",
                      10.0, "T1")
                  .ok());
  Result<DriftReport> drifted = monitor.Check(shifted, catalog_);
  ASSERT_TRUE(drifted.ok());
  EXPECT_TRUE(drifted->exceeded) << drifted->ToString();
  EXPECT_GT(drifted->drift, DriftOptions().threshold);

  // And MaybeReadvise acts on it: a recommendation comes back and its
  // promise replaces the stale one.
  Result<ReadviseOutcome> outcome =
      monitor.MaybeReadvise(shifted, catalog_, Options(1));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->drift.exceeded);
  ASSERT_TRUE(outcome->recommendation.has_value());
  Result<DriftReport> after = monitor.Check(shifted, catalog_);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->drift, drifted->drift);
}

TEST_F(WlmAdvisingTest, DegradedOnlyPromiseIsTaggedAndHalvesThreshold) {
  Workload workload;
  ASSERT_TRUE(workload
                  .AddQueryText(
                      "for $i in doc(\"xmark\")/site/regions/africa/item "
                      "where $i/quantity > 5 return $i/name",
                      10.0, "T1")
                  .ok());
  DriftMonitor monitor(&db_, cost_model_);
  Result<double> current = monitor.CurrentCost(workload, catalog_);
  ASSERT_TRUE(current.ok());

  // A promise 15% under the running cost: between threshold/2 (10%) and
  // the full threshold (20%), so the verdict depends purely on the
  // degraded tag.
  monitor.RecordPrediction(*current / 1.15, workload.TotalQueryWeight(),
                           /*degraded=*/true);
  EXPECT_TRUE(monitor.prediction_degraded());
  Result<DriftReport> degraded = monitor.Check(workload, catalog_);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded_promise);
  EXPECT_TRUE(degraded->exceeded) << degraded->ToString();
  EXPECT_NE(degraded->ToString().find("[degraded promise]"),
            std::string::npos);

  // The identical promise from a converged advise sits below the full
  // threshold: fresh. This is the down-weighting, isolated.
  monitor.RecordPrediction(*current / 1.15, workload.TotalQueryWeight(),
                           /*degraded=*/false);
  EXPECT_FALSE(monitor.prediction_degraded());
  Result<DriftReport> converged = monitor.Check(workload, catalog_);
  ASSERT_TRUE(converged.ok());
  EXPECT_FALSE(converged->degraded_promise);
  EXPECT_FALSE(converged->exceeded) << converged->ToString();
  EXPECT_NEAR(converged->drift, degraded->drift, 1e-9);
}

TEST_F(WlmAdvisingTest, DegradedPromiseNeverOverwritesConvergedBaseline) {
  Workload workload;
  ASSERT_TRUE(workload
                  .AddQueryText(
                      "for $i in doc(\"xmark\")/site/regions/africa/item "
                      "where $i/quantity > 5 return $i/name",
                      10.0, "T1")
                  .ok());
  DriftMonitor monitor(&db_, cost_model_);
  Result<double> current = monitor.CurrentCost(workload, catalog_);
  ASSERT_TRUE(current.ok());
  monitor.RecordPrediction(*current, workload.TotalQueryWeight());

  // The pre-fix bug: a budget-truncated advise re-recording its inflated
  // promise would lower the drift bar. The degraded record must bounce
  // off the converged baseline.
  monitor.RecordPrediction(*current * 2.0, workload.TotalQueryWeight(),
                           /*degraded=*/true);
  EXPECT_FALSE(monitor.prediction_degraded());
  Result<DriftReport> report = monitor.Check(workload, catalog_);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->predicted_cost, *current, 1e-9);
  EXPECT_FALSE(report->degraded_promise);

  // A converged re-advise still updates the baseline normally.
  monitor.RecordPrediction(*current * 2.0, workload.TotalQueryWeight());
  Result<DriftReport> updated = monitor.Check(workload, catalog_);
  ASSERT_TRUE(updated.ok());
  EXPECT_NEAR(updated->predicted_cost, *current * 2.0, 1e-9);
}

TEST_F(WlmAdvisingTest, MaybeReadviseTagsTruncatedRecommendations) {
  ASSERT_TRUE(db_.CreateCollection("tiny").ok());
  ASSERT_TRUE(db_.LoadXml("tiny", "<r><v>1</v><v>2</v></r>").ok());
  ASSERT_TRUE(db_.Analyze("tiny").ok());
  Workload cheap;
  ASSERT_TRUE(
      cheap.AddQueryText("for $v in doc(\"tiny\")/r/v return $v", 10.0, "T1")
          .ok());
  DriftMonitor monitor(&db_, cost_model_);

  // First window advised under a pre-fired cancel token: the anytime
  // search returns a valid best-so-far recommendation with stop_reason
  // kCancelled, and the monitor must tag its promise as degraded.
  AdvisorOptions cancelled_options = Options(1);
  cancelled_options.cancel = CancelToken::Cancellable();
  cancelled_options.cancel.Cancel();
  Result<ReadviseOutcome> truncated =
      monitor.MaybeReadvise(cheap, catalog_, cancelled_options);
  ASSERT_TRUE(truncated.ok());
  ASSERT_TRUE(truncated->recommendation.has_value());
  EXPECT_NE(truncated->recommendation->stop_reason, StopReason::kConverged);
  EXPECT_TRUE(monitor.has_prediction());
  EXPECT_TRUE(monitor.prediction_degraded());

  // The stream shifts to expensive xmark scans, drift trips (the report
  // carries the degraded tag), and the converged re-advise replaces the
  // degraded promise.
  Workload shifted;
  ASSERT_TRUE(shifted
                  .AddQueryText(
                      "for $o in doc(\"xmark\")/site/open_auctions/"
                      "open_auction where $o/current > 100 return $o",
                      10.0, "T1")
                  .ok());
  Result<ReadviseOutcome> converged =
      monitor.MaybeReadvise(shifted, catalog_, Options(1));
  ASSERT_TRUE(converged.ok());
  EXPECT_TRUE(converged->drift.exceeded);
  EXPECT_TRUE(converged->drift.degraded_promise);
  ASSERT_TRUE(converged->recommendation.has_value());
  EXPECT_EQ(converged->recommendation->stop_reason, StopReason::kConverged);
  EXPECT_FALSE(monitor.prediction_degraded());
}

TEST_F(WlmAdvisingTest, DriftMonitorSkipsEmptyCaptureWindows) {
  DriftMonitor monitor(&db_, cost_model_);
  Workload empty;
  Result<ReadviseOutcome> outcome =
      monitor.MaybeReadvise(empty, catalog_, Options(1));
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->drift.exceeded);
  EXPECT_FALSE(outcome->recommendation.has_value());
  EXPECT_FALSE(monitor.has_prediction());
}

}  // namespace
}  // namespace wlm
}  // namespace xia
