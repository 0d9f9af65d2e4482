// xia::dml — the WAL-logged document mutation path. Covers incremental
// index + synopsis maintenance (the staleness-trap regression: estimates
// must see post-insert data without a full Analyze), tombstone
// visibility in scans and index probes, update-as-replace semantics, the
// RUNSTATS staleness fallback, DML capture through wlm (versioned log
// format, compression into UpdateOps), and the acceptance property: a
// write-heavy capture window makes maintenance-aware advising drop
// indexes a read-heavy window recommended, deterministically across
// advisor thread counts.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/whatif.h"
#include "common/metrics.h"
#include "dml/dml.h"
#include "exec/executor.h"
#include "index/index_builder.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "storage/storage_engine.h"
#include "wlm/capture.h"
#include "wlm/compress.h"
#include "wlm/drift.h"
#include "wlm/wlm_io.h"
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

Query Parse(const std::string& text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(*q);
}

uint64_t Counter(const std::string& name) {
  return obs::Registry().TakeSnapshot().counter(name);
}

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 6, params_, 42).ok());
  }

  /// A fresh generated document serialized back to XML — what a client
  /// would send over the `insert` verb.
  std::string FreshDocXml() {
    Document doc = GenerateXMarkDocument(db_.mutable_names(), params_, &rng_);
    return SerializeDocument(doc, db_.names());
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
                        cost_model_.storage)
                    .ok());
  }

  ExecResult MustRun(const Query& query, const Catalog& catalog) {
    Optimizer opt(&db_, cost_model_);
    Result<QueryPlan> plan = opt.Optimize(query, catalog, &cache_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    Executor executor(&db_, &catalog_, cost_model_);
    Result<ExecResult> result = executor.Execute(*plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(*result);
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
  ContainmentCache cache_;
  XMarkParams params_;
  Random rng_{123};
};

// --------------------------------------------- Incremental maintenance.

// The staleness-trap regression (index/maintenance.h used to document
// that the synopsis was NOT refreshed on insert): cardinality estimates
// must see a dml insert immediately, with no full Analyze in between.
TEST_F(DmlTest, InsertIsVisibleToEstimatesWithoutAnalyze) {
  const PathSynopsis* synopsis = db_.synopsis("xmark");
  ASSERT_NE(synopsis, nullptr);
  double sites_before = synopsis->EstimateCount(P("/site"));
  double items_before = synopsis->EstimateCount(P("/site/regions/*/item"));
  uint64_t nodes_before = synopsis->TotalNodes();

  Result<dml::DmlResult> inserted =
      dml::ApplyInsert(&db_, &catalog_, "xmark", FreshDocXml());
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(inserted->doc, 6);
  EXPECT_EQ(inserted->root_pattern, "/site");
  EXPECT_GT(inserted->synopsis_nodes_added, 0u);

  // No Analyze between the insert and these estimates.
  EXPECT_DOUBLE_EQ(synopsis->EstimateCount(P("/site")), sites_before + 1);
  EXPECT_GT(synopsis->EstimateCount(P("/site/regions/*/item")),
            items_before);
  EXPECT_EQ(synopsis->TotalNodes(),
            nodes_before + inserted->synopsis_nodes_added);
}

TEST_F(DmlTest, InsertMaintainsPhysicalIndexes) {
  Materialize("qty_idx", "/site/regions/*/item/quantity",
              ValueType::kDouble);
  Materialize("name_idx", "/site/regions/*/item/name", ValueType::kVarchar);
  const CatalogEntry* qty = catalog_.Find("qty_idx");
  const CatalogEntry* name = catalog_.Find("name_idx");
  size_t qty_before = qty->physical->num_entries();
  size_t name_before = name->physical->num_entries();
  uint64_t inserts_before = Counter("dml.inserts");

  Result<dml::DmlResult> inserted =
      dml::ApplyInsert(&db_, &catalog_, "xmark", FreshDocXml());
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(inserted->maintenance.indexes_touched, 2u);
  EXPECT_GT(inserted->maintenance.entries_inserted, 0u);
  EXPECT_EQ(qty->physical->num_entries() + name->physical->num_entries(),
            qty_before + name_before +
                inserted->maintenance.entries_inserted);
  EXPECT_EQ(Counter("dml.inserts"), inserts_before + 1);
}

// Incremental synopsis deltas agree with a from-scratch rebuild on every
// count-backed estimate (samples may go stale; counts must not).
TEST_F(DmlTest, IncrementalCountsMatchFullAnalyze) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        dml::ApplyInsert(&db_, &catalog_, "xmark", FreshDocXml()).ok());
  }
  ASSERT_TRUE(dml::ApplyDelete(&db_, &catalog_, "xmark", 1).ok());
  const PathSynopsis* synopsis = db_.synopsis("xmark");
  const std::vector<std::string> patterns = {
      "/site", "/site/regions/*/item", "//item/name",
      "/site/open_auctions/open_auction/bidder/increase",
      "/site/people/person/profile/@income"};
  std::vector<double> incremental;
  for (const std::string& p : patterns) {
    incremental.push_back(synopsis->EstimateCount(P(p)));
  }
  ASSERT_TRUE(db_.Analyze("xmark").ok());
  synopsis = db_.synopsis("xmark");
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_DOUBLE_EQ(synopsis->EstimateCount(P(patterns[i])),
                     incremental[i])
        << patterns[i];
  }
}

// ------------------------------------------------------- Tombstones.

TEST_F(DmlTest, DeleteHidesDocumentFromScanAndIndexProbes) {
  Materialize("qty_idx", "/site/regions/*/item/quantity",
              ValueType::kDouble);
  Query q = Parse(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 0 return $i/name");
  Catalog empty;
  ExecResult scan_before = MustRun(q, empty);
  ExecResult index_before = MustRun(q, catalog_);
  ASSERT_GT(scan_before.docs_matched, 1u);
  EXPECT_EQ(scan_before.nodes, index_before.nodes);
  bool doc0_matched = false;
  for (const NodeRef& ref : scan_before.nodes) {
    if (ref.doc == 0) doc0_matched = true;
  }
  ASSERT_TRUE(doc0_matched);

  Result<dml::DmlResult> deleted =
      dml::ApplyDelete(&db_, &catalog_, "xmark", 0);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_GT(deleted->maintenance.entries_removed, 0u);
  Collection* coll = db_.GetCollection("xmark");
  EXPECT_FALSE(coll->IsLive(0));
  EXPECT_EQ(coll->num_docs(), 6u);       // Slot kept: DocIds are stable.
  EXPECT_EQ(coll->num_live_docs(), 5u);

  // Both access paths agree the document is gone.
  ExecResult scan_after = MustRun(q, empty);
  ExecResult index_after = MustRun(q, catalog_);
  EXPECT_EQ(scan_after.nodes, index_after.nodes);
  EXPECT_LT(scan_after.docs_matched, scan_before.docs_matched);
  for (const NodeRef& ref : scan_after.nodes) {
    EXPECT_NE(ref.doc, 0);
  }

  // Double-delete and out-of-range ids fail cleanly.
  EXPECT_FALSE(dml::ApplyDelete(&db_, &catalog_, "xmark", 0).ok());
  EXPECT_FALSE(dml::ApplyDelete(&db_, &catalog_, "xmark", 99).ok());
}

TEST_F(DmlTest, UpdateReplacesUnderFreshDocId) {
  Materialize("qty_idx", "/site/regions/*/item/quantity",
              ValueType::kDouble);
  uint64_t updates_before = Counter("dml.updates");
  std::string replacement = FreshDocXml();
  Result<dml::DmlResult> updated =
      dml::ApplyUpdate(&db_, &catalog_, "xmark", 2, replacement);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  Collection* coll = db_.GetCollection("xmark");
  EXPECT_FALSE(coll->IsLive(2));            // Old id tombstoned...
  EXPECT_EQ(updated->doc, 6);               // ...content under a fresh id.
  EXPECT_TRUE(coll->IsLive(6));
  EXPECT_GT(updated->maintenance.entries_inserted, 0u);
  EXPECT_GT(updated->maintenance.entries_removed, 0u);
  EXPECT_GT(updated->synopsis_nodes_added, 0u);
  EXPECT_GT(updated->synopsis_nodes_removed, 0u);
  EXPECT_EQ(Counter("dml.updates"), updates_before + 1);

  // A failed parse of the replacement leaves the target untouched.
  EXPECT_FALSE(
      dml::ApplyUpdate(&db_, &catalog_, "xmark", 3, "<broken").ok());
  EXPECT_TRUE(coll->IsLive(3));
}

// A document that fails to parse changes nothing. The string overloads
// parse against a private name table, so the names a failed parse
// reached never join the database's table (they used to, and were then
// checkpointed), and an update whose replacement fails keeps its target.
TEST_F(DmlTest, FailedInsertOrUpdateLeavesDatabaseUnchanged) {
  Database db;
  Catalog catalog;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 2, params_, 42).ok());
  const size_t names_before = db.names().size();
  const std::string fingerprint =
      storage::StorageEngine::StateFingerprint(db, catalog);

  Result<dml::DmlResult> inserted = dml::ApplyInsert(
      &db, &catalog, "xmark", "<brand_new_root><brand_new_child>");
  EXPECT_EQ(inserted.status().code(), StatusCode::kParseError);
  Result<dml::DmlResult> updated = dml::ApplyUpdate(
      &db, &catalog, "xmark", 1, "<other_new_root><other_new_child>");
  EXPECT_EQ(updated.status().code(), StatusCode::kParseError);

  EXPECT_EQ(db.names().size(), names_before);
  EXPECT_EQ(db.names().Lookup("brand_new_root"), kNoName);
  EXPECT_EQ(storage::StorageEngine::StateFingerprint(db, catalog), fingerprint);
  EXPECT_TRUE(db.GetCollection("xmark")->IsLive(1));
}

// An applied document takes the name ids a parse straight into the
// database's table would have given it: new names are interned in the
// order the document first uses them, known names keep their ids.
TEST_F(DmlTest, InsertInternsNamesAsADirectParseWould) {
  const std::string xml =
      "<site><zz_first a_new=\"1\"><people/><zz_second>x</zz_second>"
      "</zz_first><item/></site>";
  Database direct;
  ASSERT_TRUE(PopulateXMark(&direct, "xmark", 2, params_, 42).ok());
  ASSERT_TRUE(direct.LoadXml("xmark", xml).ok());
  Database applied;
  Catalog catalog;
  ASSERT_TRUE(PopulateXMark(&applied, "xmark", 2, params_, 42).ok());
  ASSERT_TRUE(dml::ApplyInsert(&applied, &catalog, "xmark", xml).ok());

  ASSERT_EQ(applied.names().size(), direct.names().size());
  for (NameId id = 0; id < static_cast<NameId>(direct.names().size()); ++id) {
    EXPECT_EQ(applied.names().NameOf(id), direct.names().NameOf(id));
  }
  const Document& want = direct.GetCollection("xmark")->doc(2);
  const Document& got = applied.GetCollection("xmark")->doc(2);
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeIndex n = 0; n < static_cast<NodeIndex>(want.num_nodes()); ++n) {
    EXPECT_EQ(got.node(n).name, want.node(n).name) << "node " << n;
  }
  EXPECT_EQ(got.ByteSize(), want.ByteSize());
}

// The RUNSTATS fallback: once incremental deletes stale out more than
// kSynopsisStalenessBound of the node instances, the next delete
// triggers a full Analyze — deterministically in the live contents.
TEST_F(DmlTest, StalenessBoundTriggersSynopsisRebuild) {
  Database db;
  ASSERT_TRUE(db.CreateCollection("docs").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        db.LoadXml("docs", "<site><item><price>1</price></item></site>")
            .ok());
  }
  ASSERT_TRUE(db.Analyze("docs").ok());
  Catalog catalog;
  uint64_t rebuilds_before = Counter("dml.synopsis.rebuilds");

  // 1 of 4 equal-sized docs removed: 25% stale, under the 30% bound.
  Result<dml::DmlResult> first = dml::ApplyDelete(&db, &catalog, "docs", 0);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->synopsis_rebuilt);
  EXPECT_GT(db.synopsis("docs")->StalenessFraction(), 0.0);

  // 2 of 4 removed: 50% stale — the fallback rebuild fires.
  Result<dml::DmlResult> second =
      dml::ApplyDelete(&db, &catalog, "docs", 1);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->synopsis_rebuilt);
  EXPECT_EQ(Counter("dml.synopsis.rebuilds"), rebuilds_before + 1);
  EXPECT_DOUBLE_EQ(db.synopsis("docs")->StalenessFraction(), 0.0);
  EXPECT_DOUBLE_EQ(db.synopsis("docs")->EstimateCount(P("/site")), 2.0);
}

// ------------------------------------------------ DML capture + wlm IO.

TEST_F(DmlTest, DmlCaptureRoundTripsThroughVersionedLogFormat) {
  wlm::QueryLog log(64);
  for (const wlm::CaptureRecord& record :
       {wlm::DmlRecord(wlm::CaptureKind::kInsert, "xmark", "/site", 12.0),
        wlm::DmlRecord(wlm::CaptureKind::kDelete, "xmark", "/site", 8.0),
        wlm::DmlRecord(wlm::CaptureKind::kUpdate, "xmark", "/site", 20.0),
        wlm::QueryRecord(Parse("for $i in doc(\"xmark\")/site/regions/"
                               "africa/item where $i/quantity > 5 return "
                               "$i/name"),
                         3.0)}) {
    ASSERT_TRUE(log.Append(record).ok());
  }
  std::vector<wlm::CaptureRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].fingerprint, "dml:insert:xmark:/site");
  EXPECT_EQ(records[0].text, "xmark /site");

  std::string serialized = wlm::SerializeCaptureLog(records);
  Result<std::vector<wlm::CaptureRecord>> loaded =
      wlm::ParseCaptureLog(serialized);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*loaded)[i].kind, records[i].kind);
    EXPECT_EQ((*loaded)[i].text, records[i].text);
    EXPECT_EQ((*loaded)[i].fingerprint, records[i].fingerprint);
    EXPECT_DOUBLE_EQ((*loaded)[i].est_cost, records[i].est_cost);
  }

  // Version-1 logs (rec lines only) still load; malformed dml lines fail
  // with clean line-numbered errors.
  Result<std::vector<wlm::CaptureRecord>> old_format =
      wlm::ParseCaptureLog("rec 1 2 3 for $i in doc(\"c\")/a/b return $i\n");
  ASSERT_TRUE(old_format.ok());
  EXPECT_EQ((*old_format)[0].kind, wlm::CaptureKind::kQuery);
  EXPECT_FALSE(wlm::ParseCaptureLog("dml munge 1 2 3 xmark /site\n").ok());
  EXPECT_FALSE(wlm::ParseCaptureLog("dml insert 1 2 3 xmark\n").ok());
  EXPECT_FALSE(
      wlm::ParseCaptureLog("dml insert 1 2 3 xmark not[a(pattern\n").ok());
}

TEST_F(DmlTest, CompressionTurnsDmlClustersIntoUpdateOps) {
  std::vector<wlm::CaptureRecord> records;
  auto dml_rec = [](wlm::CaptureKind kind, double cost) {
    wlm::CaptureRecord r;
    r.kind = kind;
    r.text = "xmark /site";
    r.fingerprint = std::string("dml:") +
                    std::string(wlm::CaptureKindName(kind)) +
                    ":xmark:/site";
    r.est_cost = cost;
    return r;
  };
  for (int i = 0; i < 5; ++i) {
    records.push_back(dml_rec(wlm::CaptureKind::kInsert, 10.0));
  }
  for (int i = 0; i < 3; ++i) {
    records.push_back(dml_rec(wlm::CaptureKind::kUpdate, 20.0));
  }
  Result<wlm::CompressedWorkload> out = wlm::CompressLog(records);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->workload.size(), 0u);  // No queries in this stream.
  // 5 inserts -> one kInsert op (weight 5); 3 updates -> one kInsert op
  // plus one kDelete op (weight 3 each).
  const std::vector<UpdateOp>& ops = out->workload.updates();
  ASSERT_EQ(ops.size(), 3u);
  double insert_weight = 0;
  double delete_weight = 0;
  for (const UpdateOp& op : ops) {
    EXPECT_EQ(op.collection, "xmark");
    EXPECT_EQ(op.target.ToString(), "/site");
    if (op.kind == UpdateOp::Kind::kInsert) {
      insert_weight += op.weight;
    } else {
      delete_weight += op.weight;
    }
  }
  EXPECT_DOUBLE_EQ(insert_weight, 5.0 + 3.0);
  EXPECT_DOUBLE_EQ(delete_weight, 3.0);
}

// --------------------------------- Maintenance-aware advising (mix shift).

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

// The acceptance property: the same query mix advised twice — once from
// a read-heavy capture window, once from a write-heavy one — must drop
// at least one index once maintenance cost is charged, and the
// write-heavy recommendation must be bit-identical at 1 and 4 advisor
// threads.
TEST_F(DmlTest, WriteHeavyCaptureWindowDropsIndexesViaDriftReadvising) {
  const std::vector<std::string> templates = {
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 5 return $i/name",
      "for $i in doc(\"xmark\")/site/regions/asia/item "
      "where $i/price < 50 return $i/name",
      "for $o in doc(\"xmark\")/site/open_auctions/open_auction "
      "where $o/current > 100 return $o",
  };

  // Read-heavy window: queries only, at the what-if path's costs.
  wlm::QueryLog read_log(4096);
  {
    WhatIfSession session(&db_, catalog_, cost_model_, /*threads=*/1);
    for (int round = 0; round < 10; ++round) {
      for (const std::string& text : templates) {
        Query query = Parse(text);
        Result<QueryPlan> plan = session.ExplainQuery(query);
        ASSERT_TRUE(plan.ok());
        ASSERT_TRUE(
            read_log.Append(wlm::QueryRecord(query, plan->total_cost)).ok());
      }
    }
  }
  Result<wlm::CompressedWorkload> read_mix =
      wlm::CompressLog(read_log.Snapshot());
  ASSERT_TRUE(read_mix.ok());
  EXPECT_TRUE(read_mix->workload.updates().empty());

  wlm::DriftMonitor monitor(&db_, cost_model_);
  Result<wlm::ReadviseOutcome> read_outcome =
      monitor.MaybeReadvise(read_mix->workload, catalog_, Options(1));
  ASSERT_TRUE(read_outcome.ok());
  ASSERT_TRUE(read_outcome->recommendation.has_value());
  const Recommendation& read_rec = *read_outcome->recommendation;
  ASSERT_GT(read_rec.indexes.size(), 1u);
  EXPECT_DOUBLE_EQ(read_rec.update_cost, 0.0);

  // Write-heavy window: the same queries once, plus a heavy stream of
  // whole-document DML (as the server verbs capture it).
  wlm::QueryLog write_log(1 << 20);
  {
    // The ring holds all 120003 records of this window. Were it to wrap,
    // it would overwrite the oldest first, so the DML burst comes first
    // and the queries last.
    for (int i = 0; i < 60000; ++i) {
      ASSERT_TRUE(write_log
                      .Append(wlm::DmlRecord(wlm::CaptureKind::kInsert,
                                             "xmark", "/site", 50.0))
                      .ok());
      ASSERT_TRUE(write_log
                      .Append(wlm::DmlRecord(wlm::CaptureKind::kDelete,
                                             "xmark", "/site", 50.0))
                      .ok());
    }
    WhatIfSession session(&db_, catalog_, cost_model_, /*threads=*/1);
    for (const std::string& text : templates) {
      Query query = Parse(text);
      Result<QueryPlan> plan = session.ExplainQuery(query);
      ASSERT_TRUE(plan.ok());
      ASSERT_TRUE(
          write_log.Append(wlm::QueryRecord(query, plan->total_cost)).ok());
    }
  }
  Result<wlm::CompressedWorkload> write_mix =
      wlm::CompressLog(write_log.Snapshot());
  ASSERT_TRUE(write_mix.ok());
  ASSERT_FALSE(write_mix->workload.updates().empty());
  ASSERT_GT(write_mix->workload.size(), 0u) << write_mix->report.ToString();

  // The read-heavy promise is on record; the write-heavy window's drift
  // triggers re-advising with maintenance charged.
  Result<wlm::ReadviseOutcome> write_outcome =
      monitor.MaybeReadvise(write_mix->workload, catalog_, Options(1));
  ASSERT_TRUE(write_outcome.ok());
  ASSERT_TRUE(write_outcome->recommendation.has_value())
      << write_outcome->drift.ToString();
  const Recommendation& write_rec = *write_outcome->recommendation;
  EXPECT_GT(write_rec.update_cost, 0.0);

  // At least one read-heavy index is gone from the write-heavy design.
  auto contains = [](const Recommendation& rec, const IndexDefinition& def) {
    for (const IndexDefinition& have : rec.indexes) {
      if (have.pattern.ToString() == def.pattern.ToString() &&
          have.type == def.type) {
        return true;
      }
    }
    return false;
  };
  size_t dropped = 0;
  for (const IndexDefinition& def : read_rec.indexes) {
    if (!contains(write_rec, def)) ++dropped;
  }
  EXPECT_GE(dropped, 1u) << "write-heavy advising kept every index:\n"
                         << RecommendationSignature(read_rec) << "vs\n"
                         << RecommendationSignature(write_rec);

  // Determinism: the write-heavy recommendation is bit-identical at 1
  // and 4 advisor threads.
  Result<Recommendation> mt =
      Advisor(&db_, &catalog_, Options(4)).Recommend(write_mix->workload);
  ASSERT_TRUE(mt.ok());
  EXPECT_EQ(RecommendationSignature(write_rec),
            RecommendationSignature(*mt));
}

}  // namespace
}  // namespace xia
