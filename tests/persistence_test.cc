// Crash-recovery matrix for the xia::storage persistence engine: every
// failpoint-injected "kill" (mid-WAL-append, mid-page-flush, mid-
// checkpoint-rename) is followed by a reopen that must reproduce the
// committed state bit-identically — same fingerprint, same catalog,
// same query results as a clean shutdown.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "exec/executor.h"
#include "index/ddl.h"
#include "index/index_builder.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "random_document.h"
#include "storage/page.h"
#include "storage/wal.h"
#include "storage/storage_engine.h"
#include "xml/parser.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace {

namespace fs = std::filesystem;
using storage::RecoveryStats;
using storage::StorageEngine;
using storage::StorageOptions;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string db_dir() const { return (path_ / "db").string(); }

 private:
  fs::path path_;
};

/// One open database: the in-memory objects plus the engine over them.
struct Instance {
  Database db;
  Catalog catalog;
  BufferPool pool{100000};
  CostModel cost_model;
  std::unique_ptr<StorageEngine> engine;

  Status OpenIn(const std::string& dir) {
    Result<std::unique_ptr<StorageEngine>> opened = StorageEngine::Open(
        dir, &db, &catalog, &pool, cost_model.storage, StorageOptions{});
    if (!opened.ok()) return opened.status();
    engine = std::move(*opened);
    return Status::Ok();
  }

  std::string Fingerprint() const {
    return StorageEngine::StateFingerprint(db, catalog);
  }
};

constexpr const char* kDocA = "<site><item><price>10</price></item></site>";
constexpr const char* kDocB =
    "<site><item><price>20</price><name>n&amp;1</name></item></site>";
constexpr const char* kDdl =
    "CREATE INDEX price_idx ON docs(doc) GENERATE KEY USING XMLPATTERN "
    "'/site/item/price' AS SQL DOUBLE";

/// Applies the canonical mutation sequence used across the matrix.
void ApplyBaseline(Instance* inst) {
  ASSERT_TRUE(inst->engine->CreateCollection("docs").ok());
  ASSERT_TRUE(inst->engine->InsertDocument("docs", kDocA).ok());
  ASSERT_TRUE(inst->engine->InsertDocument("docs", kDocB).ok());
  ASSERT_TRUE(inst->engine->Analyze("docs").ok());
  Result<std::string> idx = inst->engine->CreateIndex(kDdl);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, "price_idx");
}

TEST(PersistenceTest, FreshOpenCreatesEpochOneLayout) {
  ScratchDir dir("xia_persist_fresh");
  Instance inst;
  ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
  EXPECT_FALSE(inst.engine->recovery().opened_existing);
  EXPECT_EQ(inst.engine->epoch(), 1u);
  EXPECT_TRUE(fs::exists(fs::path(dir.db_dir()) / "MANIFEST"));
  EXPECT_TRUE(fs::exists(fs::path(dir.db_dir()) / "pages.1.xdb"));
  EXPECT_TRUE(fs::exists(fs::path(dir.db_dir()) / "wal.1.log"));
}

TEST(PersistenceTest, WalReplayReproducesUncheckpointedMutations) {
  ScratchDir dir("xia_persist_replay");
  std::string fingerprint;
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ApplyBaseline(&inst);
    fingerprint = inst.Fingerprint();
    // Killed without Close(): everything lives only in the WAL.
  }
  Instance reopened;
  ASSERT_TRUE(reopened.OpenIn(dir.db_dir()).ok());
  const RecoveryStats& stats = reopened.engine->recovery();
  EXPECT_TRUE(stats.opened_existing);
  EXPECT_TRUE(stats.wal_was_clean);
  EXPECT_EQ(stats.wal_records_replayed, 5u);
  EXPECT_EQ(reopened.Fingerprint(), fingerprint);
  // The replayed catalog is live, not just equal: the index answers.
  const CatalogEntry* entry = reopened.catalog.Find("price_idx");
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->is_virtual);
  EXPECT_EQ(entry->physical->num_entries(), 2u);
  EXPECT_NE(reopened.db.synopsis("docs"), nullptr);
}

// No live mutation writes kAddDocument (`load` logs an insert), so only
// a log from an older build carries it, and only this test replays one.
// Each must apply exactly as Database::LoadXml appends a document — in
// particular without index upkeep, so the document added after CREATE
// INDEX has no entry (an insert would give it one).
TEST(PersistenceTest, LegacyAddDocumentRecordsReplayAsPlainLoads) {
  ScratchDir dir("xia_persist_legacy_add");
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    inst.engine.reset();  // Kill: epoch 1 with an empty WAL.
  }
  auto record = [](uint64_t lsn, storage::WalRecordType type,
                   std::initializer_list<const char*> fields) {
    storage::BinWriter w;
    for (const char* field : fields) w.Str(field);
    storage::WalRecord r;
    r.lsn = lsn;
    r.type = type;
    r.payload = w.Take();
    return storage::EncodeWalRecord(r);
  };
  {
    using storage::WalRecordType;
    std::ofstream wal(fs::path(dir.db_dir()) / "wal.1.log",
                      std::ios::binary | std::ios::app);
    wal << record(1, WalRecordType::kCreateCollection, {"docs"})
        << record(2, WalRecordType::kAddDocument, {"docs", kDocA})
        << record(3, WalRecordType::kCreateIndex, {kDdl})
        << record(4, WalRecordType::kAddDocument, {"docs", kDocB});
  }
  Database db;
  Catalog catalog;
  ASSERT_TRUE(db.CreateCollection("docs").ok());
  ASSERT_TRUE(db.LoadXml("docs", kDocA).ok());
  Result<IndexDefinition> def = ParseIndexDdl(kDdl);
  ASSERT_TRUE(def.ok());
  Result<PathIndex> index = BuildIndex(db, *def);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(catalog
                  .AddPhysical(std::make_shared<PathIndex>(std::move(*index)),
                               CostModel().storage)
                  .ok());
  ASSERT_TRUE(db.LoadXml("docs", kDocB).ok());

  Instance reopened;
  ASSERT_TRUE(reopened.OpenIn(dir.db_dir()).ok());
  EXPECT_EQ(reopened.engine->recovery().wal_records_replayed, 4u);
  EXPECT_TRUE(reopened.engine->recovery().wal_was_clean);
  EXPECT_EQ(reopened.Fingerprint(),
            StorageEngine::StateFingerprint(db, catalog));
  EXPECT_EQ(reopened.db.GetCollection("docs")->num_docs(), 2u);
  EXPECT_EQ(reopened.catalog.Find("price_idx")->physical->num_entries(), 1u);
}

TEST(PersistenceTest, CleanCloseCheckpointsAndReopensWithEmptyWal) {
  ScratchDir dir("xia_persist_close");
  std::string fingerprint;
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ApplyBaseline(&inst);
    fingerprint = inst.Fingerprint();
    ASSERT_TRUE(inst.engine->Close().ok());
  }
  Instance reopened;
  ASSERT_TRUE(reopened.OpenIn(dir.db_dir()).ok());
  EXPECT_EQ(reopened.engine->recovery().wal_records_replayed, 0u);
  EXPECT_GT(reopened.engine->recovery().pages_read, 0u);
  EXPECT_EQ(reopened.Fingerprint(), fingerprint);
}

TEST(PersistenceTest, CheckpointAdvancesEpochAndRemovesOldFiles) {
  ScratchDir dir("xia_persist_epoch");
  Instance inst;
  ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
  ApplyBaseline(&inst);
  ASSERT_TRUE(inst.engine->Checkpoint().ok());
  EXPECT_EQ(inst.engine->epoch(), 2u);
  EXPECT_TRUE(fs::exists(fs::path(dir.db_dir()) / "pages.2.xdb"));
  EXPECT_FALSE(fs::exists(fs::path(dir.db_dir()) / "pages.1.xdb"));
  EXPECT_FALSE(fs::exists(fs::path(dir.db_dir()) / "wal.1.log"));
  // Post-checkpoint mutations land in the new WAL and still recover.
  ASSERT_TRUE(inst.engine->CreateCollection("extra").ok());
  std::string fingerprint = inst.Fingerprint();
  inst.engine.reset();  // Kill.
  Instance reopened;
  ASSERT_TRUE(reopened.OpenIn(dir.db_dir()).ok());
  EXPECT_EQ(reopened.engine->epoch(), 2u);
  EXPECT_EQ(reopened.engine->recovery().wal_records_replayed, 1u);
  EXPECT_EQ(reopened.Fingerprint(), fingerprint);
}

// ------------------------------------------------------ Crash matrix.

TEST(PersistenceTest, KillMidWalAppendRecoversCommittedPrefix) {
  ScratchDir dir("xia_persist_torn_wal");
  std::string committed_fingerprint;
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ASSERT_TRUE(inst.engine->CreateCollection("docs").ok());
    ASSERT_TRUE(inst.engine->InsertDocument("docs", kDocA).ok());
    committed_fingerprint = inst.Fingerprint();

    // The next append (lsn 3) dies halfway through its record write.
    fp::FailSpec spec;
    spec.match_arg = 3;
    fp::ScopedFailpoint crash("storage.wal.append", spec);
    EXPECT_FALSE(inst.engine->InsertDocument("docs", kDocB).ok());
    // The writer is poisoned, as a crashed process would be gone.
    EXPECT_FALSE(inst.engine->CreateCollection("more").ok());
    // Kill without Close(), leaving the torn record on disk.
  }
  uint64_t truncations_before =
      obs::Registry().TakeSnapshot().counter("storage.wal.truncated_tails");
  Instance reopened;
  ASSERT_TRUE(reopened.OpenIn(dir.db_dir()).ok());
  const RecoveryStats& stats = reopened.engine->recovery();
  EXPECT_FALSE(stats.wal_was_clean);
  EXPECT_GT(stats.wal_torn_bytes, 0u);
  EXPECT_EQ(stats.wal_records_replayed, 2u);
  EXPECT_EQ(reopened.Fingerprint(), committed_fingerprint);
  EXPECT_EQ(
      obs::Registry().TakeSnapshot().counter("storage.wal.truncated_tails"),
      truncations_before + 1);
  // The truncated WAL accepts new appends and they survive another trip.
  ASSERT_TRUE(reopened.engine->InsertDocument("docs", kDocB).ok());
  std::string extended = reopened.Fingerprint();
  reopened.engine.reset();
  Instance again;
  ASSERT_TRUE(again.OpenIn(dir.db_dir()).ok());
  EXPECT_TRUE(again.engine->recovery().wal_was_clean);
  EXPECT_EQ(again.Fingerprint(), extended);
}

TEST(PersistenceTest, KillMidCheckpointFlushKeepsPreviousEpoch) {
  ScratchDir dir("xia_persist_flush_crash");
  std::string fingerprint;
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ApplyBaseline(&inst);
    fingerprint = inst.Fingerprint();
    fp::ScopedFailpoint crash("storage.checkpoint.flush", fp::FailSpec{});
    EXPECT_FALSE(inst.engine->Checkpoint().ok());
    EXPECT_EQ(inst.engine->epoch(), 1u);  // Swap never happened.
  }
  // The torn page file was discarded; epoch 1 recovers via its WAL.
  EXPECT_FALSE(fs::exists(fs::path(dir.db_dir()) / "pages.2.xdb"));
  Instance reopened;
  ASSERT_TRUE(reopened.OpenIn(dir.db_dir()).ok());
  EXPECT_EQ(reopened.engine->epoch(), 1u);
  EXPECT_EQ(reopened.engine->recovery().wal_records_replayed, 5u);
  EXPECT_EQ(reopened.Fingerprint(), fingerprint);
}

TEST(PersistenceTest, KillBeforeManifestSwapKeepsPreviousEpoch) {
  ScratchDir dir("xia_persist_rename_crash");
  std::string fingerprint;
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ApplyBaseline(&inst);
    fingerprint = inst.Fingerprint();
    fp::ScopedFailpoint crash("storage.checkpoint.rename", fp::FailSpec{});
    EXPECT_FALSE(inst.engine->Checkpoint().ok());
  }
  // New-epoch files exist but MANIFEST still names epoch 1: the stale
  // files are invisible to recovery and overwritten by the next
  // successful checkpoint.
  EXPECT_TRUE(fs::exists(fs::path(dir.db_dir()) / "pages.2.xdb"));
  Instance reopened;
  ASSERT_TRUE(reopened.OpenIn(dir.db_dir()).ok());
  EXPECT_EQ(reopened.engine->epoch(), 1u);
  EXPECT_EQ(reopened.Fingerprint(), fingerprint);
  ASSERT_TRUE(reopened.engine->Checkpoint().ok());
  EXPECT_EQ(reopened.engine->epoch(), 2u);
  EXPECT_EQ(reopened.Fingerprint(), fingerprint);
}

TEST(PersistenceTest, CorruptedPageFailsRecoveryWithChecksumError) {
  ScratchDir dir("xia_persist_bitflip");
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ApplyBaseline(&inst);
    ASSERT_TRUE(inst.engine->Close().ok());
  }
  const std::string pages = (fs::path(dir.db_dir()) / "pages.2.xdb").string();
  ASSERT_TRUE(fs::exists(pages));
  {
    std::fstream f(pages, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(storage::kPageSize) + 100);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(storage::kPageSize) + 100);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  uint64_t failures_before = obs::Registry().TakeSnapshot().counter(
      "storage.pages.checksum_failures");
  Instance reopened;
  Status status = reopened.OpenIn(dir.db_dir());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("checksum"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(obs::Registry().TakeSnapshot().counter(
                "storage.pages.checksum_failures"),
            failures_before + 1);
}

// ------------------------------------------- Region-encoding validation.

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// A checkpoint whose pages are intact (valid CRCs) but whose node array
// breaks the region encoding is refused with a Status naming the
// collection, before the evaluator could index past the array.
TEST(PersistenceTest, BrokenRegionEncodingFailsLoadNamingCollection) {
  ScratchDir dir("xia_persist_regions_broken");
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ASSERT_TRUE(inst.engine->CreateCollection("docs").ok());
    ASSERT_TRUE(inst.engine->InsertDocument("docs", "<a><b/></a>").ok());
    ASSERT_TRUE(inst.engine->Close().ok());
  }
  const std::string pages = (fs::path(dir.db_dir()) / "pages.2.xdb").string();
  std::string image = ReadFileBytes(pages);
  // SerializeCollection layout: analyzed u8, doc count u32, then per
  // document live u8 + node count u32 and per node kind u8, name,
  // parent, first_child, next_sibling i32, begin u32, end u32, level
  // u16, value (u32 length + bytes). Both nodes here have empty values,
  // so node 1's begin sits at 10 + 31 + 17.
  constexpr size_t kNode1Begin = 10 + 31 + 17;
  std::string rebuilt;
  bool patched = false;
  for (uint64_t p = 0; p < storage::PageCount(image); ++p) {
    Result<storage::PageView> page = storage::ReadPage(image, p);
    ASSERT_TRUE(page.ok());
    std::string payload(page->payload);
    if (page->type == storage::PageType::kNodes) {
      ASSERT_GT(payload.size(), kNode1Begin + 4);
      uint32_t begin = 0;
      std::memcpy(&begin, payload.data() + kNode1Begin, 4);
      ASSERT_EQ(begin, 1u);  // The layout above is what was written.
      payload[kNode1Begin] = 0;  // Node 1 now claims begin 0.
      patched = true;
    }
    storage::AppendPage(&rebuilt, p, page->type, payload);
  }
  ASSERT_TRUE(patched);
  std::ofstream(pages, std::ios::binary | std::ios::trunc) << rebuilt;

  Instance reopened;
  Status status = reopened.OpenIn(dir.db_dir());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("collection docs"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("begin"), std::string::npos)
      << status.ToString();
}

// Every checkpoint of DocumentBuilder-built documents still opens: random
// trees (nested same-name elements, attributes, text), tombstoned slots
// and XMark documents all reload to the same state.
TEST(PersistenceTest, BuilderDocumentsReopenIdentically) {
  ScratchDir dir("xia_persist_regions_ok");
  std::string fingerprint;
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    Result<Collection*> coll = inst.db.CreateCollection("random");
    ASSERT_TRUE(coll.ok());
    Random rng(515);
    for (int d = 0; d < 40; ++d) {
      (*coll)->Add(RandomDocument(inst.db.mutable_names(), &rng));
    }
    ASSERT_TRUE((*coll)->Delete(3).ok());
    ASSERT_TRUE((*coll)->Delete(39).ok());
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&inst.db, "xmark", 3, params, 42).ok());
    ASSERT_TRUE(inst.engine->Checkpoint().ok());
    fingerprint = inst.Fingerprint();
  }
  Instance reopened;
  Status status = reopened.OpenIn(dir.db_dir());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reopened.Fingerprint(), fingerprint);
  EXPECT_EQ(reopened.db.GetCollection("random")->num_live_docs(), 38u);
}

/// Per-node footprint sum, the definition Document::ByteSize() caches.
size_t NodeSum(const Document& doc) {
  size_t total = 0;
  for (const XmlNode& n : doc.nodes()) {
    total += sizeof(XmlNode) + n.value.size();
  }
  return total;
}

/// Collection::ByteSize() recomputed from its live documents.
size_t LiveSum(const Collection& coll) {
  size_t total = 0;
  for (const Document& doc : coll.docs()) {
    if (coll.IsLive(doc.id())) total += NodeSum(doc);
  }
  return total;
}

// The byte size fixed at build time equals the per-node sum for built,
// parsed, tombstoned and checkpoint-reloaded documents, and collection
// totals stay exact through a DML burst.
TEST(PersistenceTest, ByteSizeIsPerNodeSumAcrossLifecycle) {
  NameTable names;
  Random rng(8);
  Document built = RandomDocument(&names, &rng);
  EXPECT_EQ(built.ByteSize(), NodeSum(built));
  XmlParser parser(&names);
  Result<Document> parsed = parser.Parse(kDocB);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ByteSize(), NodeSum(*parsed));

  ScratchDir dir("xia_persist_bytesize");
  size_t total = 0;
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ASSERT_TRUE(inst.engine->CreateCollection("docs").ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(inst.engine->InsertDocument("docs", i % 2 ? kDocA : kDocB)
                      .ok());
    }
    ASSERT_TRUE(inst.engine->DeleteDocument("docs", 1).ok());
    ASSERT_TRUE(inst.engine->UpdateDocument("docs", 2, kDocA).ok());
    ASSERT_TRUE(inst.engine->DeleteDocument("docs", 4).ok());
    ASSERT_TRUE(inst.engine->InsertDocument("docs", kDocB).ok());
    const Collection& coll = *inst.db.GetCollection("docs");
    ASSERT_FALSE(coll.IsLive(1));
    EXPECT_EQ(coll.doc(1).ByteSize(), 0u);  // Tombstone.
    for (const Document& doc : coll.docs()) {
      EXPECT_EQ(doc.ByteSize(), NodeSum(doc)) << doc.id();
    }
    total = coll.ByteSize();
    EXPECT_EQ(total, LiveSum(coll));
    ASSERT_TRUE(inst.engine->Close().ok());
  }
  Instance reopened;
  ASSERT_TRUE(reopened.OpenIn(dir.db_dir()).ok());
  const Collection& coll = *reopened.db.GetCollection("docs");
  for (const Document& doc : coll.docs()) {
    EXPECT_EQ(doc.ByteSize(), NodeSum(doc)) << doc.id();
  }
  EXPECT_EQ(coll.ByteSize(), total);
  EXPECT_EQ(coll.ByteSize(), LiveSum(coll));
}

// ------------------------------------------- Queries over reloaded data.

TEST(PersistenceTest, BulkLoadCheckpointThenQueriesAreBitIdentical) {
  ScratchDir dir("xia_persist_xmark");
  constexpr const char* kQuery =
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 5 return $i/name";
  Result<ExecResult> before = Status::Internal("not run");
  std::string fingerprint;
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    // Generating straight into the Database writes no WAL record, so the
    // explicit Checkpoint() is what makes it durable (the gen and loadcoll
    // verbs get that checkpoint from StorageEngine::BulkLoad).
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&inst.db, "xmark", 10, params, 42).ok());
    ASSERT_TRUE(inst.engine->Analyze("xmark").ok());
    ASSERT_TRUE(
        inst.engine
            ->CreateIndex(
                "CREATE INDEX q_idx ON xmark(doc) GENERATE KEY USING "
                "XMLPATTERN '/site/regions/africa/item/quantity' AS SQL "
                "DOUBLE")
            .ok());
    ASSERT_TRUE(inst.engine->Checkpoint().ok());
    fingerprint = inst.Fingerprint();

    Result<Query> q = ParseQuery(kQuery);
    ASSERT_TRUE(q.ok());
    Optimizer opt(&inst.db, inst.cost_model);
    ContainmentCache cache;
    Result<QueryPlan> plan = opt.Optimize(*q, inst.catalog, &cache);
    ASSERT_TRUE(plan.ok());
    Executor exec(&inst.db, &inst.catalog, inst.cost_model, &inst.pool);
    before = exec.Execute(*plan);
    ASSERT_TRUE(before.ok());
  }
  Instance reopened;
  ASSERT_TRUE(reopened.OpenIn(dir.db_dir()).ok());
  EXPECT_EQ(reopened.Fingerprint(), fingerprint);
  Result<Query> q = ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());
  Optimizer opt(&reopened.db, reopened.cost_model);
  ContainmentCache cache;
  Result<QueryPlan> plan = opt.Optimize(*q, reopened.catalog, &cache);
  ASSERT_TRUE(plan.ok());
  Executor exec(&reopened.db, &reopened.catalog, reopened.cost_model,
                &reopened.pool);
  Result<ExecResult> after = exec.Execute(*plan);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->nodes, before->nodes);  // Bit-identical results.
}

// --------------------------------------------------- Pool accounting.

TEST(PersistenceTest, ColdOpenMissesWarmOpenHitsInBufferPool) {
  ScratchDir dir("xia_persist_pool");
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ApplyBaseline(&inst);
    ASSERT_TRUE(inst.engine->Close().ok());
  }
  // Cold: a fresh pool has every checkpoint page missing.
  Database db_cold;
  Catalog cat_cold;
  BufferPool pool(100000);
  CostModel cost_model;
  Result<std::unique_ptr<StorageEngine>> cold = StorageEngine::Open(
      dir.db_dir(), &db_cold, &cat_cold, &pool, cost_model.storage,
      StorageOptions{});
  ASSERT_TRUE(cold.ok());
  uint64_t cold_misses = pool.misses();
  uint64_t pages = (*cold)->recovery().pages_read;
  EXPECT_GT(pages, 0u);
  EXPECT_GE(cold_misses, pages);
  EXPECT_EQ(pool.hits(), 0u);
  // Warm: the same pool already holds the pages.
  Database db_warm;
  Catalog cat_warm;
  Result<std::unique_ptr<StorageEngine>> warm = StorageEngine::Open(
      dir.db_dir(), &db_warm, &cat_warm, &pool, cost_model.storage,
      StorageOptions{});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(pool.misses(), cold_misses);  // No new misses.
  EXPECT_EQ(pool.hits(), pages);
  EXPECT_EQ(StorageEngine::StateFingerprint(db_warm, cat_warm),
            StorageEngine::StateFingerprint(db_cold, cat_cold));
}

// ------------------------------------------------------- Guard rails.

TEST(PersistenceTest, RecoveryRefusesNonEmptyDatabase) {
  ScratchDir dir("xia_persist_nonempty");
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ApplyBaseline(&inst);
    ASSERT_TRUE(inst.engine->Close().ok());
  }
  Instance dirty;
  ASSERT_TRUE(dirty.db.CreateCollection("already_here").ok());
  Status status = dirty.OpenIn(dir.db_dir());
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(PersistenceTest, MalformedXmlIsRejectedBeforeLogging) {
  ScratchDir dir("xia_persist_badxml");
  Instance inst;
  ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
  ASSERT_TRUE(inst.engine->CreateCollection("docs").ok());
  uint64_t lsn = inst.engine->next_lsn();
  EXPECT_FALSE(inst.engine->InsertDocument("docs", "<open><unclosed>").ok());
  // Nothing was logged: a record that cannot replay must never hit disk.
  EXPECT_EQ(inst.engine->next_lsn(), lsn);
  // Still healthy.
  ASSERT_TRUE(inst.engine->InsertDocument("docs", kDocA).ok());
}

TEST(PersistenceTest, TruncatedManifestFailsCleanly) {
  ScratchDir dir("xia_persist_manifest");
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ASSERT_TRUE(inst.engine->Close().ok());
  }
  const std::string manifest = (fs::path(dir.db_dir()) / "MANIFEST").string();
  // Drop the trailing "ok" line: the swap never completed.
  std::ofstream(manifest, std::ios::trunc)
      << "xia-manifest v1\nepoch 2\npages pages.2.xdb\n";
  Instance reopened;
  Status status = reopened.OpenIn(dir.db_dir());
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(status.message().empty());
}

// ---------------------------------------------------- DML write path.

TEST(PersistenceTest, DmlMutationsReplayToIdenticalFingerprint) {
  ScratchDir dir("xia_persist_dml_replay");
  std::string fingerprint;
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ApplyBaseline(&inst);
    ASSERT_TRUE(inst.engine->InsertDocument("docs", kDocA).ok());
    ASSERT_TRUE(inst.engine->DeleteDocument("docs", 0).ok());
    Result<dml::DmlResult> updated =
        inst.engine->UpdateDocument("docs", 1, kDocB);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated->doc, 3);  // Replacement under a fresh DocId.
    fingerprint = inst.Fingerprint();
    // Killed without Close(): the DML records live only in the WAL.
  }
  Instance reopened;
  ASSERT_TRUE(reopened.OpenIn(dir.db_dir()).ok());
  EXPECT_EQ(reopened.engine->recovery().wal_records_replayed, 8u);
  EXPECT_EQ(reopened.Fingerprint(), fingerprint);
  // Tombstones replay as tombstones: slots survive, liveness does not.
  Collection* coll = reopened.db.GetCollection("docs");
  ASSERT_NE(coll, nullptr);
  EXPECT_EQ(coll->num_docs(), 4u);
  EXPECT_EQ(coll->num_live_docs(), 2u);
  EXPECT_FALSE(coll->IsLive(0));
  EXPECT_FALSE(coll->IsLive(1));
  // The maintained index replays live, consistent with the visible docs.
  const CatalogEntry* entry = reopened.catalog.Find("price_idx");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->physical->num_entries(), 2u);
}

TEST(PersistenceTest, DmlMutationsSurviveCheckpointWithTombstones) {
  ScratchDir dir("xia_persist_dml_ckpt");
  constexpr const char* kQuery =
      "for $i in doc(\"docs\")/site/item where $i/price > 0 return $i";
  std::string fingerprint;
  {
    Instance inst;
    ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
    ApplyBaseline(&inst);
    ASSERT_TRUE(inst.engine->DeleteDocument("docs", 0).ok());
    ASSERT_TRUE(inst.engine->Close().ok());  // Checkpoint, empty WAL.
    fingerprint = inst.Fingerprint();
  }
  Instance reopened;
  ASSERT_TRUE(reopened.OpenIn(dir.db_dir()).ok());
  EXPECT_EQ(reopened.engine->recovery().wal_records_replayed, 0u);
  EXPECT_EQ(reopened.Fingerprint(), fingerprint);
  Collection* coll = reopened.db.GetCollection("docs");
  EXPECT_FALSE(coll->IsLive(0));
  EXPECT_TRUE(coll->IsLive(1));
  // The deleted document stays invisible to queries after recovery.
  Result<Query> q = ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());
  Optimizer opt(&reopened.db, reopened.cost_model);
  ContainmentCache cache;
  Result<QueryPlan> plan = opt.Optimize(*q, reopened.catalog, &cache);
  ASSERT_TRUE(plan.ok());
  Executor exec(&reopened.db, &reopened.catalog, reopened.cost_model,
                &reopened.pool);
  Result<ExecResult> result = exec.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->docs_matched, 1u);
  for (const NodeRef& ref : result->nodes) {
    EXPECT_EQ(ref.doc, 1);
  }
}

TEST(PersistenceTest, KillMidDmlAppendRecoversCommittedPrefix) {
  // One kill per DML verb: the record dies inside its WAL append, so the
  // reopened state must equal the pre-mutation fingerprint exactly.
  struct Case {
    const char* name;
    std::function<Status(Instance*)> mutate;
  };
  const Case cases[] = {
      {"insert",
       [](Instance* inst) {
         return inst->engine->InsertDocument("docs", kDocB).status();
       }},
      {"delete",
       [](Instance* inst) {
         return inst->engine->DeleteDocument("docs", 0).status();
       }},
      {"update",
       [](Instance* inst) {
         return inst->engine->UpdateDocument("docs", 0, kDocB).status();
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ScratchDir dir(std::string("xia_persist_dml_torn_") + c.name);
    std::string committed_fingerprint;
    {
      Instance inst;
      ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
      ASSERT_TRUE(inst.engine->CreateCollection("docs").ok());
      ASSERT_TRUE(inst.engine->InsertDocument("docs", kDocA).ok());
      committed_fingerprint = inst.Fingerprint();

      fp::FailSpec spec;
      spec.match_arg = inst.engine->next_lsn();
      fp::ScopedFailpoint crash("storage.wal.append", spec);
      EXPECT_FALSE(c.mutate(&inst).ok());
      // Kill without Close(), leaving the torn record on disk.
    }
    Instance reopened;
    ASSERT_TRUE(reopened.OpenIn(dir.db_dir()).ok());
    EXPECT_FALSE(reopened.engine->recovery().wal_was_clean);
    EXPECT_EQ(reopened.engine->recovery().wal_records_replayed, 2u);
    EXPECT_EQ(reopened.Fingerprint(), committed_fingerprint);
    // The mutation that died re-applies cleanly after recovery.
    Result<dml::DmlResult> retried =
        reopened.engine->InsertDocument("docs", kDocB);
    EXPECT_TRUE(retried.ok()) << retried.status().ToString();
  }
}

TEST(PersistenceTest, DmlAgainstMissingTargetsIsRejectedBeforeLogging) {
  ScratchDir dir("xia_persist_dml_reject");
  Instance inst;
  ASSERT_TRUE(inst.OpenIn(dir.db_dir()).ok());
  ASSERT_TRUE(inst.engine->CreateCollection("docs").ok());
  ASSERT_TRUE(inst.engine->InsertDocument("docs", kDocA).ok());
  uint64_t lsn = inst.engine->next_lsn();
  // Unknown collection, dead/missing DocId, malformed XML: each must be
  // refused before a WAL record exists (an unreplayable record would
  // poison every future recovery).
  EXPECT_FALSE(inst.engine->InsertDocument("nope", kDocA).ok());
  EXPECT_FALSE(inst.engine->InsertDocument("docs", "<broken").ok());
  EXPECT_FALSE(inst.engine->DeleteDocument("docs", 7).ok());
  EXPECT_FALSE(inst.engine->UpdateDocument("docs", 0, "<broken").ok());
  EXPECT_FALSE(inst.engine->UpdateDocument("docs", 7, kDocB).ok());
  EXPECT_EQ(inst.engine->next_lsn(), lsn);
  ASSERT_TRUE(inst.engine->DeleteDocument("docs", 0).ok());  // Healthy.
}

}  // namespace
}  // namespace xia
