// dml: one client interleaves reads of the XMark query mix with a seeded
// insert/update/delete mix, through a persistent StorageEngine that
// fsyncs every WAL append (the server's default), over an XMark
// collection that fits the pool, with the recommended indexes plus five
// maintenance-heavy ones. Writes take the XMark demo workload's update
// share. A checkpoint runs every kCheckpointEvery writes. At the end the
// engine is killed (no Close) and reopened, and the reopened state must
// match the pre-kill fingerprint.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <unordered_map>

#include "dml/dml.h"
#include "harness.h"
#include "index/index_builder.h"
#include "storage/storage_engine.h"
#include "workload/xmark_queries.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace perfbench {
namespace {

using namespace xia;
namespace fs = std::filesystem;

// ≈35 pages per document: 40 documents fit the 4096-page pool.
constexpr int kDocs = 40;
// Odd, for the same reason as the query mix.
constexpr size_t kMixSize = 25;
// Pre-generated documents inserts and updates cycle through.
constexpr int kNewDocs = 64;
constexpr int kCheckpointEvery = 128;
// Writes (and reads) whose counters must repeat exactly for a seed;
// below kCheckpointEvery so the WAL growth they cause is all in one log.
constexpr int kPrefixWrites = 96;
// Writes after the final checkpoint, replayed by recovery.
constexpr int kTailWrites = 32;
constexpr int kReopens = 3;
// The update rate the XMark demo pipeline advises with
// (bench/bench_fig1_pipeline.cc, examples/xmark_advisor.cpp).
constexpr double kDemoUpdateRate = 0.2;

/// bench_maintenance's index set: maintenance-heavy patterns.
struct Spec {
  const char* pattern;
  ValueType type;
};
constexpr Spec kMaintenanceSpecs[] = {
    {"/site/regions/*/item/quantity", ValueType::kDouble},
    {"/site/regions/*/item", ValueType::kVarchar},
    {"/site/open_auctions/open_auction/bidder/increase", ValueType::kDouble},
    {"/site/people/person/profile/@income", ValueType::kDouble},
    {"//date", ValueType::kVarchar},
};

/// The database and its indexes as set-up leaves them (without storage).
Status BuildData(Database* db, Catalog* catalog,
                 double* materialize_ms = nullptr) {
  XIA_RETURN_IF_ERROR(
      PopulateXMark(db, "xmark", kDocs, XMarkParams(), kDataSeed));
  XIA_RETURN_IF_ERROR(AdviseAndMaterialize(
      db, catalog, MakeXMarkWorkload("xmark"), materialize_ms));
  StorageConstants constants;
  for (const Spec& spec : kMaintenanceSpecs) {
    IndexDefinition def;
    def.collection = "xmark";
    XIA_ASSIGN_OR_RETURN(def.pattern, ParsePathPattern(spec.pattern));
    def.type = spec.type;
    def.name = catalog->UniqueName(def.pattern);
    XIA_ASSIGN_OR_RETURN(PathIndex built, BuildIndex(*db, def));
    XIA_RETURN_IF_ERROR(catalog->AddPhysical(
        std::make_shared<PathIndex>(std::move(built)), constants));
  }
  return Status::Ok();
}

struct Fixture {
  std::string dir;
  Database db;
  Catalog catalog;
  double materialize_ms = 0;
  std::unique_ptr<storage::StorageEngine> engine;

  ~Fixture() {
    engine.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

std::unique_ptr<Fixture> BuildFixture(const std::string& dir) {
  auto f = std::make_unique<Fixture>();
  f->dir = dir;
  std::error_code ec;
  fs::remove_all(dir, ec);
  Status status = BuildData(&f->db, &f->catalog, &f->materialize_ms);
  if (status.ok()) {
    // A fresh directory adopts the loaded state as checkpoint 1.
    Result<std::unique_ptr<storage::StorageEngine>> opened =
        storage::StorageEngine::Open(dir, &f->db, &f->catalog, nullptr,
                                     StorageConstants());
    if (opened.ok()) {
      f->engine = std::move(*opened);
    } else {
      status = opened.status();
    }
  }
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return nullptr;
  }
  return f;
}

/// Writes' share of operations: the update weight of the XMark demo
/// workload over its query plus update weight (2.6 of 23.6).
double DemoWriteShare() {
  Workload demo = MakeXMarkWorkload("xmark");
  AddXMarkUpdates(&demo, "xmark", kDemoUpdateRate);
  double update_weight = 0;
  for (const UpdateOp& op : demo.updates()) update_weight += op.weight;
  return update_weight / (demo.TotalQueryWeight() + update_weight);
}

enum class WriteKind { kInsert = 0, kUpdate = 1, kDelete = 2 };

/// One write as issued, for the replica replay.
struct WriteRecord {
  WriteKind kind;
  DocId target;
  size_t xml;  // Index into the new documents (unused by deletes).
  DocId doc;   // The document the engine reported.
  bool traced;
};

}  // namespace

int RunDml(const Args& args, Report* report) {
  int setup_round = 0;
  std::unique_ptr<Fixture> f;
  double setup_s = RepeatSetup(&f, [&] {
    return BuildFixture(args.work_dir + "/dml-" +
                        std::to_string(setup_round++));
  });
  if (f == nullptr) return 1;
  report->Set("setup_s", setup_s, "s");
  report->Set("data.pages",
              static_cast<double>(CollectionPages(f->db, "xmark")), "pages");

  // Inputs: the read mix and the documents writes carry.
  std::vector<std::string> mix = MakeReadMix(false, kMixSize);
  std::vector<std::string> new_docs =
      MakeXMarkDocs(kDataSeed + 1, kNewDocs);
  std::vector<DocId> live;
  std::unordered_map<DocId, size_t> xml_bytes;  // Live documents' sizes.
  {
    const Collection* coll = f->db.GetCollection("xmark");
    for (size_t i = 0; i < coll->num_docs(); ++i) {
      DocId id = static_cast<DocId>(i);
      live.push_back(id);
      xml_bytes[id] = SerializeDocument(coll->doc(id), f->db.names()).size();
    }
  }

  BufferPool pool(kPoolPages);
  ContainmentCache cache;
  MixCursor read_cursor(mix.size(), args.seed);
  MixCursor write_cursor(3, args.seed + 1);
  std::mt19937_64 target_rng(args.seed + 2);
  size_t next_doc = 0;
  uint64_t writes = 0;
  int64_t excluded_ns = 0;  // Oracle time, outside the phase.
  bool auto_checkpoint = true;
  Samples checkpoint_ms;
  std::vector<WriteRecord> issued;

  ReadCounts read_prefix;
  uint64_t prefix_writes = 0;
  uint64_t prefix_entries = 0;
  uint64_t prefix_rebuilds = 0;
  uint64_t prefix_user_bytes = 0;
  uint64_t prefix_wal_bytes = 0;
  const uint64_t dir_bytes_at_start = DirBytes(f->dir);

  auto checkpoint = [&]() {
    int64_t t0 = NowNs();
    Status status = f->engine->Checkpoint();
    checkpoint_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
    if (!status.ok()) report->Fail("checkpoint: " + status.ToString());
  };

  auto do_read = [&](Tracer* tracer, Samples* samples) {
    size_t i = read_cursor.Next();
    int64_t t0 = NowNs();
    Result<ReadOutcome> out =
        RunRead(mix[i], f->db, f->catalog, &pool, &cache, tracer);
    double us = static_cast<double>(NowNs() - t0) / 1e3;
    report->Attempt();
    if (!out.ok()) {
      report->Fail("read '" + mix[i] + "': " + out.status().ToString());
      return;
    }
    // The data changes with every write: the reference is recomputed.
    int64_t oracle_start = NowNs();
    Result<ReadResultSet> ref = ScanReference(mix[i], f->db);
    excluded_ns += NowNs() - oracle_start;
    if (!ref.ok() || !(Canonical(out->result) == *ref)) {
      report->Fail("read '" + mix[i] + "' differs from its scan plan");
      return;
    }
    samples->Add(us);
    if (read_prefix.reads < static_cast<uint64_t>(kPrefixWrites)) {
      read_prefix.Add(*out);
    }
  };

  auto do_write = [&](Tracer* tracer, Samples* samples) {
    WriteKind kind = static_cast<WriteKind>(write_cursor.Next());
    DocId target = live[target_rng() % live.size()];
    size_t xml_index = next_doc % new_docs.size();
    const std::string& xml = new_docs[xml_index];
    if (kind != WriteKind::kDelete) ++next_doc;
    Result<dml::DmlResult> result = Status::Internal("not applied");
    int64_t t0 = NowNs();
    {
      Tracer::Scope root(tracer, "write");
      Tracer::Scope span(tracer, "storage.write");
      switch (kind) {
        case WriteKind::kInsert:
          result = f->engine->InsertDocument("xmark", xml);
          break;
        case WriteKind::kUpdate:
          result = f->engine->UpdateDocument("xmark", target, xml);
          break;
        case WriteKind::kDelete:
          result = f->engine->DeleteDocument("xmark", target);
          break;
      }
    }
    double us = static_cast<double>(NowNs() - t0) / 1e3;
    report->Attempt();
    ++writes;
    if (!result.ok()) {
      report->Fail("write: " + result.status().ToString());
      return;
    }
    uint64_t user_bytes = kind == WriteKind::kDelete ? 0 : xml.size();
    if (kind != WriteKind::kInsert) {
      live.erase(std::find(live.begin(), live.end(), target));
      xml_bytes.erase(target);
    }
    if (kind != WriteKind::kDelete) {
      live.push_back(result->doc);
      xml_bytes[result->doc] = xml.size();
    }
    if (samples != nullptr) samples->Add(us);
    if (prefix_writes < static_cast<uint64_t>(kPrefixWrites)) {
      ++prefix_writes;
      prefix_entries += result->maintenance.entries_inserted +
                        result->maintenance.entries_removed;
      prefix_rebuilds += result->synopsis_rebuilt ? 1 : 0;
      prefix_user_bytes += user_bytes;
      if (prefix_writes == static_cast<uint64_t>(kPrefixWrites)) {
        prefix_wal_bytes = DirBytes(f->dir) - dir_bytes_at_start;
      }
    }
    issued.push_back(
        {kind, target, xml_index, result->doc, tracer != nullptr});
    if (auto_checkpoint && writes % kCheckpointEvery == 0) checkpoint();
  };

  // Writes spread evenly at the demo workload's share; in a traced run
  // every other operation is traced.
  const double write_share = DemoWriteShare();
  double write_credit = 0;
  Tracer tracer;
  Samples reads;
  Samples write_samples;
  Samples traced_ops;
  int64_t start = NowNs();
  auto phase_s = [&] {
    return static_cast<double>(NowNs() - start - excluded_ns) / 1e9;
  };
  for (uint64_t op = 0; phase_s() < args.seconds; ++op) {
    bool trace_this = args.trace && op % 2 == 1;
    Tracer* t = trace_this ? &tracer : nullptr;
    write_credit += write_share;
    if (write_credit >= 1) {
      write_credit -= 1;
      do_write(t, trace_this ? &traced_ops : &write_samples);
    } else {
      do_read(t, trace_this ? &traced_ops : &reads);
    }
  }
  Samples ops;
  ops.Append(reads);
  ops.Append(write_samples);
  ReportOps(ops, args.trace ? phase_s() / 2 : phase_s(), report);

  // Final checkpoint, space, then a WAL tail the kill leaves behind.
  checkpoint();
  const uint64_t disk_bytes = DirBytes(f->dir);
  uint64_t live_bytes = 0;
  for (const auto& [doc, bytes] : xml_bytes) live_bytes += bytes;
  auto_checkpoint = false;
  for (int i = 0; i < kTailWrites; ++i) do_write(nullptr, nullptr);
  const std::string fingerprint =
      storage::StorageEngine::StateFingerprint(f->db, f->catalog);
  f->engine.reset();  // Kill: no Close(), no final checkpoint.

  Samples recover_ms;
  storage::RecoveryStats recovered;
  for (int i = 0; i < kReopens; ++i) {
    Database db;
    Catalog catalog;
    int64_t t0 = NowNs();
    Result<std::unique_ptr<storage::StorageEngine>> reopened =
        storage::StorageEngine::Open(f->dir, &db, &catalog, nullptr,
                                     StorageConstants());
    recover_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
    report->Attempt();
    if (!reopened.ok()) {
      report->Fail("reopen: " + reopened.status().ToString());
      continue;
    }
    recovered = (*reopened)->recovery();
    if (storage::StorageEngine::StateFingerprint(db, catalog) != fingerprint) {
      report->Fail("reopened state differs from the pre-kill state");
    }
    // Dropped without Close(): the next reopen replays the same WAL.
  }

  if (!args.trace) {
    report->Set("peak_rss_mb", PeakRssMb(), "MiB");
    return 0;
  }
  const double materialize_ms = f->materialize_ms;
  f.reset();

  // The same writes replayed through dml::Apply* on a memory-only replica
  // of the set-up state, after the phase so the replica does not share the
  // timed loop: it separates the apply from logging. Spans are opened for
  // the writes that were traced in the phase.
  {
    Database replica_db;
    Catalog replica_catalog;
    Status built = BuildData(&replica_db, &replica_catalog);
    if (!built.ok()) {
      std::cerr << "replica: " << built.ToString() << "\n";
      return 1;
    }
    for (const WriteRecord& w : issued) {
      Tracer* t = w.traced ? &tracer : nullptr;
      const std::string& xml = new_docs[w.xml];
      Result<dml::DmlResult> replayed = Status::Internal("not applied");
      Tracer::Scope root(t, "replica");
      if (w.kind != WriteKind::kDelete) {
        Tracer::Scope span(t, "xml.parse");
        NameTable names;
        XmlParser parser(&names);
        if (!parser.Parse(xml).ok()) report->Fail("replica: parse failed");
      }
      Tracer::Scope span(t, "dml.apply");
      switch (w.kind) {
        case WriteKind::kInsert:
          replayed = dml::ApplyInsert(&replica_db, &replica_catalog, "xmark",
                                      xml);
          break;
        case WriteKind::kUpdate:
          replayed = dml::ApplyUpdate(&replica_db, &replica_catalog, "xmark",
                                      w.target, xml);
          break;
        case WriteKind::kDelete:
          replayed = dml::ApplyDelete(&replica_db, &replica_catalog, "xmark",
                                      w.target);
          break;
      }
      if (!replayed.ok() || replayed->doc != w.doc) {
        report->Fail("replica diverged from the engine");
      }
    }
  }

  SaveTrace(args, tracer);
  report->Set("read_us_p50", reads.Quantile(0.5), "us");
  report->Set("read_us_p99", reads.Quantile(0.99), "us");
  report->Set("write_us_p50", write_samples.Quantile(0.5), "us");
  report->Set("write_us_p99", write_samples.Quantile(0.99), "us");
  ReportReadLayers(tracer, read_prefix, report);

  std::map<std::string, double> self = tracer.SelfMicros();
  std::map<std::string, uint64_t> counts = tracer.Counts();
  double traced_writes =
      static_cast<double>(std::max<uint64_t>(counts["write"], 1));
  double write_us = self["storage.write"] / traced_writes;
  double apply_us = self["dml.apply"] / traced_writes;
  report->Set("xml.parse_us",
              self["xml.parse"] /
                  static_cast<double>(std::max<uint64_t>(counts["xml.parse"], 1)),
              "us");
  report->Set("dml.apply_us", apply_us, "us");
  report->Set("storage.write_us", write_us, "us");
  report->Set("storage.wal_us", write_us - apply_us, "us");
  report->Set("dml.prefix_writes", static_cast<double>(prefix_writes),
              "count");
  report->Set("index.entries_per_write",
              static_cast<double>(prefix_entries) /
                  static_cast<double>(std::max<uint64_t>(prefix_writes, 1)),
              "ratio");
  report->Set("dml.synopsis_rebuilds", static_cast<double>(prefix_rebuilds),
              "count");
  report->Set("storage.wal_bytes_per_user_byte",
              static_cast<double>(prefix_wal_bytes) /
                  static_cast<double>(std::max<uint64_t>(prefix_user_bytes, 1)),
              "ratio");
  report->Set("storage.checkpoint_ms", checkpoint_ms.Quantile(0.5), "ms");
  report->Set("storage.checkpoint_bytes", static_cast<double>(disk_bytes),
              "bytes");
  report->Set("storage.disk_bytes_per_user_byte",
              static_cast<double>(disk_bytes) /
                  static_cast<double>(std::max<uint64_t>(live_bytes, 1)),
              "ratio");
  report->Set("storage.recover_ms", recover_ms.Quantile(0.5), "ms");
  report->Set("storage.recover_pages",
              static_cast<double>(recovered.pages_read), "count");
  report->Set("storage.recover_wal_records",
              static_cast<double>(recovered.wal_records_replayed), "count");
  report->Set("index.materialize_ms", materialize_ms, "ms");
  ReportTraceOverhead(tracer, {kReadSpan, "write"}, ops.Mean(),
                      traced_ops.Mean(), report);
  return 0;
}

}  // namespace perfbench
