#include "storage/storage_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/io_util.h"
#include "common/metrics.h"
#include "common/trace_span.h"
#include "index/ddl.h"
#include "index/index_builder.h"
#include "storage/page.h"

namespace xia {
namespace storage {

namespace fs = std::filesystem;

namespace {

/// One named byte stream of a checkpoint (see page.h: streams are packed
/// into runs of consecutive same-typed pages, located by the directory).
struct StreamBlob {
  std::string name;
  PageType type;
  std::string bytes;
};

std::string SerializeCollection(const Database& db, const Collection& coll) {
  BinWriter w;
  w.U8(db.synopsis(coll.name()) != nullptr ? 1 : 0);  // Analyzed?
  w.U32(static_cast<uint32_t>(coll.num_docs()));
  for (DocId id = 0; id < static_cast<DocId>(coll.num_docs()); ++id) {
    const Document& doc = coll.doc(id);
    // Tombstoned slots serialize as dead + empty: a delete's effect on
    // the checkpoint bytes is identical whether it happened live, via
    // WAL replay, or before a crash — which is what keeps
    // StateFingerprint comparisons across recovery paths meaningful.
    w.U8(coll.IsLive(id) ? 1 : 0);
    w.U32(static_cast<uint32_t>(doc.num_nodes()));
    for (const XmlNode& node : doc.nodes()) {
      w.U8(static_cast<uint8_t>(node.kind));
      w.I32(node.name);
      w.I32(node.parent);
      w.I32(node.first_child);
      w.I32(node.next_sibling);
      w.U32(node.begin);
      w.U32(node.end);
      w.U16(node.level);
      w.Str(node.value);
    }
  }
  return w.Take();
}

std::string SerializePhysicalIndex(const CatalogEntry& entry) {
  BinWriter w;
  w.Str(entry.def.DdlString());
  w.U64(entry.physical->num_entries());
  for (const PathIndex::Entry& e : entry.physical->entries()) {
    w.U8(static_cast<uint8_t>(e.key.type));
    w.F64(e.key.num);
    w.Str(e.key.str);
    w.I32(e.node.doc);
    w.I32(e.node.node);
  }
  return w.Take();
}

std::string SerializeVirtualCatalog(const Catalog& catalog) {
  std::vector<const CatalogEntry*> virtuals;
  for (const CatalogEntry* entry : catalog.AllIndexes()) {
    if (entry->is_virtual) virtuals.push_back(entry);
  }
  BinWriter w;
  w.U32(static_cast<uint32_t>(virtuals.size()));
  for (const CatalogEntry* entry : virtuals) {
    w.Str(entry->def.DdlString());
    w.F64(entry->stats.entries);
    w.F64(entry->stats.size_bytes);
    w.F64(entry->stats.leaf_pages);
    w.I32(entry->stats.height);
    w.F64(entry->stats.distinct);
    w.F64(entry->stats.avg_key_bytes);
  }
  return w.Take();
}

/// The checkpoint's logical content, in load order: names before the
/// collections that reference them, collections before the indexes built
/// over them. All orders are map-sorted, so two serializations of the
/// same logical state are byte-identical.
std::vector<StreamBlob> BuildStreams(const Database& db,
                                     const Catalog& catalog) {
  std::vector<StreamBlob> streams;

  BinWriter names;
  names.U32(static_cast<uint32_t>(db.names().size()));
  for (NameId id = 0; id < static_cast<NameId>(db.names().size()); ++id) {
    names.Str(db.names().NameOf(id));  // Id order: reload re-interns 1:1.
  }
  streams.push_back({"names", PageType::kNames, names.Take()});

  for (const std::string& name : db.CollectionNames()) {
    const Collection* coll = db.GetCollection(name);
    streams.push_back(
        {"coll:" + name, PageType::kNodes, SerializeCollection(db, *coll)});
  }

  for (const CatalogEntry* entry : catalog.AllIndexes()) {
    if (entry->is_virtual) continue;
    streams.push_back({"idx:" + entry->def.name, PageType::kIndexLeaf,
                       SerializePhysicalIndex(*entry)});
  }

  streams.push_back(
      {"catalog", PageType::kCatalog, SerializeVirtualCatalog(catalog)});
  return streams;
}

constexpr const char* kRefusedUntilCheckpoint =
    "logged mutations are refused until a checkpoint succeeds "
    "(`db checkpoint`)";

/// Each apply's wait for the exclusive apply lock, and how long it then
/// holds it. Always recorded, like the server's own lock-wait histograms.
obs::LatencyHistogram& ApplyLockWait() {
  static obs::LatencyHistogram& histogram =
      obs::Registry().GetSpanHistogram("storage.apply_lock_wait");
  return histogram;
}

obs::LatencyHistogram& ApplyHold() {
  static obs::LatencyHistogram& histogram =
      obs::Registry().GetSpanHistogram("storage.apply_hold");
  return histogram;
}

uint64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

/// The attached apply lock held exclusively for one in-memory apply or
/// install, timed into ApplyLockWait and ApplyHold; holds nothing when no
/// lock is attached.
class ApplySection {
 public:
  explicit ApplySection(RwLock* lock) {
    if (lock == nullptr) return;
    const auto started = std::chrono::steady_clock::now();
    lock_ = std::unique_lock<RwLock>(*lock);
    acquired_ = std::chrono::steady_clock::now();
    ApplyLockWait().Record(MicrosBetween(started, acquired_));
  }
  ~ApplySection() {
    if (!lock_.owns_lock()) return;
    const auto released = std::chrono::steady_clock::now();
    lock_.unlock();
    ApplyHold().Record(MicrosBetween(acquired_, released));
  }
  ApplySection(const ApplySection&) = delete;
  ApplySection& operator=(const ApplySection&) = delete;

 private:
  std::unique_lock<RwLock> lock_;
  std::chrono::steady_clock::time_point acquired_;
};

uint64_t PagesFor(size_t bytes) {
  return (bytes + kPagePayloadSize - 1) / kPagePayloadSize;
}

/// Appends `bytes` as a run of `type` pages starting at *next_page.
void AppendStreamPages(std::string* image, uint64_t* next_page,
                       PageType type, std::string_view bytes) {
  for (size_t off = 0; off < bytes.size(); off += kPagePayloadSize) {
    AppendPage(image, (*next_page)++, type,
               bytes.substr(off, kPagePayloadSize));
  }
}

}  // namespace

// ------------------------------------------------------------ Open paths.

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    const std::string& dir, Database* db, Catalog* catalog,
    BufferPool* pool, const StorageConstants& constants,
    const StorageOptions& options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create database directory " + dir +
                            ": " + ec.message());
  }
  std::unique_ptr<StorageEngine> engine(
      new StorageEngine(dir, db, catalog, pool, constants, options));
  Result<std::string> manifest =
      ReadFileToString(engine->ManifestPath());
  if (manifest.ok()) {
    XIA_RETURN_IF_ERROR(engine->OpenExisting(*manifest));
  } else if (manifest.status().code() == StatusCode::kNotFound) {
    // A fresh directory: Checkpoint() writes the current contents
    // (normally empty) as checkpoint 1.
    XIA_RETURN_IF_ERROR(engine->Checkpoint());
    engine->recovery_.epoch = engine->epoch_;
  } else {
    return manifest.status();
  }
  return engine;
}

std::unique_ptr<StorageEngine> StorageEngine::MemoryOnly(
    Database* db, Catalog* catalog, const StorageConstants& constants) {
  return std::unique_ptr<StorageEngine>(
      new StorageEngine("", db, catalog, nullptr, constants, {}));
}

StorageEngine::~StorageEngine() = default;

std::string StorageEngine::PagesPath(uint64_t epoch) const {
  return (fs::path(dir_) / ("pages." + std::to_string(epoch) + ".xdb"))
      .string();
}

std::string StorageEngine::WalPath(uint64_t epoch) const {
  return (fs::path(dir_) / ("wal." + std::to_string(epoch) + ".log"))
      .string();
}

std::string StorageEngine::ManifestPath() const {
  return (fs::path(dir_) / "MANIFEST").string();
}

Status StorageEngine::OpenExisting(const std::string& manifest_text) {
  XIA_SPAN("storage.recover");

  // MANIFEST grammar (strict; the trailing "ok" proves the atomic write
  // completed): xia-manifest v1 / epoch N / pages F / wal F / ok
  std::istringstream in(manifest_text);
  std::string line;
  auto next_line = [&]() -> bool {
    return static_cast<bool>(std::getline(in, line));
  };
  if (!next_line() || line != "xia-manifest v1") {
    return Status::Internal("MANIFEST: bad header");
  }
  uint64_t epoch = 0;
  std::string pages_file;
  std::string wal_file;
  std::string keyword;
  if (!next_line()) return Status::Internal("MANIFEST: missing epoch");
  {
    std::istringstream fields(line);
    if (!(fields >> keyword >> epoch) || keyword != "epoch" || epoch == 0) {
      return Status::Internal("MANIFEST: bad epoch line");
    }
  }
  if (!next_line()) return Status::Internal("MANIFEST: missing pages");
  {
    std::istringstream fields(line);
    if (!(fields >> keyword >> pages_file) || keyword != "pages") {
      return Status::Internal("MANIFEST: bad pages line");
    }
  }
  if (!next_line()) return Status::Internal("MANIFEST: missing wal");
  {
    std::istringstream fields(line);
    if (!(fields >> keyword >> wal_file) || keyword != "wal") {
      return Status::Internal("MANIFEST: bad wal line");
    }
  }
  if (!next_line() || line != "ok") {
    return Status::Internal("MANIFEST: missing ok trailer");
  }

  if (!db_->CollectionNames().empty() || db_->names().size() != 0 ||
      catalog_->size() != 0) {
    return Status::InvalidArgument(
        "cannot recover into a non-empty database");
  }

  recovery_ = RecoveryStats{};
  recovery_.opened_existing = true;
  recovery_.epoch = epoch;

  XIA_RETURN_IF_ERROR(
      LoadCheckpoint((fs::path(dir_) / pages_file).string()));

  // Replay the WAL's valid prefix; a torn tail (crash mid-append) is
  // dropped by reopening the writer at valid_bytes.
  const std::string wal_path = (fs::path(dir_) / wal_file).string();
  uint64_t wal_size = 0;
  WalReadResult wal;
  {
    Result<std::string> data = ReadFileToString(wal_path);
    if (data.ok()) {
      wal_size = data->size();
      wal = ScanWal(*data);
    } else if (data.status().code() != StatusCode::kNotFound) {
      return data.status();
    }
  }
  for (const WalRecord& record : wal.records) {
    XIA_RETURN_IF_ERROR(ReplayRecord(record));
    next_lsn_ = std::max(next_lsn_, record.lsn + 1);
  }
  obs::Registry()
      .GetCounter("storage.wal.replayed")
      .Add(wal.records.size());
  recovery_.wal_records_replayed = wal.records.size();
  recovery_.wal_was_clean = wal.clean;
  recovery_.wal_torn_bytes = wal_size - wal.valid_bytes;
  if (!wal.clean) {
    obs::Registry().GetCounter("storage.wal.truncated_tails").Increment();
  }

  epoch_ = epoch;
  XIA_ASSIGN_OR_RETURN(
      WalWriter writer,
      WalWriter::Open(wal_path, wal.valid_bytes, options_.sync));
  wal_.emplace(std::move(writer));
  return Status::Ok();
}

Status StorageEngine::LoadCheckpoint(const std::string& path) {
  XIA_ASSIGN_OR_RETURN(std::string image, ReadFileToString(path));
  if (image.size() % kPageSize != 0) {
    return Status::Internal("page file " + path +
                            " is not page-aligned (truncated?)");
  }

  // Every page read goes through the buffer pool (cold-open accounting)
  // and is checksum-verified by ReadPage.
  auto read_page = [&](uint64_t page_no,
                       PageType want) -> Result<std::string_view> {
    if (pool_ != nullptr) {
      Result<bool> fetched = pool_->Fetch(StoragePageId(page_no));
      if (!fetched.ok()) return fetched.status();
    }
    bool checksum_failed = false;
    Result<PageView> page = ReadPage(image, page_no, &checksum_failed);
    if (!page.ok()) {
      if (checksum_failed) {
        obs::Registry()
            .GetCounter("storage.pages.checksum_failures")
            .Increment();
      }
      return page.status();
    }
    obs::Registry().GetCounter("storage.pages.read").Increment();
    recovery_.pages_read++;
    if (page->type != want) {
      return Status::Internal("page " + std::to_string(page_no) +
                              ": unexpected page type");
    }
    return page->payload;
  };

  auto read_stream = [&](uint64_t first_page, uint64_t byte_len,
                         PageType type) -> Result<std::string> {
    std::string bytes;
    bytes.reserve(byte_len);
    for (uint64_t page_no = first_page; bytes.size() < byte_len;
         ++page_no) {
      XIA_ASSIGN_OR_RETURN(std::string_view payload,
                           read_page(page_no, type));
      if (payload.empty()) {
        return Status::Internal("page " + std::to_string(page_no) +
                                ": empty stream page");
      }
      bytes.append(payload.data(), payload.size());
    }
    if (bytes.size() != byte_len) {
      return Status::Internal("stream length mismatch in " + path);
    }
    return bytes;
  };

  XIA_ASSIGN_OR_RETURN(std::string_view header,
                       read_page(0, PageType::kMeta));
  BinReader header_reader(header);
  XIA_ASSIGN_OR_RETURN(uint64_t total_pages, header_reader.U64());
  XIA_ASSIGN_OR_RETURN(uint64_t dir_first_page, header_reader.U64());
  XIA_ASSIGN_OR_RETURN(uint64_t dir_bytes, header_reader.U64());
  if (total_pages != PageCount(image)) {
    return Status::Internal(
        "page file " + path + " has " + std::to_string(PageCount(image)) +
        " pages, header says " + std::to_string(total_pages));
  }
  if (dir_first_page >= total_pages && dir_bytes > 0) {
    return Status::Internal("page file " + path +
                            ": directory out of range");
  }

  XIA_ASSIGN_OR_RETURN(
      std::string dir_bytes_str,
      read_stream(dir_first_page, dir_bytes, PageType::kMeta));
  BinReader dir(dir_bytes_str);
  XIA_ASSIGN_OR_RETURN(uint32_t stream_count, dir.U32());

  // Streams are listed (and loaded) in dependency order: names, then
  // collections, then physical indexes, then the virtual catalog.
  for (uint32_t i = 0; i < stream_count; ++i) {
    XIA_ASSIGN_OR_RETURN(std::string stream_name, dir.Str());
    XIA_ASSIGN_OR_RETURN(uint8_t type_raw, dir.U8());
    XIA_ASSIGN_OR_RETURN(uint64_t first_page, dir.U64());
    XIA_ASSIGN_OR_RETURN(uint64_t byte_len, dir.U64());
    if (type_raw < static_cast<uint8_t>(PageType::kMeta) ||
        type_raw > static_cast<uint8_t>(PageType::kCatalog)) {
      return Status::Internal("stream " + stream_name +
                              ": bad page type in directory");
    }
    PageType type = static_cast<PageType>(type_raw);
    if (byte_len > 0 &&
        (first_page == 0 || first_page >= total_pages ||
         PagesFor(byte_len) > total_pages - first_page)) {
      return Status::Internal("stream " + stream_name +
                              ": page run out of range");
    }
    XIA_ASSIGN_OR_RETURN(std::string bytes,
                         read_stream(first_page, byte_len, type));
    BinReader r(bytes);

    if (stream_name == "names") {
      XIA_ASSIGN_OR_RETURN(uint32_t count, r.U32());
      for (uint32_t id = 0; id < count; ++id) {
        XIA_ASSIGN_OR_RETURN(std::string name, r.Str());
        NameId interned = db_->mutable_names()->Intern(name);
        if (interned != static_cast<NameId>(id)) {
          return Status::Internal("name table is not in id order");
        }
      }
    } else if (stream_name.rfind("coll:", 0) == 0) {
      std::string coll_name = stream_name.substr(5);
      XIA_ASSIGN_OR_RETURN(Collection * coll,
                           db_->CreateCollection(coll_name));
      XIA_ASSIGN_OR_RETURN(uint8_t analyzed, r.U8());
      XIA_ASSIGN_OR_RETURN(uint32_t doc_count, r.U32());
      for (uint32_t d = 0; d < doc_count; ++d) {
        XIA_ASSIGN_OR_RETURN(uint8_t live, r.U8());
        XIA_ASSIGN_OR_RETURN(uint32_t node_count, r.U32());
        std::vector<XmlNode> nodes;
        nodes.reserve(node_count);
        for (uint32_t n = 0; n < node_count; ++n) {
          XmlNode node;
          XIA_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
          if (kind > static_cast<uint8_t>(NodeKind::kText)) {
            return Status::Internal("collection " + coll_name +
                                    ": bad node kind");
          }
          node.kind = static_cast<NodeKind>(kind);
          XIA_ASSIGN_OR_RETURN(node.name, r.I32());
          XIA_ASSIGN_OR_RETURN(node.parent, r.I32());
          XIA_ASSIGN_OR_RETURN(node.first_child, r.I32());
          XIA_ASSIGN_OR_RETURN(node.next_sibling, r.I32());
          XIA_ASSIGN_OR_RETURN(node.begin, r.U32());
          XIA_ASSIGN_OR_RETURN(node.end, r.U32());
          XIA_ASSIGN_OR_RETURN(node.level, r.U16());
          XIA_ASSIGN_OR_RETURN(node.value, r.Str());
          nodes.push_back(std::move(node));
        }
        Result<Document> doc = Document::FromNodes(std::move(nodes));
        if (!doc.ok()) {
          return Status::Internal("collection " + coll_name + ": document " +
                                  std::to_string(d) + ": " +
                                  doc.status().message());
        }
        DocId id = coll->Add(std::move(*doc));
        if (live == 0) {
          // Reconstitute the tombstone (the slot was serialized empty).
          XIA_RETURN_IF_ERROR(coll->Delete(id));
        }
      }
      if (analyzed != 0) {
        // The synopsis is re-derived, not stored: Analyze is
        // deterministic over the reloaded node arrays.
        XIA_RETURN_IF_ERROR(db_->Analyze(coll_name));
      }
    } else if (stream_name.rfind("idx:", 0) == 0) {
      XIA_ASSIGN_OR_RETURN(std::string ddl, r.Str());
      XIA_ASSIGN_OR_RETURN(IndexDefinition def, ParseIndexDdl(ddl));
      XIA_ASSIGN_OR_RETURN(uint64_t entry_count, r.U64());
      std::vector<PathIndex::Entry> entries;
      entries.reserve(entry_count);
      for (uint64_t e = 0; e < entry_count; ++e) {
        PathIndex::Entry entry;
        XIA_ASSIGN_OR_RETURN(uint8_t vtype, r.U8());
        if (vtype > static_cast<uint8_t>(ValueType::kDouble)) {
          return Status::Internal("index " + def.name +
                                  ": bad key type");
        }
        entry.key.type = static_cast<ValueType>(vtype);
        XIA_ASSIGN_OR_RETURN(entry.key.num, r.F64());
        XIA_ASSIGN_OR_RETURN(entry.key.str, r.Str());
        XIA_ASSIGN_OR_RETURN(entry.node.doc, r.I32());
        XIA_ASSIGN_OR_RETURN(entry.node.node, r.I32());
        entries.push_back(std::move(entry));
      }
      XIA_RETURN_IF_ERROR(catalog_->AddPhysical(
          std::make_shared<PathIndex>(std::move(def), std::move(entries)),
          constants_));
    } else if (stream_name == "catalog") {
      XIA_ASSIGN_OR_RETURN(uint32_t count, r.U32());
      for (uint32_t v = 0; v < count; ++v) {
        XIA_ASSIGN_OR_RETURN(std::string ddl, r.Str());
        XIA_ASSIGN_OR_RETURN(IndexDefinition def, ParseIndexDdl(ddl));
        VirtualIndexStats stats;
        XIA_ASSIGN_OR_RETURN(stats.entries, r.F64());
        XIA_ASSIGN_OR_RETURN(stats.size_bytes, r.F64());
        XIA_ASSIGN_OR_RETURN(stats.leaf_pages, r.F64());
        XIA_ASSIGN_OR_RETURN(stats.height, r.I32());
        XIA_ASSIGN_OR_RETURN(stats.distinct, r.F64());
        XIA_ASSIGN_OR_RETURN(stats.avg_key_bytes, r.F64());
        XIA_RETURN_IF_ERROR(
            catalog_->AddVirtual(std::move(def), stats));
      }
    } else {
      return Status::Internal("unknown checkpoint stream " + stream_name);
    }
    if (!r.AtEnd()) {
      return Status::Internal("stream " + stream_name +
                              ": trailing bytes");
    }
  }
  return Status::Ok();
}

// ------------------------------------------------------------ WAL path.

Status StorageEngine::AppendWal(WalRecordType type, std::string payload) {
  if (!persistent()) return Status::Ok();
  if (closed_) return Status::Internal("storage engine is closed");
  // A bulk load's checkpoint failed, or a checkpoint could not open its
  // new WAL.
  if (!wal_.has_value()) return Status::Internal(kRefusedUntilCheckpoint);
  WalRecord record;
  record.lsn = next_lsn_;
  record.type = type;
  record.payload = std::move(payload);
  XIA_RETURN_IF_ERROR(wal_->Append(record));
  ++next_lsn_;
  return Status::Ok();
}

Status StorageEngine::ReconcileFailedApply(Status applied) {
  if (applied.ok() || !persistent()) return applied;
  Status checkpointed = Checkpoint();
  if (checkpointed.ok()) return applied;
  wal_.reset();  // AppendWal refuses until a checkpoint succeeds.
  return Status(applied.code(), applied.message() +
                                    "; not checkpointed after the failed "
                                    "apply (" +
                                    checkpointed.message() + "); " +
                                    kRefusedUntilCheckpoint);
}

Status StorageEngine::ReplayRecord(const WalRecord& record) {
  BinReader r(record.payload);
  switch (record.type) {
    case WalRecordType::kCreateCollection: {
      XIA_ASSIGN_OR_RETURN(std::string name, r.Str());
      return db_->CreateCollection(name).status();
    }
    case WalRecordType::kAddDocument: {
      // Replay-only: no live mutation writes this record, but a log from
      // an older build may hold it. It means a plain append, without
      // index or synopsis upkeep.
      XIA_ASSIGN_OR_RETURN(std::string collection, r.Str());
      XIA_ASSIGN_OR_RETURN(std::string xml, r.Str());
      return db_->LoadXml(collection, xml);
    }
    case WalRecordType::kAnalyze: {
      XIA_ASSIGN_OR_RETURN(std::string collection, r.Str());
      return db_->Analyze(collection);
    }
    case WalRecordType::kCreateIndex: {
      XIA_ASSIGN_OR_RETURN(std::string ddl, r.Str());
      XIA_ASSIGN_OR_RETURN(PathIndex index, BuildLoggedIndex(ddl));
      return InstallIndex(std::move(index));
    }
    case WalRecordType::kDropIndex: {
      XIA_ASSIGN_OR_RETURN(std::string name, r.Str());
      return catalog_->Drop(name);
    }
    case WalRecordType::kInsertDocument: {
      XIA_ASSIGN_OR_RETURN(std::string collection, r.Str());
      XIA_ASSIGN_OR_RETURN(std::string xml, r.Str());
      return dml::ApplyInsert(db_, catalog_, collection, xml).status();
    }
    case WalRecordType::kDeleteDocument: {
      XIA_ASSIGN_OR_RETURN(std::string collection, r.Str());
      XIA_ASSIGN_OR_RETURN(int32_t doc, r.I32());
      return dml::ApplyDelete(db_, catalog_, collection, doc).status();
    }
    case WalRecordType::kUpdateDocument: {
      XIA_ASSIGN_OR_RETURN(std::string collection, r.Str());
      XIA_ASSIGN_OR_RETURN(int32_t doc, r.I32());
      XIA_ASSIGN_OR_RETURN(std::string xml, r.Str());
      return dml::ApplyUpdate(db_, catalog_, collection, doc, xml).status();
    }
  }
  return Status::Internal("unknown WAL record type");
}

// ---------------------------------------------------- Logged mutations.
// Validate first (a record that cannot replay must never be logged),
// then append the WAL record, then apply — through the same Database,
// Catalog and dml:: calls ReplayRecord makes. An insert or update
// prepares its document before logging (dml::PrepareDocument: the
// validating parse and the index entries) and applies it under the apply
// lock; replay's string dml:: calls prepare the logged XML and apply it
// at once. `analyze` and CREATE INDEX build before logging, with the
// calls replay makes, and only install under the apply lock.

dml::Fallback StorageEngine::fallback() const {
  return apply_lock_ != nullptr ? dml::Fallback::kDeferred
                                : dml::Fallback::kInline;
}

Status StorageEngine::FinishFallback(const std::string& collection,
                                     const dml::DmlResult& result) {
  if (!result.synopsis_rebuilt || fallback() == dml::Fallback::kInline) {
    return Status::Ok();
  }
  XIA_ASSIGN_OR_RETURN(std::unique_ptr<PathSynopsis> synopsis,
                       db_->BuildSynopsis(collection));
  ApplySection section(apply_lock_);
  db_->InstallSynopsis(collection, std::move(synopsis));
  return Status::Ok();
}

Status StorageEngine::CreateCollection(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("collection name is empty");
  }
  if (db_->GetCollection(name) != nullptr) {
    return Status::AlreadyExists("collection " + name + " already exists");
  }
  BinWriter w;
  w.Str(name);
  XIA_RETURN_IF_ERROR(AppendWal(WalRecordType::kCreateCollection, w.Take()));
  Status created = [&] {
    ApplySection section(apply_lock_);
    return db_->CreateCollection(name).status();
  }();
  return ReconcileFailedApply(std::move(created));
}

Status StorageEngine::Analyze(const std::string& collection) {
  // Replay's Database::Analyze is this build plus this install.
  XIA_ASSIGN_OR_RETURN(std::unique_ptr<PathSynopsis> synopsis,
                       db_->BuildSynopsis(collection));
  BinWriter w;
  w.Str(collection);
  XIA_RETURN_IF_ERROR(AppendWal(WalRecordType::kAnalyze, w.Take()));
  ApplySection section(apply_lock_);
  db_->InstallSynopsis(collection, std::move(synopsis));
  return Status::Ok();
}

Result<std::string> StorageEngine::CreateIndex(const std::string& ddl) {
  XIA_ASSIGN_OR_RETURN(IndexDefinition def, ParseIndexDdl(ddl));
  if (db_->GetCollection(def.collection) == nullptr) {
    return Status::NotFound("collection " + def.collection +
                            " does not exist");
  }
  if (catalog_->Find(def.name) != nullptr) {
    return Status::AlreadyExists("index " + def.name + " already exists");
  }
  // Log the normalized rendering, so replay parses exactly what the
  // definition prints; build from it, as replay does, before logging, so
  // a build that fails logs nothing.
  std::string normalized = def.DdlString();
  XIA_ASSIGN_OR_RETURN(PathIndex index, BuildLoggedIndex(normalized));
  BinWriter w;
  w.Str(normalized);
  XIA_RETURN_IF_ERROR(AppendWal(WalRecordType::kCreateIndex, w.Take()));
  std::string name = index.def().name;
  Status installed = [&] {
    ApplySection section(apply_lock_);
    return InstallIndex(std::move(index));
  }();
  XIA_RETURN_IF_ERROR(ReconcileFailedApply(std::move(installed)));
  return name;
}

Status StorageEngine::DropIndex(const std::string& name) {
  if (catalog_->Find(name) == nullptr) {
    return Status::NotFound("index " + name + " does not exist");
  }
  BinWriter w;
  w.Str(name);
  XIA_RETURN_IF_ERROR(AppendWal(WalRecordType::kDropIndex, w.Take()));
  Status dropped = [&] {
    ApplySection section(apply_lock_);
    return catalog_->Drop(name);
  }();
  return ReconcileFailedApply(std::move(dropped));
}

Result<dml::DmlResult> StorageEngine::InsertDocument(
    const std::string& collection, const std::string& xml) {
  // Prepare before logging, beside readers: a record that cannot replay
  // would poison every future recovery, so it is never logged, and a
  // failed parse leaves the database's names untouched. The prepared
  // document, with its index entries, is the one applied.
  XIA_ASSIGN_OR_RETURN(dml::PreparedDocument prepared,
                       dml::PrepareDocument(*db_, *catalog_, collection, xml));
  BinWriter w;
  w.Str(collection);
  w.Str(xml);
  XIA_RETURN_IF_ERROR(AppendWal(WalRecordType::kInsertDocument, w.Take()));
  Result<dml::DmlResult> result = [&] {
    ApplySection section(apply_lock_);
    return dml::ApplyInsert(db_, catalog_, std::move(prepared));
  }();
  if (!result.ok()) return ReconcileFailedApply(result.status());
  return result;
}

Result<dml::DmlResult> StorageEngine::DeleteDocument(
    const std::string& collection, DocId doc) {
  const Collection* coll = db_->GetCollection(collection);
  if (coll == nullptr) {
    return Status::NotFound("collection " + collection +
                            " does not exist");
  }
  if (!coll->IsLive(doc)) {
    return Status::NotFound("document " + std::to_string(doc) +
                            " of collection " + collection +
                            " does not exist (or was deleted)");
  }
  BinWriter w;
  w.Str(collection);
  w.I32(doc);
  XIA_RETURN_IF_ERROR(AppendWal(WalRecordType::kDeleteDocument, w.Take()));
  Result<dml::DmlResult> result = [&] {
    ApplySection section(apply_lock_);
    return dml::ApplyDelete(db_, catalog_, collection, doc, fallback());
  }();
  if (!result.ok()) return ReconcileFailedApply(result.status());
  XIA_RETURN_IF_ERROR(FinishFallback(collection, *result));
  return result;
}

Result<dml::DmlResult> StorageEngine::UpdateDocument(
    const std::string& collection, DocId doc, const std::string& xml) {
  const Collection* coll = db_->GetCollection(collection);
  if (coll == nullptr) {
    return Status::NotFound("collection " + collection +
                            " does not exist");
  }
  if (!coll->IsLive(doc)) {
    return Status::NotFound("document " + std::to_string(doc) +
                            " of collection " + collection +
                            " does not exist (or was deleted)");
  }
  // As in InsertDocument.
  XIA_ASSIGN_OR_RETURN(dml::PreparedDocument prepared,
                       dml::PrepareDocument(*db_, *catalog_, collection, xml));
  BinWriter w;
  w.Str(collection);
  w.I32(doc);
  w.Str(xml);
  XIA_RETURN_IF_ERROR(AppendWal(WalRecordType::kUpdateDocument, w.Take()));
  Result<dml::DmlResult> result = [&] {
    ApplySection section(apply_lock_);
    return dml::ApplyUpdate(db_, catalog_, doc, std::move(prepared),
                            fallback());
  }();
  if (!result.ok()) return ReconcileFailedApply(result.status());
  XIA_RETURN_IF_ERROR(FinishFallback(collection, *result));
  return result;
}

Result<PathIndex> StorageEngine::BuildLoggedIndex(
    const std::string& ddl) const {
  XIA_ASSIGN_OR_RETURN(IndexDefinition def, ParseIndexDdl(ddl));
  return BuildIndex(*db_, def);
}

Status StorageEngine::InstallIndex(PathIndex index) {
  return catalog_->AddPhysical(std::make_shared<PathIndex>(std::move(index)),
                               constants_);
}

// ------------------------------------------------------------ Checkpoint.

std::string StorageEngine::SerializeCheckpoint() const {
  std::vector<StreamBlob> streams = BuildStreams(*db_, *catalog_);

  // Lay out the page file: header, then each stream's page run, then the
  // directory; the header locates the directory, the directory locates
  // the streams.
  uint64_t next_page = 1;
  BinWriter dir;
  dir.U32(static_cast<uint32_t>(streams.size()));
  for (const StreamBlob& stream : streams) {
    dir.Str(stream.name);
    dir.U8(static_cast<uint8_t>(stream.type));
    dir.U64(next_page);
    dir.U64(stream.bytes.size());
    next_page += PagesFor(stream.bytes.size());
  }
  const std::string dir_bytes = dir.Take();
  const uint64_t dir_first_page = next_page;
  const uint64_t total_pages = next_page + PagesFor(dir_bytes.size());

  BinWriter header;
  header.U64(total_pages);
  header.U64(dir_first_page);
  header.U64(dir_bytes.size());

  std::string image;
  image.reserve(total_pages * kPageSize);
  AppendPage(&image, 0, PageType::kMeta, header.bytes());
  uint64_t page_no = 1;
  for (const StreamBlob& stream : streams) {
    AppendStreamPages(&image, &page_no, stream.type, stream.bytes);
  }
  AppendStreamPages(&image, &page_no, PageType::kMeta, dir_bytes);
  return image;
}

Status StorageEngine::WriteManifest(uint64_t epoch) {
  std::string text = "xia-manifest v1\nepoch " + std::to_string(epoch) +
                     "\npages pages." + std::to_string(epoch) +
                     ".xdb\nwal wal." + std::to_string(epoch) +
                     ".log\nok\n";
  AtomicWriteOptions options;
  options.sync = options_.sync;
  return AtomicWriteFile(ManifestPath(), text, options);
}

Status StorageEngine::Checkpoint() {
  if (!persistent()) return Status::Ok();
  if (closed_) return Status::Internal("storage engine is closed");
  XIA_SPAN("storage.checkpoint");

  // Crash-ordering: new pages, new (empty) WAL, then the MANIFEST swap.
  // A failure anywhere before the swap leaves the old epoch current and
  // fully consistent (stale new-epoch files are overwritten next time).
  const uint64_t new_epoch = epoch_ + 1;
  std::string image = SerializeCheckpoint();
  AtomicWriteOptions page_options;
  page_options.failpoint = "storage.checkpoint.flush";
  page_options.sync = options_.sync;
  XIA_RETURN_IF_ERROR(
      AtomicWriteFile(PagesPath(new_epoch), image, page_options));
  obs::Registry().GetCounter("storage.pages.written").Add(PageCount(image));
  AtomicWriteOptions wal_options;
  wal_options.sync = options_.sync;
  XIA_RETURN_IF_ERROR(AtomicWriteFile(WalPath(new_epoch), "", wal_options));
  XIA_FAILPOINT("storage.checkpoint.rename");
  XIA_RETURN_IF_ERROR(WriteManifest(new_epoch));

  const uint64_t old_epoch = epoch_;
  epoch_ = new_epoch;
  wal_.reset();
  XIA_ASSIGN_OR_RETURN(
      WalWriter writer,
      WalWriter::Open(WalPath(new_epoch), 0, options_.sync));
  wal_.emplace(std::move(writer));
  std::error_code ec;
  fs::remove(PagesPath(old_epoch), ec);
  fs::remove(WalPath(old_epoch), ec);
  obs::Registry().GetCounter("storage.checkpoints").Increment();
  return Status::Ok();
}

Status StorageEngine::BulkLoad(
    const std::function<Status(Database*)>& load) {
  Status loaded = load(db_);
  Status checkpointed = Checkpoint();
  if (!checkpointed.ok()) {
    wal_.reset();  // AppendWal refuses until a checkpoint succeeds.
    checkpointed = Status(checkpointed.code(),
                          "bulk load not checkpointed (" +
                              checkpointed.message() + "); " +
                              kRefusedUntilCheckpoint);
  }
  return loaded.ok() ? checkpointed : loaded;
}

Status StorageEngine::Close() {
  if (closed_ || !persistent()) return Status::Ok();
  XIA_RETURN_IF_ERROR(Checkpoint());
  wal_.reset();
  closed_ = true;
  return Status::Ok();
}

std::string StorageEngine::StateFingerprint(const Database& db,
                                            const Catalog& catalog) {
  // The checkpoint serialization is already a canonical byte encoding of
  // the logical state (map-sorted orders, bit-pattern doubles), so its
  // checksum + length is a state fingerprint.
  std::string all;
  for (const StreamBlob& stream : BuildStreams(db, catalog)) {
    BinWriter w;
    w.Str(stream.name);
    w.Str(stream.bytes);
    all += w.Take();
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08x-%zu", Crc32(all), all.size());
  return buf;
}

}  // namespace storage
}  // namespace xia
