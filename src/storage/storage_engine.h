#ifndef XIA_STORAGE_STORAGE_ENGINE_H_
#define XIA_STORAGE_STORAGE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "dml/dml.h"
#include "index/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/wal.h"

namespace xia {
namespace storage {

/// Durability knobs for an engine instance.
struct StorageOptions {
  /// When false, skips every fsync (tests/benchmarks on tmpfs). Atomic
  /// temp+rename replacement is kept either way.
  bool sync = true;
};

/// What recovery-on-open found and did (surfaced by the server's
/// `db status` verb and asserted by tests/persistence_test.cc).
struct RecoveryStats {
  bool opened_existing = false;  // False for a freshly created directory.
  bool wal_was_clean = true;     // False when a torn tail was truncated.
  uint64_t epoch = 0;            // Checkpoint epoch now current.
  uint64_t pages_read = 0;       // Checkpoint pages loaded (and verified).
  uint64_t wal_records_replayed = 0;
  uint64_t wal_torn_bytes = 0;  // Bytes dropped from the torn tail.
};

/// xia::storage persistence engine: page-structured checkpoints plus a
/// logical WAL, with recovery-on-open (docs/INTERNALS.md, "Persistent
/// storage & recovery").
///
/// Layout of a database directory:
///   MANIFEST         names the current epoch's files; atomically swapped
///   pages.<N>.xdb    checkpoint N: page file (storage/page.h format)
///   wal.<N>.log      mutations since checkpoint N (storage/wal.h)
///
/// Every mutation goes through the engine. A logged one appends (and
/// fsyncs) its WAL record BEFORE it applies in memory, through the code
/// recovery replays, so a reopened database is bit-identical to one that
/// never crashed; a BulkLoad logs nothing and is made durable by one
/// checkpoint. Checkpoint(), the only writer of page files, serializes
/// the full state into the next epoch's page file, creates an empty WAL,
/// and atomically swaps MANIFEST — a crash at any point leaves the
/// previous epoch fully intact.
///
/// A memory-only engine (MemoryOnly) has no directory and no WAL: its
/// mutations validate and apply exactly as above, BulkLoad only runs the
/// loader, and Checkpoint() and Close() do nothing. Callers therefore
/// mutate through one engine whether or not the database persists.
///
/// Failpoints (tests/persistence_test.cc drives all three):
///   storage.wal.append        (arg = lsn)   crash mid-WAL-append
///   storage.checkpoint.flush                crash mid-page-flush
///   storage.checkpoint.rename               crash before MANIFEST swap
///
/// The engine is not itself thread-safe; the server serializes mutating
/// verbs behind its exclusive-verb lock (src/server/session.cc).
class StorageEngine {
 public:
  /// Opens (or creates) the database directory `dir`.
  ///
  /// When `dir` holds an existing database, `db` and `catalog` must be
  /// empty: the checkpoint is loaded into them and the WAL replayed on
  /// top. When `dir` is fresh, Checkpoint() writes the *current* contents
  /// of `db`/`catalog` (usually empty, but e.g. pre-generated XMark data
  /// with built indexes) as checkpoint 1 — adopt-then-persist.
  ///
  /// Checkpoint page reads are accounted in `pool` (may be null) under
  /// the StoragePageId partition, so cold-vs-warm opens are measurable.
  static Result<std::unique_ptr<StorageEngine>> Open(
      const std::string& dir, Database* db, Catalog* catalog,
      BufferPool* pool, const StorageConstants& constants,
      const StorageOptions& options = {});

  /// An engine over `db`/`catalog` that persists nothing (see above).
  static std::unique_ptr<StorageEngine> MemoryOnly(
      Database* db, Catalog* catalog, const StorageConstants& constants);

  ~StorageEngine();
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  // ------------------------------------------------ Logged mutations.
  // Each validates, appends the WAL record, then applies in memory.

  Status CreateCollection(const std::string& name);
  Status Analyze(const std::string& collection);
  /// Parses DB2-style DDL, builds and registers the index. Returns the
  /// index name.
  Result<std::string> CreateIndex(const std::string& ddl);
  Status DropIndex(const std::string& name);

  // DML (src/dml): WAL-logged document mutations with incremental index
  // and synopsis maintenance. Insert returns the new DocId; update
  // returns the replacement's DocId (the old id is tombstoned).
  Result<dml::DmlResult> InsertDocument(const std::string& collection,
                                        const std::string& xml);
  Result<dml::DmlResult> DeleteDocument(const std::string& collection,
                                        DocId doc);
  Result<dml::DmlResult> UpdateDocument(const std::string& collection,
                                        DocId doc, const std::string& xml);

  // ------------------------------------------------ Unlogged bulk load.

  /// Runs `load`, which may only create, fill and analyze new
  /// collections, then Checkpoint()s even if `load` failed, so a logged
  /// mutation never builds on state the disk lacks. If that checkpoint
  /// fails, the WAL writer is dropped and logged mutations are refused
  /// until a Checkpoint() (or Close()) succeeds. Returns `load`'s error,
  /// else the checkpoint's.
  Status BulkLoad(const std::function<Status(Database*)>& load);

  // ------------------------------------------------------ Checkpoint.

  /// Writes the next epoch's page file, swaps MANIFEST, truncates the
  /// WAL (by starting a fresh one, which also heals a poisoned or dropped
  /// writer), and removes the previous epoch. A fresh Open() is this
  /// call from epoch 0.
  Status Checkpoint();

  /// Checkpoints and releases the WAL. Idempotent. A Close()d database
  /// reopens with zero WAL records to replay.
  Status Close();

  // -------------------------------------------------------- Introspection.

  /// False for a memory-only engine.
  bool persistent() const { return !dir_.empty(); }

  const RecoveryStats& recovery() const { return recovery_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t next_lsn() const { return next_lsn_; }
  const std::string& dir() const { return dir_; }  // Empty memory-only.

  /// Order-independent fingerprint of the logical database + catalog
  /// state (collections, node arrays, synopses presence, index entries,
  /// virtual stats). Two states with equal fingerprints are
  /// bit-identical for every query surface; persistence tests compare a
  /// reopened database against the pre-crash fingerprint.
  static std::string StateFingerprint(const Database& db,
                                      const Catalog& catalog);

 private:
  StorageEngine(std::string dir, Database* db, Catalog* catalog,
                BufferPool* pool, StorageConstants constants,
                StorageOptions options)
      : dir_(std::move(dir)),
        db_(db),
        catalog_(catalog),
        pool_(pool),
        constants_(constants),
        options_(options) {}

  // Recovery (called from Open).
  Status OpenExisting(const std::string& manifest_text);
  Status LoadCheckpoint(const std::string& path);
  /// Applies one record through the Database, Catalog and dml:: calls
  /// the live mutations make.
  Status ReplayRecord(const WalRecord& record);

  /// Builds and registers the index `ddl` defines (live and replay).
  Result<std::string> ApplyCreateIndex(const std::string& ddl);

  Status AppendWal(WalRecordType type, std::string payload);

  /// Serializes db_/catalog_ into one page-file image.
  std::string SerializeCheckpoint() const;
  Status WriteManifest(uint64_t epoch);

  std::string PagesPath(uint64_t epoch) const;
  std::string WalPath(uint64_t epoch) const;
  std::string ManifestPath() const;

  std::string dir_;
  Database* db_;
  Catalog* catalog_;
  BufferPool* pool_;
  StorageConstants constants_;
  StorageOptions options_;

  uint64_t epoch_ = 0;
  uint64_t next_lsn_ = 1;
  std::optional<WalWriter> wal_;
  RecoveryStats recovery_;
  bool closed_ = false;
};

}  // namespace storage
}  // namespace xia

#endif  // XIA_STORAGE_STORAGE_ENGINE_H_
