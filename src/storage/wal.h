#ifndef XIA_STORAGE_WAL_H_
#define XIA_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xia {
namespace storage {

/// Write-ahead log for xia::storage (see docs/INTERNALS.md).
///
/// The WAL is logical: each record describes one committed mutation of
/// the database/catalog (create collection, add document, analyze,
/// create/drop index) in replayable form. StorageEngine appends the
/// record BEFORE applying the mutation in memory; recovery-on-open
/// replays the surviving records on top of the last checkpoint, so the
/// reopened state is exactly the committed prefix.
///
/// Record framing (little-endian, see storage/page.h BinWriter):
///   u32 magic 'XWAL'   u32 crc (over lsn..payload)
///   u64 lsn            u8 type        u32 payload_len     payload
///
/// A crash (or the storage.wal.append failpoint) can tear the tail
/// record; the reader stops at the first record whose magic, length, or
/// CRC is invalid and reports the prefix — the torn tail is truncated at
/// the next open so later appends never interleave with garbage.
enum class WalRecordType : uint8_t {
  kCreateCollection = 1,  // payload: Str collection
  // Replay-only: no live path writes it (`load` logs kInsertDocument);
  // a log from an older build replays it as a plain append.
  kAddDocument = 2,       // payload: Str collection, Str xml text
  kAnalyze = 3,           // payload: Str collection
  kCreateIndex = 4,       // payload: Str DDL statement
  kDropIndex = 5,         // payload: Str index name
  // DML records (src/dml): the single logged write path. Insert assigns
  // the next DocId of the collection (replay is deterministic because
  // Collection::Add hands out ids in append order); delete tombstones;
  // update tombstones the old document and inserts the new content
  // under a fresh DocId.
  kInsertDocument = 6,  // payload: Str collection, Str xml text
  kDeleteDocument = 7,  // payload: Str collection, I32 doc id
  kUpdateDocument = 8,  // payload: Str collection, I32 doc id, Str xml
};

struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kCreateCollection;
  std::string payload;
};

/// Result of scanning a WAL file.
struct WalReadResult {
  std::vector<WalRecord> records;  // The valid prefix, in order.
  /// False when the scan stopped before end-of-file (torn tail after a
  /// crash mid-append, or corruption).
  bool clean = true;
  /// Byte offset just past the last valid record — where the writer
  /// resumes (after truncating whatever follows).
  uint64_t valid_bytes = 0;
};

/// Encodes one record (framing above). Exposed for tests/fuzzing.
std::string EncodeWalRecord(const WalRecord& record);

/// Scans `data` as a WAL image. Never fails: a torn or corrupt tail
/// just ends the scan with clean=false.
WalReadResult ScanWal(std::string_view data);

/// Appender over an fd, fsync-per-append (when sync). Failpoint
/// "storage.wal.append" (arg = lsn) fires between the two halves of the
/// record write, modeling a crash mid-append: the record is torn at the
/// tail and the writer poisons itself (as a crashed process would be
/// gone) — recovery at the next open truncates the torn bytes.
class WalWriter {
 public:
  /// Opens `path` for appending, truncating it to `valid_bytes` first
  /// (dropping a torn tail found by ScanWal).
  static Result<WalWriter> Open(const std::string& path,
                                uint64_t valid_bytes, bool sync);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Appends one record durably. On failure the writer is poisoned:
  /// every later Append fails until the database is reopened.
  Status Append(const WalRecord& record);

  void Close();

  uint64_t bytes_written() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, int fd, uint64_t bytes, bool sync)
      : path_(std::move(path)), fd_(fd), bytes_(bytes), sync_(sync) {}

  std::string path_;
  int fd_ = -1;
  uint64_t bytes_ = 0;
  bool sync_ = true;
  bool poisoned_ = false;
};

}  // namespace storage
}  // namespace xia

#endif  // XIA_STORAGE_WAL_H_
