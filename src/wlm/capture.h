#ifndef XIA_WLM_CAPTURE_H_
#define XIA_WLM_CAPTURE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "query/query.h"

namespace xia {
namespace wlm {

/// xia::wlm — workload management: capture the live query stream, compress
/// it into an advisable weighted workload, and notice when the current
/// index configuration has gone stale (see wlm/compress.h, wlm/drift.h).
///
/// This header is the capture side: the record one query execution or
/// DML statement becomes, and the bounded ring log that holds them. A log
/// belongs to whoever arms capture — the server's SharedState
/// (server/session.h), whose `run` and DML verbs append to it while armed.

/// What a capture record describes: a query execution or a DML statement
/// (src/dml). The read/write mix of the captured stream is what makes
/// maintenance-aware advising possible — compression turns DML records
/// into UpdateOps that charge candidate indexes for their upkeep.
enum class CaptureKind : uint8_t {
  kQuery = 0,
  kInsert = 1,
  kDelete = 2,
  kUpdate = 3,
};

/// Stable wire name ("query", "insert", "delete", "update") — the token
/// the versioned capture-log format (wlm/wlm_io.h) writes and parses.
std::string_view CaptureKindName(CaptureKind kind);
std::optional<CaptureKind> CaptureKindFromName(std::string_view name);

/// One captured query execution or DML statement.
struct CaptureRecord {
  /// Capture sequence number (assigned by QueryLog::Append); snapshots
  /// are in sequence order, so capture order is reproduced exactly.
  uint64_t seq = 0;
  /// Wall-clock capture time, microseconds since the Unix epoch.
  /// Informational only: compression ignores it, so two logs with equal
  /// {text, cost} multisets compress byte-identically.
  int64_t timestamp_micros = 0;
  /// Optimizer-estimated cost of the executed plan; for DML records, the
  /// index-maintenance work performed (entries inserted + removed).
  double est_cost = 0;
  /// Query or DML statement (see `kind`).
  CaptureKind kind = CaptureKind::kQuery;
  /// For kQuery: raw query text, re-parseable by ParseQuery (what
  /// `advise --from-log` feeds back into the advisor). For DML kinds:
  /// "<collection> <root-pattern>" — the pattern-level summary the
  /// compressor turns into an UpdateOp.
  std::string text;
  /// Template fingerprint (wlm/fingerprint.h): literals stripped. DML
  /// records fingerprint as "dml:<kind>:<collection>:<pattern>", so all
  /// mutations of the same shape cluster into one UpdateOp.
  std::string fingerprint;
};

/// The record of one executed query: its text, its template fingerprint
/// and the executed plan's estimated cost, stamped now.
CaptureRecord QueryRecord(const Query& query, double est_cost);

/// The record of one DML statement at pattern granularity: `pattern` is
/// the affected document's root pattern (DmlResult::root_pattern) and
/// `work` the index entries it touched. `kind` is not kQuery.
CaptureRecord DmlRecord(CaptureKind kind, const std::string& collection,
                        const std::string& pattern, double work);

/// Counts for `log stats` displays; the same numbers feed the obs
/// counters "wlm.captured" and "wlm.dropped".
struct QueryLogStats {
  uint64_t captured = 0;  // Appends accepted (lifetime, this instance).
  uint64_t dropped = 0;   // Overwritten by ring wrap + failed appends.
  uint64_t size = 0;      // Records currently held.
  uint64_t capacity = 0;  // Maximum records held.

  std::string ToString() const;
};

/// Bounded ring log of captured records, guarded by one mutex.
///
/// The ring grows on demand up to exactly `capacity` records. Once full,
/// each append overwrites the oldest record and counts it as dropped —
/// capture is lossy by design; the compressor's frequency weights come
/// from what survived.
///
/// Failure injection: Append hits the "wlm.capture.append" failpoint
/// (arg = sequence number). A tripped append drops the record and counts
/// it — it never propagates into the query that was being captured.
class QueryLog {
 public:
  /// Holds at most `capacity` records (at least one).
  explicit QueryLog(size_t capacity);

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Appends one record (seq is assigned here; any caller-set value is
  /// overwritten). Returns the injected error when the capture failpoint
  /// trips — callers on the query path must treat that as "record lost",
  /// never as a query failure.
  Status Append(CaptureRecord record);

  /// All held records, oldest first (ascending sequence numbers).
  std::vector<CaptureRecord> Snapshot() const;

  /// Drops every record. Lifetime captured/dropped counts are retained.
  void Clear();

  QueryLogStats stats() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<CaptureRecord> ring_;  // Grows to capacity_ on demand.
  size_t next_ = 0;                  // Oldest record once the ring is full.
  uint64_t seq_ = 0;
  // xia::obs counters: lifetime accepted/lost records across all
  // QueryLog instances (registry-attached; retained over destruction).
  obs::Counter captured_{"wlm.captured"};
  obs::Counter dropped_{"wlm.dropped"};
};

}  // namespace wlm
}  // namespace xia

#endif  // XIA_WLM_CAPTURE_H_
