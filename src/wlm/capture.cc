#include "wlm/capture.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "wlm/fingerprint.h"

namespace xia {
namespace wlm {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view CaptureKindName(CaptureKind kind) {
  switch (kind) {
    case CaptureKind::kQuery:
      return "query";
    case CaptureKind::kInsert:
      return "insert";
    case CaptureKind::kDelete:
      return "delete";
    case CaptureKind::kUpdate:
      return "update";
  }
  return "query";
}

std::optional<CaptureKind> CaptureKindFromName(std::string_view name) {
  if (name == "query") return CaptureKind::kQuery;
  if (name == "insert") return CaptureKind::kInsert;
  if (name == "delete") return CaptureKind::kDelete;
  if (name == "update") return CaptureKind::kUpdate;
  return std::nullopt;
}

CaptureRecord QueryRecord(const Query& query, double est_cost) {
  CaptureRecord record;
  record.timestamp_micros = NowMicros();
  record.est_cost = est_cost;
  record.text = query.text;
  record.fingerprint = TemplateFingerprint(query);
  return record;
}

CaptureRecord DmlRecord(CaptureKind kind, const std::string& collection,
                        const std::string& pattern, double work) {
  CaptureRecord record;
  record.timestamp_micros = NowMicros();
  record.est_cost = work;
  record.kind = kind;
  record.text = collection + " " + pattern;
  record.fingerprint = "dml:" + std::string(CaptureKindName(kind)) + ":" +
                       collection + ":" + pattern;
  return record;
}

std::string QueryLogStats::ToString() const {
  return "captured " + std::to_string(captured) + ", dropped " +
         std::to_string(dropped) + ", holding " + std::to_string(size) +
         "/" + std::to_string(capacity);
}

QueryLog::QueryLog(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

Status QueryLog::Append(CaptureRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.seq = seq_++;
  // The failpoint sits after sequence assignment so arg-matched specs can
  // fail "the k-th captured record" deterministically. A trip is a lost
  // record, counted like a ring overwrite.
  Status injected = [&]() -> Status {
    XIA_FAILPOINT_ARG("wlm.capture.append",
                      static_cast<int64_t>(record.seq));
    return Status::Ok();
  }();
  if (!injected.ok()) {
    dropped_.Increment();
    return injected;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
    next_ = (next_ + 1) % capacity_;
    dropped_.Increment();
  }
  captured_.Increment();
  return Status::Ok();
}

std::vector<CaptureRecord> QueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CaptureRecord> out(ring_.begin() + next_, ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + next_);
  return out;
}

void QueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
}

QueryLogStats QueryLog::stats() const {
  QueryLogStats stats;
  stats.captured = captured_.Value();
  stats.dropped = dropped_.Value();
  stats.capacity = capacity_;
  std::lock_guard<std::mutex> lock(mu_);
  stats.size = ring_.size();
  return stats;
}

}  // namespace wlm
}  // namespace xia
