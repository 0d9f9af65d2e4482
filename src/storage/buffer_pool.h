#ifndef XIA_STORAGE_BUFFER_POOL_H_
#define XIA_STORAGE_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "common/metrics.h"
#include "common/status.h"

namespace xia {

/// LRU page cache. The executor can run against one to account buffer
/// hits vs. physical reads, which is how repeated queries get realistic
/// warm-cache behaviour (DB2's buffer pool analogue). Page ids are opaque
/// 64-bit values; callers partition the id space (collection pages,
/// per-index leaf pages).
///
/// Thread-safe: every operation takes one internal mutex, so concurrent
/// server sessions can share the process-wide pool (xia::server does).
/// Hit/miss totals are exact under concurrency; which page gets evicted
/// depends on arrival order, as in any shared LRU.
class BufferPool {
 public:
  /// `capacity_pages` of zero disables caching (every touch is a miss).
  explicit BufferPool(size_t capacity_pages)
      : capacity_(capacity_pages) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Touches a page: returns true on a hit; on a miss the page is
  /// admitted, evicting the least recently used page if full.
  bool Touch(uint64_t page_id);

  /// Fallible Touch: the storage.bufferpool.fetch failpoint fires before
  /// the page is touched (hit argument = page id), modeling a physical
  /// read error. The executor's page-accounting paths call this so
  /// injected I/O faults surface as a clean Status all the way up.
  Result<bool> Fetch(uint64_t page_id);

  /// Fetches the `count` consecutive pages first_id, first_id + 1, ...
  /// (a document's page run) under one lock acquisition. LRU order,
  /// hit/miss/eviction counts and storage.bufferpool.fetch hits are
  /// exactly those of `count` Fetch calls in order; the first failing
  /// page stops the run with the pages before it already touched.
  Status FetchRun(uint64_t first_id, uint32_t count);

  size_t capacity() const { return capacity_; }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }
  /// Per-instance stats since construction or the last Reset(). The
  /// underlying obs counters are never rewound (see Reset()), so these
  /// subtract the totals recorded at the last Reset.
  uint64_t hits() const { return hits_.Value() - hits_base_; }
  uint64_t misses() const { return misses_.Value() - misses_base_; }
  uint64_t evictions() const { return evictions_.Value() - evictions_base_; }

  double HitRatio() const {
    uint64_t total = hits() + misses();
    return total == 0 ? 0.0
                      : static_cast<double>(hits()) /
                            static_cast<double>(total);
  }

  /// Drops all cached pages (the next touch of any page is cold) and
  /// rewinds the per-instance stats() view to zero. The live obs
  /// counters are NOT reset: registry snapshots of "bufferpool.*" stay
  /// monotonic across Reset() mid-run — a Reset used to erase history
  /// from every snapshot consumer (`stats`, --stats-json).
  void Reset();

 private:
  /// Touch with mu_ held (capacity_ > 0).
  bool TouchLocked(uint64_t page_id);

  size_t capacity_;
  mutable std::mutex mu_;    // Guards lru_ + map_ + *_base_.
  std::list<uint64_t> lru_;  // Front = most recently used.
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> map_;
  // xia::obs counters ("bufferpool.*"), exported via the unified path.
  obs::Counter hits_{"bufferpool.hits"};
  obs::Counter misses_{"bufferpool.misses"};
  obs::Counter evictions_{"bufferpool.evictions"};
  // Counter totals at the last Reset(); per-instance getters subtract
  // them so Reset keeps its pre-obs "stats start over" semantics without
  // rewinding the registry.
  uint64_t hits_base_ = 0;
  uint64_t misses_base_ = 0;
  uint64_t evictions_base_ = 0;
};

/// Page-id helpers partitioning the 64-bit space.
/// Collection data page `page` of document `doc`.
inline uint64_t DocPageId(int32_t doc, uint32_t page) {
  return (uint64_t{1} << 62) | (static_cast<uint64_t>(
                                    static_cast<uint32_t>(doc))
                                << 24) |
         (page & 0xFFFFFF);
}

/// Leaf page `page` of the index with stable hash `index_hash`.
inline uint64_t IndexPageId(uint64_t index_hash, uint32_t page) {
  return (uint64_t{2} << 62) | ((index_hash & 0x3FFFFFFFF) << 24) |
         (page & 0xFFFFFF);
}

}  // namespace xia

#endif  // XIA_STORAGE_BUFFER_POOL_H_
