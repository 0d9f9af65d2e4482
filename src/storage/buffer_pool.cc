#include "storage/buffer_pool.h"

#include "common/failpoint.h"

namespace xia {

Result<bool> BufferPool::Fetch(uint64_t page_id) {
  XIA_FAILPOINT_ARG("storage.bufferpool.fetch",
                    static_cast<int64_t>(page_id));
  return Touch(page_id);
}

Status BufferPool::FetchRun(uint64_t first_id, uint32_t count) {
  if (fp::AnyArmed() || capacity_ == 0) {
    // Per-page path: an armed failpoint sees every page id in order.
    for (uint32_t i = 0; i < count; ++i) {
      XIA_RETURN_IF_ERROR(Fetch(first_id + i).status());
    }
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < count; ++i) TouchLocked(first_id + i);
  return Status::Ok();
}

bool BufferPool::Touch(uint64_t page_id) {
  if (capacity_ == 0) {
    misses_.Increment();
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return TouchLocked(page_id);
}

bool BufferPool::TouchLocked(uint64_t page_id) {
  auto it = map_.find(page_id);
  if (it != map_.end()) {
    hits_.Increment();
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  misses_.Increment();
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    evictions_.Increment();
  }
  lru_.push_front(page_id);
  map_[page_id] = lru_.begin();
  return false;
}

void BufferPool::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
  // Rewind only the instance view; the registry counters keep counting
  // so "bufferpool.*" snapshots stay monotonic across mid-run resets.
  hits_base_ = hits_.Value();
  misses_base_ = misses_.Value();
  evictions_base_ = evictions_.Value();
}

}  // namespace xia
