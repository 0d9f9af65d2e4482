#ifndef XIA_COMMON_RW_LOCK_H_
#define XIA_COMMON_RW_LOCK_H_

#include <pthread.h>

#include "common/logging.h"

namespace xia {

/// A reader/writer lock that prefers writers: once a writer waits, new
/// readers queue behind it, so a short exclusive section is not starved
/// by a stream of overlapping readers (glibc's default rwlock, which
/// std::shared_mutex wraps, lets new readers in ahead of a waiting
/// writer). Meets the SharedMutex requirements, so std::unique_lock and
/// std::shared_lock take it. Not recursive: a thread must not take it
/// shared twice, since a writer queued in between would deadlock both.
class RwLock {
 public:
  RwLock() {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
    pthread_rwlockattr_setkind_np(
        &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
    XIA_CHECK(pthread_rwlock_init(&rw_, &attr) == 0);
    pthread_rwlockattr_destroy(&attr);
  }
  ~RwLock() { pthread_rwlock_destroy(&rw_); }
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void lock() { XIA_CHECK(pthread_rwlock_wrlock(&rw_) == 0); }
  bool try_lock() { return pthread_rwlock_trywrlock(&rw_) == 0; }
  void unlock() { pthread_rwlock_unlock(&rw_); }
  void lock_shared() { XIA_CHECK(pthread_rwlock_rdlock(&rw_) == 0); }
  bool try_lock_shared() { return pthread_rwlock_tryrdlock(&rw_) == 0; }
  void unlock_shared() { pthread_rwlock_unlock(&rw_); }

 private:
  pthread_rwlock_t rw_;
};

}  // namespace xia

#endif  // XIA_COMMON_RW_LOCK_H_
