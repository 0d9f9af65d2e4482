#ifndef XIA_OPTIMIZER_WHATIF_KERNEL_H_
#define XIA_OPTIMIZER_WHATIF_KERNEL_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/bitmap.h"
#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/catalog.h"
#include "optimizer/cost_cache.h"
#include "optimizer/optimizer.h"
#include "query/query.h"
#include "xpath/containment.h"

namespace xia {

/// The what-if costing kernel: the one place that re-optimizes queries
/// under a hypothetical index configuration (the paper's Evaluate Indexes
/// contract). The advisor's configuration search and benefit-table
/// pricing, EvaluateIndexesMode, WhatIfSession, and DriftMonitor all run
/// their what-if optimizations through it.
///
/// A kernel binds a query list, a base catalog, and an *overlay* of
/// hypothetical entries (each carrying the name and statistics the
/// optimizer will see). A request names one query and a subset of the
/// overlay; Run() answers a batch of requests in three phases:
///  1. serial, in request order: build each request's cache key and look
///     it up, or fold the request into the first plan task with its key;
///  2. one fan-out over the distinct plan tasks, each optimizing its query
///     against the base catalog plus only the request's overlay entries;
///  3. serial: insert the new plans and return one result per request,
///     in request order.
/// Lookups and inserts happen only in the serial phases, so plans, cache
/// counters, and failures are identical at any thread count.
///
/// Construction interns every identity the keys need — per query class
/// the query context and the relevant base entries, plus each overlay
/// entry — into the cache, once. The database and base catalog must
/// therefore not change while the kernel lives; build a new kernel after
/// a change and its keys change with it.
class WhatIfKernel {
 public:
  using PlanPtr = WhatIfCostCache::PlanPtr;

  struct Request {
    size_t query = 0;          // Index into the kernel's query list.
    std::vector<int> overlay;  // Distinct overlay entry ids to add.
  };

  /// Every pointer must outlive the kernel. `threads` is the fan-out
  /// width (0 = hardware concurrency); a pool is spawned on the first
  /// batch with enough tasks to use it.
  WhatIfKernel(const Optimizer* optimizer, const std::vector<Query>* queries,
               const Catalog* base, std::vector<CatalogEntry> overlay,
               ContainmentCache* containment, WhatIfCostCache* cache,
               int threads = 1);

  /// Fingerprint class of `query`; classes are numbered by first
  /// occurrence, and queries of one class share cached plans.
  int query_class(size_t query) const { return class_of_[query]; }

  /// True when overlay entry `entry` can produce an index match for
  /// `query` (IndexMatcher::CanServe). Requests should name only relevant
  /// entries: irrelevant ones cannot change the plan but do change the key.
  bool Relevant(int entry, size_t query) const {
    return relevant_[static_cast<size_t>(entry)].Test(query);
  }

  int threads() const { return threads_; }

  /// Runs the three phases above. `cancel`, when non-null, is polled per
  /// plan task: once it fires, tasks not yet started end kCancelled. The
  /// first failing task cancels every later one, so the failure a
  /// request sees does not depend on scheduling. `*tasks`, when non-null,
  /// receives the number of plan tasks the batch issued.
  std::vector<Result<PlanPtr>> Run(const std::vector<Request>& requests,
                                   const CancelToken* cancel = nullptr,
                                   size_t* tasks = nullptr);

 private:
  Result<PlanPtr> Optimize(const Request& request) const;

  /// Null (serial) below four tasks per worker: a minimal-overlay
  /// optimization takes tens of microseconds, less than dispatch and a
  /// possible first-use thread spawn.
  ThreadPool* PoolFor(size_t tasks);

  const Optimizer* optimizer_;
  const std::vector<Query>* queries_;
  const Catalog* base_;
  std::vector<CatalogEntry> overlay_;
  ContainmentCache* containment_;
  WhatIfCostCache* cache_;
  int threads_;
  std::unique_ptr<ThreadPool> pool_;
  std::once_flag pool_once_;
  std::vector<int> class_of_;
  /// relevant_[e].Test(q): overlay entry e can serve query q.
  std::vector<Bitmap> relevant_;
  /// Interned ids: per class its context and relevant base entries, per
  /// overlay entry its identity.
  std::vector<uint32_t> context_id_;
  std::vector<std::vector<uint32_t>> base_ids_;
  std::vector<uint32_t> overlay_ids_;
};

}  // namespace xia

#endif  // XIA_OPTIMIZER_WHATIF_KERNEL_H_
