#ifndef XIA_ADVISOR_WHATIF_H_
#define XIA_ADVISOR_WHATIF_H_

#include <string>
#include <vector>

#include "advisor/benefit_table.h"
#include "common/status.h"
#include "optimizer/cost_cache.h"
#include "optimizer/explain.h"
#include "optimizer/optimizer.h"
#include "workload/workload.h"

namespace xia {

/// Interactive what-if analysis over a hypothetical index configuration —
/// the demo's "modify the recommended configuration by adding and removing
/// indexes and see the effect of these modifications on query
/// performance" (Figure 5, last bullet).
///
/// The session owns a catalog overlay: indexes added here are virtual
/// (statistics estimated from the synopsis, nothing built), drops remove
/// session indexes or hide base-catalog ones; the base catalog is never
/// modified.
///
/// Both EvaluateWorkload and ExplainQuery are EvaluateIndexesMode over
/// the overlay, sharing one what-if cost cache for the session's
/// lifetime: a query re-optimizes only when an input it can see changed.
/// The cache needs no invalidation hooks — keys embed the identities
/// (names + statistics bits) of exactly the relevant indexes and the
/// state of the query's collection, so AddIndex/DropIndex and data
/// changes alter the keys of affected queries and leave the rest hitting.
class WhatIfSession {
 public:
  /// `db` must outlive the session; `base` is copied. `threads` is the
  /// fan-out width for EvaluateWorkload: 1 keeps evaluation serial, 0
  /// resolves to std::thread::hardware_concurrency().
  WhatIfSession(const Database* db, Catalog base, CostModel cost_model,
                int threads = 1);

  /// Adds a hypothetical index. A blank name is auto-generated. Fails if
  /// the collection lacks statistics or the name collides.
  Result<std::string> AddIndex(IndexDefinition def);

  /// Removes an index (session-added or inherited from the base copy).
  Status DropIndex(const std::string& name);

  /// Estimated weighted cost of `workload` under the current overlay.
  Result<EvaluateIndexesResult> EvaluateWorkload(const Workload& workload);

  /// Best plan for one query under the current overlay.
  Result<QueryPlan> ExplainQuery(const Query& query);

  /// Names of indexes added during this session, in insertion order.
  const std::vector<std::string>& session_indexes() const {
    return session_indexes_;
  }

  const Catalog& catalog() const { return catalog_; }

  /// Counter snapshot of the session's plan + containment caches.
  AdvisorCacheCounters cache_counters() const;

 private:
  const Database* db_;
  Catalog catalog_;
  CostModel cost_model_;
  Optimizer optimizer_;
  ContainmentCache cache_;
  WhatIfCostCache cost_cache_;
  int threads_;
  std::vector<std::string> session_indexes_;
};

}  // namespace xia

#endif  // XIA_ADVISOR_WHATIF_H_
