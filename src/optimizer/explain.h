#ifndef XIA_OPTIMIZER_EXPLAIN_H_
#define XIA_OPTIMIZER_EXPLAIN_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "optimizer/cost_cache.h"
#include "optimizer/optimizer.h"
#include "query/query.h"
#include "xpath/containment.h"

namespace xia {

/// One candidate index pattern enumerated for a query — the output row of
/// the Enumerate Indexes mode (paper Figure 2).
struct CandidatePattern {
  PathPattern pattern;
  ValueType type = ValueType::kVarchar;
  bool sargable = false;  // A comparison can be pushed into the index probe.
  std::string source;     // Human-readable origin ("predicate ...", "FOR path").

  std::string ToString() const;
};

/// Result of running the optimizer in Enumerate Indexes mode for one query.
struct EnumerateIndexesResult {
  std::string query_id;
  std::string collection;
  std::vector<CandidatePattern> candidates;

  std::string ToString() const;
};

/// The paper's first new EXPLAIN mode. A catalog overlay containing only
/// the universal virtual indexes (`//*` and `//@*`, in both key types) is
/// handed to regular index matching; every query pattern that matches one
/// of them is a pattern *some* index could serve, and becomes a basic
/// candidate. This is exactly the "if all possible indexes were available,
/// which query patterns would benefit?" question of Section 2.1.
Result<EnumerateIndexesResult> EnumerateIndexesMode(const Database& db,
                                                    const Query& query,
                                                    ContainmentCache* cache);

/// Result of running Evaluate Indexes mode over a workload: per-query
/// plans and cost under a hypothetical index configuration.
struct EvaluateIndexesResult {
  std::vector<QueryPlan> plans;  // Aligned with the input query vector.
  double total_weighted_cost = 0;
  /// Index name -> number of queries whose best plan uses it.
  std::map<std::string, int> index_use_counts;

  std::string ToString() const;
};

/// The paper's second new EXPLAIN mode: simulate `config` by creating its
/// indexes as virtual entries in a catalog overlay (on top of
/// `base_catalog`), re-optimize every query, and report estimated costs
/// and which indexes the plans actually use.
///
/// A thin adapter over the what-if kernel (optimizer/whatif_kernel.h):
/// queries resolve through `cost_cache` — a cache private to this call
/// when null — so repeated queries optimize once, and a caller-owned
/// cache carries plans across calls, catalog edits, and data changes
/// (keys pin every optimizer input). `threads` is the fan-out width;
/// results are identical at any width.
Result<EvaluateIndexesResult> EvaluateIndexesMode(
    const Optimizer& optimizer, const std::vector<Query>& queries,
    const std::vector<IndexDefinition>& config, const Catalog& base_catalog,
    ContainmentCache* cache, int threads = 1,
    WhatIfCostCache* cost_cache = nullptr);

/// Builds a catalog overlay with `config` added as virtual indexes whose
/// statistics are estimated from each collection's synopsis. Names that
/// collide with existing entries are suffixed.
Result<Catalog> MakeVirtualOverlay(const Database& db,
                                   const Catalog& base_catalog,
                                   const std::vector<IndexDefinition>& config,
                                   const StorageConstants& constants);

}  // namespace xia

#endif  // XIA_OPTIMIZER_EXPLAIN_H_
