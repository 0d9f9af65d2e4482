#ifndef XIA_OPTIMIZER_PLAN_H_
#define XIA_OPTIMIZER_PLAN_H_

#include <string>
#include <vector>

#include "index/index_def.h"
#include "index/index_matcher.h"
#include "index/virtual_index.h"
#include "query/query.h"

namespace xia {

/// One index probe of an access path.
struct IndexProbe {
  IndexDefinition index_def;
  VirtualIndexStats index_stats;
  bool index_is_virtual = true;
  MatchUse use = MatchUse::kStructural;
  int served_predicate = -1;  // Predicate the probe evaluates; -1 = none.
  bool needs_verify = false;  // Structural re-verification required.
  double est_entries_fetched = 0;

  std::string ToString() const;
};

/// Chosen access path of a query plan. Plans own copies of the index
/// definitions and statistics so they stay valid after the (possibly
/// throwaway overlay) catalog they were optimized against is gone.
///
/// An access path is either a collection scan, a single index probe, or —
/// with index ANDing enabled — a primary probe intersected with a
/// secondary probe on a different predicate (DB2-style IXAND).
struct AccessPath {
  bool use_index = false;

  // Primary probe, exposed as flat fields for compatibility with
  // single-index call sites (valid when use_index).
  IndexDefinition index_def;
  VirtualIndexStats index_stats;
  bool index_is_virtual = true;
  MatchUse use = MatchUse::kStructural;
  int served_predicate = -1;  // Predicate the probe evaluates; -1 = none.
  bool needs_verify = false;  // Structural re-verification required.
  double est_entries_fetched = 0;

  // Secondary ANDed probe (valid when has_secondary).
  bool has_secondary = false;
  IndexProbe secondary;

  std::string ToString() const;
};

/// A complete (single-access-path) query plan with cost breakdown.
struct QueryPlan {
  std::string query_id;
  NormalizedQuery query;
  AccessPath access;
  std::vector<int> residual_predicates;  // Indices into query.predicates.
  double est_cardinality = 0;
  double access_cost = 0;
  double residual_cost = 0;
  /// ORDER BY sort cost; zero when the access path returns rows in order
  /// (an exact sargable probe on the order-key pattern).
  double sort_cost = 0;
  double total_cost = 0;

  /// True if the plan uses the named index (primary or ANDed secondary).
  bool UsesIndex(const std::string& index_name) const {
    if (!access.use_index) return false;
    if (access.index_def.name == index_name) return true;
    return access.has_secondary &&
           access.secondary.index_def.name == index_name;
  }

  /// EXPLAIN-style rendering.
  std::string Explain() const;
};

}  // namespace xia

#endif  // XIA_OPTIMIZER_PLAN_H_
