#ifndef XIA_ADVISOR_BENEFIT_TABLE_H_
#define XIA_ADVISOR_BENEFIT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "optimizer/cost_cache.h"
#include "xpath/containment.h"

namespace xia {

/// CoPhy-style atomic-benefit decomposition (arXiv 1104.3214): instead of
/// re-running the what-if optimizer for every (configuration, query) pair
/// a search explores, price each distinct query once under the empty set
/// and under each relevant candidate alone, then score configurations by
/// composing the precomputed atomic costs. The number of optimizer calls
/// becomes O(distinct queries × relevant candidates) — independent of how
/// many configurations the search walks — which is what lets a
/// 10k-template compressed log advise at interactive latency.
///
/// Soundness rests on two properties the cost cache already proved out:
///  1. Relevance: a query's plan under configuration C depends only on
///     R(q) ∩ C (optimizer/cost_cache.h), so cost(q, S) for a priced subset
///     S equals cost(q, C) for every C with R(q) ∩ C == S — table lookups
///     are *exact*, not estimates.
///  2. Cost monotonicity: adding virtual indexes only widens the plan
///     space, so cost(q, O) <= min over priced S ⊆ O of cost(q, S). A
///     composed score is therefore a conservative (never optimistic)
///     upper bound on the true cost.

/// Most subsets priced per query class: the empty set plus the first
/// kMaxSubsetsPerClass - 1 relevant candidates in ascending id order.
constexpr size_t kMaxSubsetsPerClass = 128;

/// One priced (query class, relevant subset) cell: the exact optimizer
/// cost under that subset and which subset members the best plan used.
struct BenefitEntry {
  double cost = 0;
  std::vector<int> used;  // Sorted candidate ids the plan's access uses.
};

/// What the pricing phase did — embedded in Recommendation and search
/// traces so a truncated table is never mistaken for a complete one.
struct BenefitPricingReport {
  size_t classes = 0;             // Distinct query fingerprint classes.
  size_t subsets_enumerated = 0;  // After the per-class cap.
  size_t subsets_priced = 0;      // Entries actually in the table.
  size_t capped_classes = 0;      // Classes that hit kMaxSubsetsPerClass.
  /// kConverged when every enumerated subset was priced; kDeadline /
  /// kCancelled when the anytime budget fired mid-pricing and the table
  /// holds the best-so-far prefix.
  StopReason stop_reason = StopReason::kConverged;

  std::string ToString() const;
};

/// Deterministic counter snapshot of an atomic-benefit table (xia::obs
/// "benefit.*" family). All four counters advance in serial phases only.
struct BenefitTableStats {
  uint64_t priced = 0;            // Subsets priced into the table.
  uint64_t table_hits = 0;        // Exact (class, overlap) lookups served.
  uint64_t composed = 0;          // Queries scored by the composed bound.
  uint64_t fallback_whatifs = 0;  // Real what-if calls issued as fallback.
  size_t entries = 0;
  bool truncated = false;
};

/// Combined cache counters the advisor searches report (SearchResult).
struct AdvisorCacheCounters {
  CostCacheStats cost;
  ContainmentCacheStats containment;
  /// All-zero unless the evaluator ran decomposed.
  BenefitTableStats benefit;

  /// Full rendering, including the timing-dependent containment hit/miss
  /// split — for logs and bench output, not for determinism-checked
  /// traces.
  std::string ToString() const;

  /// The deterministic subset (cost-cache hits/misses/entries and
  /// containment entry count) — safe to embed in search traces that must
  /// be identical at any thread count.
  std::string TraceLine() const;
};

/// The atomic-benefit table: per query class, one cell for the empty set
/// and one for each priced candidate alone.
///
/// Thread-safety contract: Insert only runs in the (serial insert phases
/// of the) pricing pass; after pricing the table is read-only and safe to
/// share across the evaluator's parallel phases. Counters are atomic but
/// callers increment them in serial phases so they stay deterministic at
/// any thread count (the same contract as the what-if kernel's cache
/// lookups).
class BenefitTable {
 public:
  BenefitTable() = default;

  BenefitTable(const BenefitTable&) = delete;
  BenefitTable& operator=(const BenefitTable&) = delete;

  /// Prices the next cell of `query_class`: the empty set when
  /// `candidate` is nullopt, else {candidate}. Cells arrive in
  /// enumeration order — the empty set, then candidates ascending — and
  /// one out of that order (a repeat included) is ignored, so the first
  /// insert wins.
  void Insert(int query_class, std::optional<int> candidate,
              BenefitEntry entry);

  /// Exact cell lookup: the overlap (sorted) is empty or one candidate,
  /// and that cell is priced. Counts nothing — the evaluator attributes
  /// hits/composed/fallbacks in its serial collect phase, where the
  /// outcome is decided.
  bool Lookup(int query_class, const std::vector<int>& overlap,
              BenefitEntry* out) const;

  /// Composed conservative score: min cost over the class's empty-set
  /// cell and the cells of the overlap's (sorted) members (cost
  /// monotonicity makes that an upper bound on the true cost). Scans in
  /// enumeration order with strict-improvement ties, so the result —
  /// including which cell's `used` set is reported — is deterministic.
  /// Returns false when the class has no cell (not even the empty set).
  bool Compose(int query_class, const std::vector<int>& overlap,
               BenefitEntry* out) const;

  /// Marks the table as a best-so-far prefix (anytime pricing stopped).
  void MarkTruncated(StopReason reason);

  bool truncated() const { return truncated_; }
  StopReason stop_reason() const { return stop_reason_; }
  size_t entries() const { return entries_count_; }

  /// Serial-phase accounting hooks (see class comment).
  void CountHit() { table_hits_.Increment(); }
  void CountComposed() { composed_.Increment(); }
  void CountFallbackWhatIfs(uint64_t n) { fallback_whatifs_.Add(n); }

  BenefitTableStats stats() const;

  /// Deterministic full dump (class-ascending, enumeration order) for
  /// tests asserting thread-count independence of the pricing phase.
  std::string DebugString() const;

 private:
  /// One query class's cells in enumeration order: cells[0] prices the
  /// empty set and cells[i + 1] prices {candidates[i]}. A truncated
  /// pricing pass leaves a prefix.
  struct ClassTable {
    std::vector<int> candidates;  // Ascending.
    std::vector<BenefitEntry> cells;
  };

  /// The class's cells, or null for a class nothing was priced for.
  const ClassTable* Class(int query_class) const;

  bool truncated_ = false;
  StopReason stop_reason_ = StopReason::kConverged;
  size_t entries_count_ = 0;
  std::vector<ClassTable> classes_;  // Indexed by query class id.
  // xia::obs counters ("benefit.*"): deterministic at any thread count
  // because every increment happens in a serial phase.
  obs::Counter priced_{"benefit.priced"};
  obs::Counter table_hits_{"benefit.table_hits"};
  obs::Counter composed_{"benefit.composed"};
  obs::Counter fallback_whatifs_{"benefit.fallback_whatifs"};
};

/// The subsets priced for one query class, in enumeration order: the
/// empty set, then each of `relevant` (sorted) alone, truncated at
/// kMaxSubsetsPerClass. Sets `*capped` when the cap cut it short.
std::vector<std::vector<int>> EnumerateBenefitSubsets(
    const std::vector<int>& relevant, bool* capped);

}  // namespace xia

#endif  // XIA_ADVISOR_BENEFIT_TABLE_H_
