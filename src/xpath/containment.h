#ifndef XIA_XPATH_CONTAINMENT_H_
#define XIA_XPATH_CONTAINMENT_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "xpath/path.h"

namespace xia {

/// Counter snapshot of a ContainmentCache. `entries` (the set of memoized
/// pairs) is deterministic for a deterministic sequence of queries; `hits`
/// and `misses` are not under concurrency — two threads racing on the same
/// uncached pair both count a miss where a serial run counts one miss and
/// one hit. Treat hit/miss as diagnostics, not invariants.
struct ContainmentCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t entries = 0;       // Memoized pairs across all shards.
  size_t shards = 0;
  size_t largest_shard = 0;  // Entries in the fullest shard.
};

/// Exact language containment for linear path patterns: true iff every
/// root-to-node path matched by `specific` is also matched by `general`
/// (L(specific) ⊆ L(general)), over all possible documents.
///
/// This single predicate drives index matching ("can index I answer query
/// pattern Q?" — I's pattern must contain Q), redundancy detection in the
/// greedy-heuristic search, and parent/child edges of the generalization
/// DAG. Decided by subset-constructing `general`'s NFA over the joint
/// finite alphabet and checking emptiness of L(specific) ∩ ¬L(general).
bool PatternContains(const PathPattern& general, const PathPattern& specific);

/// True iff the two patterns match a common root-to-node path in some
/// document (L(a) ∩ L(b) ≠ ∅). Used for update-cost overlap tests: an
/// update under pattern U can only touch index I if the patterns intersect.
bool PatternsIntersect(const PathPattern& a, const PathPattern& b);

/// Mutual containment.
bool PatternsEquivalent(const PathPattern& a, const PathPattern& b);

/// Dense identifier of a pattern interned in one ContainmentCache.
using PatternId = uint32_t;

/// Memoizing wrapper around PatternContains. The advisor performs O(C²)
/// containment tests over the candidate set; this cache decides each
/// (general, specific) pair once.
///
/// Patterns are interned first: Intern() hands out dense ids (0, 1, ...)
/// in first-seen order, and patterns equal under operator== share one.
/// The memo is keyed by the id pair, so a lookup builds, hashes and
/// compares no strings. Loops that test one fixed pattern set over and
/// over (coverage bitmaps, the what-if kernel's relevance matrix, the
/// generalization DAG) intern once and then call Contains by id; one-off
/// callers use the pattern overload, which interns and then looks up. An
/// id means something only to the cache that assigned it.
///
/// Thread-safe: the intern table and the memo are each split into fixed
/// shards, each behind its own mutex, so concurrent what-if optimizations
/// (which all funnel index matching through one shared cache) contend
/// only when two lookups land on the same shard. A new pattern also takes
/// the id-table lock once. Misses compute PatternContains outside any
/// lock — two threads may race to compute the same pair, but the result
/// is a pure function of the patterns, so whichever insert lands first
/// wins and both observe the identical value.
class ContainmentCache {
 public:
  /// The id of `pattern`, assigning the next dense id on first sight.
  PatternId Intern(const PathPattern& pattern);

  /// Memoized PatternContains(general, specific) over ids this cache
  /// assigned.
  bool Contains(PatternId general, PatternId specific);

  /// Intern-then-lookup, for one-off callers.
  bool Contains(const PathPattern& general, const PathPattern& specific) {
    return Contains(Intern(general), Intern(specific));
  }

  /// Total memoized pairs across shards (takes every shard lock; meant
  /// for tests and reporting, not hot paths).
  size_t size() const;

  /// Hit/miss/shard-size counters (see ContainmentCacheStats caveats).
  ContainmentCacheStats stats() const;

 private:
  static constexpr size_t kNumShards = 16;
  struct InternShard {
    std::mutex mu;
    std::unordered_map<PathPattern, PatternId, PathPatternHash> ids;
  };
  // Keyed by (general id << 32) | specific id.
  struct MemoShard {
    std::mutex mu;
    std::unordered_map<uint64_t, bool> verdicts;
  };
  std::array<InternShard, kNumShards> intern_shards_;
  mutable std::array<MemoShard, kNumShards> memo_shards_;
  // patterns_[id] points at the interned key in its InternShard (map
  // nodes never move). Taken only when a pattern is new and on a miss.
  std::mutex patterns_mu_;
  std::vector<const PathPattern*> patterns_;
  // xia::obs counters (registry names "containment.*"): per-instance
  // reads via stats() keep their old semantics, while every live cache
  // also contributes to process-wide snapshots.
  obs::Counter hits_{"containment.hits"};
  obs::Counter misses_{"containment.misses"};
};

}  // namespace xia

#endif  // XIA_XPATH_CONTAINMENT_H_
