#ifndef XIA_OPTIMIZER_COST_CACHE_H_
#define XIA_OPTIMIZER_COST_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "index/catalog.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan.h"

namespace xia {

/// Counter snapshot of a WhatIfCostCache. Hits and misses are
/// deterministic at any thread count because the what-if kernel
/// (optimizer/whatif_kernel.h) looks keys up only in its serial phase.
struct CostCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Always 0: the cache cannot be switched off. Kept so readers that sum
  /// hits + misses + bypasses keep their meaning.
  uint64_t bypasses = 0;
  size_t entries = 0;  // Cached plans across all shards.
};

/// The what-if plan store — CoPhy's atomic-cost store: every what-if
/// optimization (configuration search, benefit-table pricing, Evaluate
/// Indexes mode, what-if sessions, drift checks) reads and fills one of
/// these through the what-if kernel.
///
/// A key pins every input the optimizer reads for one query: the query's
/// fingerprint, the state of its collection (byte size, node count, and
/// synopsis version) and the cost model — together the query *context* —
/// plus the identity of each catalog entry that can produce an index match
/// for the query. Entries that cannot match are left out: the optimizer
/// reads a catalog only through IndexMatcher::Match, so they cannot change
/// the plan. Equal keys therefore imply bit-identical plans, and a cache
/// may live as long as its owner likes and be shared by any number of
/// workloads, catalogs, and data states without invalidation hooks.
///
/// Identity strings are long, so the kernel interns each one to a small id
/// once per kernel and keys are short varint strings built from those ids
/// (Key()). Ids are private to one cache.
///
/// Thread-safe: plans live in 16 mutex-guarded shards and are shared
/// immutable, so a hit copies a pointer, not a plan. Racing inserts of one
/// key are idempotent (first wins; equal keys mean equal plans).
class WhatIfCostCache {
 public:
  using PlanPtr = std::shared_ptr<const QueryPlan>;

  WhatIfCostCache() = default;
  WhatIfCostCache(const WhatIfCostCache&) = delete;
  WhatIfCostCache& operator=(const WhatIfCostCache&) = delete;

  /// Small id for an identity string; equal strings get equal ids for the
  /// cache's lifetime.
  uint32_t Intern(const std::string& identity);

  /// The one key function: `context` followed by the sorted `entries`,
  /// varint-encoded into `*key`. Sorts `*entries` in place, so callers may
  /// pass entry ids in any order.
  static void Key(uint32_t context, std::vector<uint32_t>* entries,
                  std::string* key);

  /// The plan cached under `key`, or null. Counts one hit or miss.
  PlanPtr Lookup(const std::string& key);

  /// Memoizes `plan` under `key`; first insert wins.
  void Insert(const std::string& key, PlanPtr plan);

  CostCacheStats stats() const;

 private:
  static constexpr size_t kNumShards = 16;
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, PlanPtr> map;
  };

  mutable std::array<Shard, kNumShards> shards_;
  std::mutex intern_mu_;
  std::unordered_map<std::string, uint32_t> interned_;
  // xia::obs counters (registry names "costcache.*"): stats() still reads
  // this instance alone; the registry snapshot aggregates all instances.
  obs::Counter hits_{"costcache.hits"};
  obs::Counter misses_{"costcache.misses"};
};

/// Byte-exact fingerprint of every NormalizedQuery field the optimizer
/// (or a plan embedding the query) can observe. Two queries with equal
/// fingerprints receive bit-identical plans under equal catalogs, so
/// repeated workload queries share one cached optimization.
std::string QueryFingerprint(const NormalizedQuery& query);

/// Identity of one catalog entry as optimizer input: name, definition,
/// virtualness, and bit-exact statistics. Statistics are part of the
/// identity, so catalog changes that only refresh stats (RefreshStats
/// after index maintenance) change the key of every query that can see
/// the entry.
std::string CatalogEntryIdentity(const CatalogEntry& entry);

/// Everything besides the query and the catalog that the optimizer reads
/// when it optimizes a query of `collection`: the collection's byte size
/// and node count, its synopsis version (PathSynopsis::version), the cost
/// model, and the optimizer options. Starts with a record separator, so
/// QueryFingerprint(q) + CollectionStateIdentity(...) is a query context.
std::string CollectionStateIdentity(const Optimizer& optimizer,
                                    const std::string& collection);

/// Order-sensitive 64-bit fingerprint of a plan's externally observable
/// shape (access path, costs, cardinality) — query_id excluded, since
/// cached plans are re-labelled per requesting query. Used by tests and
/// the advisor trace to assert cached and fresh plans coincide.
uint64_t PlanFingerprint(const QueryPlan& plan);

}  // namespace xia

#endif  // XIA_OPTIMIZER_COST_CACHE_H_
