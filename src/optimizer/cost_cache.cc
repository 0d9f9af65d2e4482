#include "optimizer/cost_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>

namespace xia {

namespace {

// Field and record separators for fingerprint/identity strings: control
// characters that cannot occur in pattern text or index names, so the
// concatenations below stay injective.
constexpr char kFieldSep = '\x1f';
constexpr char kRecordSep = '\x1e';

/// Appends the exact bit pattern of `v` (as hex), so statistics that
/// differ only in the last ulp still produce distinct identities.
void AppendDoubleBits(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  out->append(buf);
  out->push_back(kFieldSep);
}

void AppendPattern(std::string* out, const PathPattern& pattern) {
  out->append(pattern.ToString());
  out->push_back(kFieldSep);
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FnvString(uint64_t h, const std::string& s) {
  return Fnv1a(h, s.data(), s.size());
}

uint64_t FnvDouble(uint64_t h, double v) {
  return Fnv1a(h, &v, sizeof(v));
}

uint64_t FnvInt(uint64_t h, int64_t v) { return Fnv1a(h, &v, sizeof(v)); }

}  // namespace

uint32_t WhatIfCostCache::Intern(const std::string& identity) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  return interned_
      .try_emplace(identity, static_cast<uint32_t>(interned_.size()))
      .first->second;
}

void WhatIfCostCache::Key(uint32_t context, std::vector<uint32_t>* entries,
                          std::string* key) {
  // Varints are self-delimiting, so the id sequence decodes uniquely; the
  // entry set is sorted because the catalog, not the caller, orders the
  // entries the optimizer sees (by name, which the identity includes).
  std::sort(entries->begin(), entries->end());
  key->clear();
  auto append = [key](uint32_t id) {
    for (; id >= 0x80; id >>= 7) {
      key->push_back(static_cast<char>((id & 0x7f) | 0x80));
    }
    key->push_back(static_cast<char>(id));
  };
  append(context);
  for (uint32_t id : *entries) append(id);
}

WhatIfCostCache::PlanPtr WhatIfCostCache::Lookup(const std::string& key) {
  Shard& shard = shards_[std::hash<std::string>()(key) % kNumShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.Increment();
      return it->second;
    }
  }
  misses_.Increment();
  return nullptr;
}

void WhatIfCostCache::Insert(const std::string& key, PlanPtr plan) {
  Shard& shard = shards_[std::hash<std::string>()(key) % kNumShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.map.emplace(key, std::move(plan));  // First insert wins.
}

CostCacheStats WhatIfCostCache::stats() const {
  CostCacheStats s;
  s.hits = hits_.Value();
  s.misses = misses_.Value();
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.entries += shard.map.size();
  }
  return s;
}

std::string QueryFingerprint(const NormalizedQuery& query) {
  std::string fp;
  fp.append(query.collection);
  fp.push_back(kFieldSep);
  AppendPattern(&fp, query.for_path);
  fp.push_back(kRecordSep);
  for (const QueryPredicate& pred : query.predicates) {
    AppendPattern(&fp, pred.pattern);
    fp.push_back(static_cast<char>('0' + static_cast<int>(pred.op)));
    fp.push_back(kFieldSep);
    fp.append(pred.literal);
    fp.push_back(kRecordSep);
  }
  fp.push_back(kRecordSep);
  for (const PathPattern& r : query.returns) AppendPattern(&fp, r);
  fp.push_back(kRecordSep);
  for (const PathPattern& o : query.order_by) AppendPattern(&fp, o);
  return fp;
}

std::string CatalogEntryIdentity(const CatalogEntry& entry) {
  std::string id;
  id.append(entry.def.name);
  id.push_back(kFieldSep);
  id.append(entry.def.collection);
  id.push_back(kFieldSep);
  AppendPattern(&id, entry.def.pattern);
  id.push_back(static_cast<char>('0' + static_cast<int>(entry.def.type)));
  id.push_back(entry.is_virtual ? 'v' : 'p');
  id.push_back(kFieldSep);
  AppendDoubleBits(&id, entry.stats.entries);
  AppendDoubleBits(&id, entry.stats.size_bytes);
  AppendDoubleBits(&id, entry.stats.leaf_pages);
  id.append(std::to_string(entry.stats.height));
  id.push_back(kFieldSep);
  AppendDoubleBits(&id, entry.stats.distinct);
  AppendDoubleBits(&id, entry.stats.avg_key_bytes);
  return id;
}

std::string CollectionStateIdentity(const Optimizer& optimizer,
                                    const std::string& collection) {
  std::string id(1, kRecordSep);
  id.append(collection);
  id.push_back(kFieldSep);
  const Database& db = optimizer.db();
  if (const Collection* coll = db.GetCollection(collection)) {
    id.append(std::to_string(coll->ByteSize()));
    id.push_back(kFieldSep);
    id.append(std::to_string(coll->num_nodes()));
  }
  id.push_back(kFieldSep);
  if (const PathSynopsis* synopsis = db.synopsis(collection)) {
    id.append(std::to_string(synopsis->version()));
  }
  id.push_back(kFieldSep);
  constexpr size_t kDoubles = sizeof(CostModel) / sizeof(double);
  static_assert(sizeof(CostModel) == kDoubles * sizeof(double),
                "CostModel must stay a flat struct of doubles");
  double model[kDoubles];
  std::memcpy(model, &optimizer.cost_model(), sizeof(model));
  for (double v : model) AppendDoubleBits(&id, v);
  id.push_back(optimizer.options().enable_index_anding ? 'a' : '-');
  return id;
}

uint64_t PlanFingerprint(const QueryPlan& plan) {
  uint64_t h = 14695981039346656037ull;
  h = FnvInt(h, plan.access.use_index ? 1 : 0);
  if (plan.access.use_index) {
    h = FnvString(h, plan.access.index_def.name);
    h = FnvInt(h, static_cast<int>(plan.access.use));
    h = FnvInt(h, plan.access.served_predicate);
    h = FnvInt(h, plan.access.needs_verify ? 1 : 0);
    h = FnvDouble(h, plan.access.est_entries_fetched);
    h = FnvInt(h, plan.access.has_secondary ? 1 : 0);
    if (plan.access.has_secondary) {
      h = FnvString(h, plan.access.secondary.index_def.name);
      h = FnvInt(h, static_cast<int>(plan.access.secondary.use));
      h = FnvInt(h, plan.access.secondary.served_predicate);
      h = FnvDouble(h, plan.access.secondary.est_entries_fetched);
    }
  }
  for (int r : plan.residual_predicates) h = FnvInt(h, r);
  h = FnvDouble(h, plan.est_cardinality);
  h = FnvDouble(h, plan.access_cost);
  h = FnvDouble(h, plan.residual_cost);
  h = FnvDouble(h, plan.sort_cost);
  h = FnvDouble(h, plan.total_cost);
  return h;
}

}  // namespace xia
