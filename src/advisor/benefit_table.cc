#include "advisor/benefit_table.h"

#include <algorithm>

#include "common/string_util.h"

namespace xia {

std::string BenefitPricingReport::ToString() const {
  std::string out = std::to_string(subsets_priced) + "/" +
                    std::to_string(subsets_enumerated) +
                    " subsets priced over " + std::to_string(classes) +
                    " query classes (" + StopReasonName(stop_reason) + ")";
  if (capped_classes > 0) {
    out += ", " + std::to_string(capped_classes) + " capped";
  }
  return out;
}

std::string AdvisorCacheCounters::ToString() const {
  std::string out = TraceLine();
  out += "; containment-cache: " + std::to_string(containment.hits) +
         " hits, " + std::to_string(containment.misses) + " misses, " +
         std::to_string(containment.largest_shard) + " in largest of " +
         std::to_string(containment.shards) + " shards";
  if (benefit.entries > 0 || benefit.priced > 0) {
    out += "; benefit-table: " + std::to_string(benefit.priced) +
           " priced, " + std::to_string(benefit.table_hits) + " hits, " +
           std::to_string(benefit.composed) + " composed, " +
           std::to_string(benefit.fallback_whatifs) + " fallback what-ifs";
    if (benefit.truncated) out += " (truncated)";
  }
  return out;
}

std::string AdvisorCacheCounters::TraceLine() const {
  return "cost-cache: " + std::to_string(cost.hits) + " hits, " +
         std::to_string(cost.misses) + " misses, " +
         std::to_string(cost.entries) + " plans; containment-cache: " +
         std::to_string(containment.entries) + " entries";
}

std::string BenefitTable::SubsetKey(const std::vector<int>& subset) {
  std::string key;
  for (int c : subset) {
    key += std::to_string(c);
    key.push_back(',');
  }
  return key;
}

void BenefitTable::Insert(int query_class, const std::vector<int>& subset,
                          BenefitEntry entry) {
  if (query_class < 0) return;
  size_t cls = static_cast<size_t>(query_class);
  if (cls >= classes_.size()) classes_.resize(cls + 1);
  ClassTable& table = classes_[cls];
  auto [it, inserted] = table.by_key.emplace(SubsetKey(subset),
                                             table.subsets.size());
  (void)it;
  if (!inserted) return;
  table.subsets.emplace_back(subset, std::move(entry));
  ++entries_count_;
  priced_.Increment();
}

bool BenefitTable::Lookup(int query_class, const std::vector<int>& overlap,
                          BenefitEntry* out) const {
  if (query_class < 0 ||
      static_cast<size_t>(query_class) >= classes_.size()) {
    return false;
  }
  const ClassTable& table = classes_[static_cast<size_t>(query_class)];
  auto it = table.by_key.find(SubsetKey(overlap));
  if (it == table.by_key.end()) return false;
  *out = table.subsets[it->second].second;
  return true;
}

namespace {

/// subset ⊆ overlap, both sorted ascending.
bool SortedSubsetOf(const std::vector<int>& subset,
                    const std::vector<int>& overlap) {
  size_t oi = 0;
  for (int c : subset) {
    while (oi < overlap.size() && overlap[oi] < c) ++oi;
    if (oi == overlap.size() || overlap[oi] != c) return false;
    ++oi;
  }
  return true;
}

}  // namespace

bool BenefitTable::Compose(int query_class, const std::vector<int>& overlap,
                           BenefitEntry* out) const {
  if (query_class < 0 ||
      static_cast<size_t>(query_class) >= classes_.size()) {
    return false;
  }
  const ClassTable& table = classes_[static_cast<size_t>(query_class)];
  // min over priced S ⊆ overlap of cost(q, S). By cost monotonicity the
  // optimizer under the full overlap can only do as well or better, so
  // this never *under*estimates a configuration's cost (never inflates a
  // promised benefit). Strict `<` + fixed enumeration-order scan makes
  // both the cost and the reported `used` set deterministic.
  bool found = false;
  for (const auto& [subset, entry] : table.subsets) {
    if (!SortedSubsetOf(subset, overlap)) continue;
    if (!found || entry.cost < out->cost) {
      *out = entry;
      found = true;
    }
  }
  return found;
}

void BenefitTable::MarkTruncated(StopReason reason) {
  truncated_ = true;
  stop_reason_ = reason;
}

BenefitTableStats BenefitTable::stats() const {
  BenefitTableStats stats;
  stats.priced = priced_.Value();
  stats.table_hits = table_hits_.Value();
  stats.composed = composed_.Value();
  stats.fallback_whatifs = fallback_whatifs_.Value();
  stats.entries = entries_count_;
  stats.truncated = truncated_;
  return stats;
}

std::string BenefitTable::DebugString() const {
  std::string out;
  for (size_t cls = 0; cls < classes_.size(); ++cls) {
    for (const auto& [subset, entry] : classes_[cls].subsets) {
      out += "class " + std::to_string(cls) + " {" + SubsetKey(subset) +
             "} cost=" + FormatDouble(entry.cost) + " used={" +
             SubsetKey(entry.used) + "}\n";
    }
  }
  if (truncated_) {
    out += std::string("truncated: ") + StopReasonName(stop_reason_) + "\n";
  }
  return out;
}

std::vector<Bitmap> DagAncestors(const GeneralizationDag& dag) {
  // nodes()[i].parents lists strictly-more-general candidates with no
  // third candidate between, so reflexive-transitive closure over parents
  // yields the strict-ancestor relation. Memoized DFS; the DAG is acyclic
  // by construction.
  const std::vector<GeneralizationDag::Node>& nodes = dag.nodes();
  std::vector<Bitmap> ancestors(nodes.size());
  std::vector<char> done(nodes.size(), 0);
  // Iterative post-order so deep generalization chains cannot overflow
  // the stack.
  for (size_t start = 0; start < nodes.size(); ++start) {
    if (done[start]) continue;
    std::vector<std::pair<size_t, size_t>> stack{{start, 0}};
    while (!stack.empty()) {
      auto& [node, next_parent] = stack.back();
      if (next_parent == 0 && ancestors[node].size() == 0) {
        ancestors[node] = Bitmap(nodes.size());
      }
      const std::vector<int>& parents = nodes[node].parents;
      if (next_parent < parents.size()) {
        size_t parent = static_cast<size_t>(parents[next_parent++]);
        if (!done[parent]) {
          stack.emplace_back(parent, 0);
        }
        continue;
      }
      for (int p : parents) {
        size_t parent = static_cast<size_t>(p);
        ancestors[node].Set(parent);
        ancestors[node] |= ancestors[parent];
      }
      done[node] = 1;
      stack.pop_back();
    }
  }
  return ancestors;
}

std::vector<std::vector<int>> EnumerateBenefitSubsets(
    const std::vector<int>& relevant, int max_degree, size_t max_subsets,
    const std::vector<Bitmap>* ancestors, bool* capped) {
  if (capped != nullptr) *capped = false;
  std::vector<std::vector<int>> subsets;
  auto push = [&](std::vector<int> subset) {
    if (subsets.size() >= max_subsets) {
      if (capped != nullptr) *capped = true;
      return false;
    }
    subsets.push_back(std::move(subset));
    return true;
  };
  // Size-ascending, lexicographic within each size: the empty set (the
  // query's baseline under this class), singletons, then incomparable
  // pairs. The cap therefore always keeps the entries the composed bound
  // leans on hardest.
  if (!push({})) return subsets;
  for (int c : relevant) {
    if (!push({c})) return subsets;
  }
  if (max_degree < 2) return subsets;
  for (size_t i = 0; i < relevant.size(); ++i) {
    for (size_t j = i + 1; j < relevant.size(); ++j) {
      int a = relevant[i];
      int b = relevant[j];
      if (ancestors != nullptr) {
        const Bitmap& a_anc = (*ancestors)[static_cast<size_t>(a)];
        const Bitmap& b_anc = (*ancestors)[static_cast<size_t>(b)];
        if (a_anc.Test(static_cast<size_t>(b)) ||
            b_anc.Test(static_cast<size_t>(a))) {
          continue;  // Comparable: the specific member's singleton wins.
        }
      }
      if (!push({a, b})) return subsets;
    }
  }
  return subsets;
}

}  // namespace xia
