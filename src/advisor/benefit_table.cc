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

namespace {

/// Comma-terminated ids ("1,5,"), the DebugString rendering of a subset.
std::string IdList(const std::vector<int>& ids) {
  std::string out;
  for (int id : ids) {
    out += std::to_string(id);
    out.push_back(',');
  }
  return out;
}

}  // namespace

void BenefitTable::Insert(int query_class, std::optional<int> candidate,
                          BenefitEntry entry) {
  if (query_class < 0) return;
  size_t cls = static_cast<size_t>(query_class);
  if (cls >= classes_.size()) classes_.resize(cls + 1);
  ClassTable& table = classes_[cls];
  if (!candidate.has_value()) {
    if (!table.cells.empty()) return;  // The empty set comes first, once.
  } else {
    // After the empty set, in ascending candidate order.
    if (table.cells.empty()) return;
    if (!table.candidates.empty() && table.candidates.back() >= *candidate) {
      return;
    }
    table.candidates.push_back(*candidate);
  }
  table.cells.push_back(std::move(entry));
  ++entries_count_;
  priced_.Increment();
}

const BenefitTable::ClassTable* BenefitTable::Class(int query_class) const {
  if (query_class < 0 ||
      static_cast<size_t>(query_class) >= classes_.size()) {
    return nullptr;
  }
  const ClassTable& table = classes_[static_cast<size_t>(query_class)];
  return table.cells.empty() ? nullptr : &table;
}

bool BenefitTable::Lookup(int query_class, const std::vector<int>& overlap,
                          BenefitEntry* out) const {
  const ClassTable* table = Class(query_class);
  if (table == nullptr || overlap.size() > 1) return false;
  if (overlap.empty()) {
    *out = table->cells.front();
    return true;
  }
  const std::vector<int>& ids = table->candidates;
  auto it = std::lower_bound(ids.begin(), ids.end(), overlap.front());
  if (it == ids.end() || *it != overlap.front()) return false;
  *out = table->cells[1 + static_cast<size_t>(it - ids.begin())];
  return true;
}

bool BenefitTable::Compose(int query_class, const std::vector<int>& overlap,
                           BenefitEntry* out) const {
  const ClassTable* table = Class(query_class);
  if (table == nullptr) return false;
  // min over the priced subsets of the overlap: the empty set, then each
  // member alone. By cost monotonicity the optimizer under the full
  // overlap can only do as well or better, so this never *under*estimates
  // a configuration's cost (never inflates a promised benefit). Strict `<`
  // in enumeration order (candidates ascending, as the overlap is) makes
  // both the cost and the reported `used` set deterministic.
  const BenefitEntry* best = &table->cells.front();
  size_t ci = 0;
  for (int c : overlap) {
    while (ci < table->candidates.size() && table->candidates[ci] < c) ++ci;
    if (ci == table->candidates.size()) break;
    const BenefitEntry& cell = table->cells[ci + 1];
    if (table->candidates[ci] == c && cell.cost < best->cost) best = &cell;
  }
  *out = *best;
  return true;
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
    const ClassTable& table = classes_[cls];
    for (size_t i = 0; i < table.cells.size(); ++i) {
      const BenefitEntry& cell = table.cells[i];
      const std::string subset =
          i == 0 ? "" : std::to_string(table.candidates[i - 1]) + ",";
      out += "class " + std::to_string(cls) + " {" + subset + "} cost=" +
             FormatDouble(cell.cost) + " used={" + IdList(cell.used) + "}\n";
    }
  }
  if (truncated_) {
    out += std::string("truncated: ") + StopReasonName(stop_reason_) + "\n";
  }
  return out;
}

std::vector<std::vector<int>> EnumerateBenefitSubsets(
    const std::vector<int>& relevant, bool* capped) {
  const size_t singletons = std::min(relevant.size(), kMaxSubsetsPerClass - 1);
  if (capped != nullptr) *capped = singletons < relevant.size();
  // The empty set (the query's baseline under this class) comes first,
  // so the cap always keeps the cell every composed bound starts from.
  std::vector<std::vector<int>> subsets{{}};
  for (size_t i = 0; i < singletons; ++i) subsets.push_back({relevant[i]});
  return subsets;
}

}  // namespace xia
