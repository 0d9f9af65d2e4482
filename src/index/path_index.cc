#include "index/path_index.h"

#include <algorithm>
#include <cmath>

namespace xia {

namespace {

bool EntryLess(const PathIndex::Entry& a, const PathIndex::Entry& b) {
  if (a.key == b.key) return a.node < b.node;
  return a.key < b.key;
}

double KeyBytes(const TypedValue& v) {
  return v.type == ValueType::kDouble ? 8.0
                                      : static_cast<double>(v.str.size());
}

size_t KeyChange(const PathIndex::Entry& a, const PathIndex::Entry& b) {
  return a.key == b.key ? 0 : 1;
}

/// Key changes along the chain `before`, run[0, n), `after`, where a null
/// neighbour is absent (the run is at that end of the index).
size_t KeyChangesAlong(const PathIndex::Entry* before,
                       const PathIndex::Entry* run, size_t n,
                       const PathIndex::Entry* after) {
  size_t changes = 0;
  if (before != nullptr) changes += KeyChange(*before, run[0]);
  for (size_t i = 1; i < n; ++i) changes += KeyChange(run[i - 1], run[i]);
  if (after != nullptr) changes += KeyChange(run[n - 1], *after);
  return changes;
}

/// The key change between the run's two neighbours, which are adjacent
/// exactly when the run is absent.
size_t KeyChangeAcross(const PathIndex::Entry* before,
                       const PathIndex::Entry* after) {
  if (before == nullptr || after == nullptr) return 0;
  return KeyChange(*before, *after);
}

}  // namespace

PathIndex::PathIndex(IndexDefinition def, std::vector<Entry> sorted_entries)
    : def_(std::move(def)), entries_(std::move(sorted_entries)) {
  std::sort(entries_.begin(), entries_.end(), EntryLess);
  for (size_t i = 0; i < entries_.size(); ++i) {
    key_bytes_total_ += KeyBytes(entries_[i].key);
    if (i > 0) key_changes_ += KeyChange(entries_[i - 1], entries_[i]);
  }
}

double PathIndex::ByteSize(const StorageConstants& constants) const {
  double raw = key_bytes_total_ +
               static_cast<double>(entries_.size()) *
                   (constants.rid_bytes + constants.entry_overhead_bytes);
  return raw / constants.leaf_fill_factor;
}

double PathIndex::LeafPages(const StorageConstants& constants) const {
  return std::max(1.0, ByteSize(constants) / constants.page_size_bytes);
}

int PathIndex::Height(const StorageConstants& constants) const {
  double leaves = LeafPages(constants);
  int height = 1;
  while (leaves > 1.0) {
    leaves /= constants.btree_fanout;
    ++height;
  }
  return height;
}

std::vector<NodeRef> PathIndex::LookupEq(const TypedValue& key) const {
  std::vector<NodeRef> out;
  Entry probe{key, NodeRef{}};
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), probe,
      [](const Entry& a, const Entry& b) { return a.key < b.key; });
  for (auto it = lo; it != entries_.end() && it->key == key; ++it) {
    out.push_back(it->node);
  }
  return out;
}

std::vector<NodeRef> PathIndex::LookupRange(
    const std::optional<TypedValue>& lo, bool lo_inclusive,
    const std::optional<TypedValue>& hi, bool hi_inclusive) const {
  std::vector<NodeRef> out;
  auto it = entries_.begin();
  if (lo.has_value()) {
    it = std::lower_bound(
        entries_.begin(), entries_.end(), Entry{*lo, NodeRef{}},
        [](const Entry& a, const Entry& b) { return a.key < b.key; });
    if (!lo_inclusive) {
      while (it != entries_.end() && it->key == *lo) ++it;
    }
  }
  for (; it != entries_.end(); ++it) {
    if (hi.has_value()) {
      if (hi_inclusive) {
        if (*hi < it->key) break;
      } else {
        if (!(it->key < *hi)) break;
      }
    }
    out.push_back(it->node);
  }
  return out;
}

size_t PathIndex::InsertEntries(std::vector<Entry> entries) {
  for (const Entry& e : entries) key_bytes_total_ += KeyBytes(e.key);
  std::sort(entries.begin(), entries.end(), EntryLess);
  const size_t old_size = entries_.size();
  entries_.resize(old_size + entries.size());
  // Back to front: [begin, hi) are old entries still in place and
  // [out, end) the merged tail. Each new entry, largest first, lands
  // after its upper bound among the old entries (so ties keep old
  // entries first, as std::merge does) and before the tail.
  auto hi = entries_.begin() + old_size;
  auto out = entries_.end();
  for (auto e = entries.rbegin(); e != entries.rend(); ++e) {
    auto slot = std::upper_bound(entries_.begin(), hi, *e, EntryLess);
    out = std::move_backward(slot, hi, out);
    *--out = std::move(*e);
    hi = slot;
    // The new entry separates two entries that were adjacent.
    const Entry* before = slot != entries_.begin() ? &*(slot - 1) : nullptr;
    const Entry* after = out + 1 != entries_.end() ? &*(out + 1) : nullptr;
    key_changes_ += KeyChangesAlong(before, &*out, 1, after);
    key_changes_ -= KeyChangeAcross(before, after);
  }
  return entries.size();
}

size_t PathIndex::RemoveDocument(DocId doc) {
  const size_t before_size = entries_.size();
  size_t kept = 0;
  for (size_t i = 0; i < before_size;) {
    if (entries_[i].node.doc != doc) {
      if (kept != i) entries_[kept] = std::move(entries_[i]);
      ++kept;
      ++i;
      continue;
    }
    // A run [i, end) of the document's entries leaves; its neighbours
    // become adjacent.
    size_t end = i;
    for (; end < before_size && entries_[end].node.doc == doc; ++end) {
      key_bytes_total_ -= KeyBytes(entries_[end].key);
    }
    const Entry* before = kept > 0 ? &entries_[kept - 1] : nullptr;
    const Entry* after = end < before_size ? &entries_[end] : nullptr;
    key_changes_ += KeyChangeAcross(before, after);
    key_changes_ -= KeyChangesAlong(before, &entries_[i], end - i, after);
    i = end;
  }
  entries_.erase(entries_.begin() + kept, entries_.end());
  return before_size - kept;
}

std::vector<NodeRef> PathIndex::AllNodes() const {
  std::vector<NodeRef> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.node);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace xia
