#ifndef XIA_INDEX_PATH_INDEX_H_
#define XIA_INDEX_PATH_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "index/index_def.h"
#include "storage/node_store.h"

namespace xia {

/// Physical storage constants shared by actual index sizing, virtual index
/// size estimation, and the cost model's page math. One set of constants
/// keeps estimated and actual sizes comparable.
struct StorageConstants {
  double page_size_bytes = 4096.0;
  double leaf_fill_factor = 0.7;   // B-tree leaves ~70% full.
  double rid_bytes = 8.0;          // (doc, node) record id.
  double entry_overhead_bytes = 4.0;
  double btree_fanout = 200.0;     // Interior-node fanout.
  double node_storage_bytes = 48.0;  // Per stored XML node, sans value.
};

/// A materialized path-value index: sorted (key -> NodeRef) entries built
/// from every node the XMLPATTERN reaches. Equality and range lookups
/// return matching node references; AllNodes() supports structural
/// (existence-only) use of the index.
class PathIndex {
 public:
  struct Entry {
    TypedValue key;
    NodeRef node;
  };

  PathIndex(IndexDefinition def, std::vector<Entry> sorted_entries);

  const IndexDefinition& def() const { return def_; }
  size_t num_entries() const { return entries_.size(); }

  /// Actual byte size under the given storage constants.
  double ByteSize(const StorageConstants& constants) const;

  /// Leaf page count and B-tree height under the constants.
  double LeafPages(const StorageConstants& constants) const;
  int Height(const StorageConstants& constants) const;

  std::vector<NodeRef> LookupEq(const TypedValue& key) const;

  /// Range scan; unset bounds are open. `lo_inclusive` / `hi_inclusive`
  /// control bound closedness.
  std::vector<NodeRef> LookupRange(const std::optional<TypedValue>& lo,
                                   bool lo_inclusive,
                                   const std::optional<TypedValue>& hi,
                                   bool hi_inclusive) const;

  /// Every indexed node (structural use).
  std::vector<NodeRef> AllNodes() const;

  /// Index maintenance: inserts `entries` keeping sorted order, with the
  /// result std::merge would give. Merges in place from the back: the
  /// vector grows into spare capacity, each new entry's slot is found by
  /// binary search, and the old entries behind it move up as one block.
  /// distinct_keys() is kept by comparing each new entry's key with its
  /// two neighbours' (and theirs with each other). Returns the number of
  /// entries added.
  size_t InsertEntries(std::vector<Entry> entries);

  /// Index maintenance: drops every entry referring to `doc` in one
  /// compacting scan. Within one key a document's entries are adjacent,
  /// so they leave in runs, and distinct_keys() is kept by comparing
  /// only each run's keys and its two neighbours. Returns the number of
  /// entries removed.
  size_t RemoveDocument(DocId doc);

  const std::vector<Entry>& entries() const { return entries_; }

  /// Number of distinct keys: the positions where the sorted entries'
  /// key differs from the previous entry's (the first entry counts).
  /// Kept by the constructor, InsertEntries and RemoveDocument, so
  /// reading it is O(1).
  size_t distinct_keys() const {
    return entries_.empty() ? 0 : key_changes_ + 1;
  }

 private:
  IndexDefinition def_;
  std::vector<Entry> entries_;  // Sorted by key.
  double key_bytes_total_ = 0;
  /// Adjacent entry pairs whose keys differ.
  size_t key_changes_ = 0;
};

}  // namespace xia

#endif  // XIA_INDEX_PATH_INDEX_H_
