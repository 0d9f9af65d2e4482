#include "index/virtual_index.h"

#include <algorithm>
#include <cmath>

namespace xia {

namespace {

int HeightForLeaves(double leaves, const StorageConstants& constants) {
  int height = 1;
  while (leaves > 1.0) {
    leaves /= constants.btree_fanout;
    ++height;
  }
  return height;
}

}  // namespace

VirtualIndexStats EstimateVirtualIndex(const PathSynopsis& synopsis,
                                       const IndexDefinition& def,
                                       const StorageConstants& constants) {
  AggValueStats agg = synopsis.AggregateValues(def.pattern);
  VirtualIndexStats stats;
  if (def.type == ValueType::kDouble) {
    stats.entries = static_cast<double>(agg.numeric_count);
    stats.avg_key_bytes = 8.0;
  } else {
    // VARCHAR indexes key *every* reached node (valueless nodes get an
    // empty key), matching BuildIndex — this is what makes them usable
    // for structural access.
    stats.entries = static_cast<double>(agg.node_count);
    stats.avg_key_bytes =
        agg.node_count == 0
            ? 1.0
            : std::max(1.0, agg.total_value_bytes /
                                static_cast<double>(agg.node_count));
  }
  stats.distinct = std::max(1.0, agg.distinct_estimate);
  double raw = stats.entries * (stats.avg_key_bytes + constants.rid_bytes +
                                constants.entry_overhead_bytes);
  stats.size_bytes = raw / constants.leaf_fill_factor;
  stats.leaf_pages =
      std::max(1.0, stats.size_bytes / constants.page_size_bytes);
  stats.height = HeightForLeaves(stats.leaf_pages, constants);
  return stats;
}

VirtualIndexStats StatsFromPhysical(const PathIndex& index,
                                    const StorageConstants& constants) {
  VirtualIndexStats stats;
  stats.entries = static_cast<double>(index.num_entries());
  stats.size_bytes = index.ByteSize(constants);
  stats.leaf_pages = index.LeafPages(constants);
  stats.height = index.Height(constants);
  stats.distinct = std::max(1.0, static_cast<double>(index.distinct_keys()));
  stats.avg_key_bytes =
      stats.entries == 0
          ? 8.0
          : (stats.size_bytes * constants.leaf_fill_factor / stats.entries) -
                constants.rid_bytes - constants.entry_overhead_bytes;
  return stats;
}

}  // namespace xia
