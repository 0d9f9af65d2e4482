#ifndef XIA_INDEX_VIRTUAL_INDEX_H_
#define XIA_INDEX_VIRTUAL_INDEX_H_

#include "index/index_def.h"
#include "index/path_index.h"
#include "storage/path_synopsis.h"

namespace xia {

/// Statistics-derived shape of a hypothetical (virtual) index. Virtual
/// indexes exist only in the catalog: the optimizer costs plans against
/// them exactly as it would against physical indexes, which is what makes
/// the paper's Enumerate/Evaluate Indexes modes possible without building
/// anything on disk.
struct VirtualIndexStats {
  double entries = 0;       // Estimated key count.
  double size_bytes = 0;    // Estimated on-disk size.
  double leaf_pages = 1;
  int height = 1;
  double distinct = 1;      // Estimated distinct keys.
  double avg_key_bytes = 8;
};

/// Estimates the shape of the index `def` would have if built, from the
/// collection's path synopsis. For DOUBLE indexes only numeric values are
/// counted (non-castable values are rejected at insert, as in DB2).
VirtualIndexStats EstimateVirtualIndex(const PathSynopsis& synopsis,
                                       const IndexDefinition& def,
                                       const StorageConstants& constants);

/// The same shape read off a built index — what the catalog keeps for a
/// physical entry (Catalog::AddPhysical, refreshed by RefreshStats after
/// each maintenance step) and what the sizing bench validates the
/// estimator against. O(1): every field comes from a figure PathIndex
/// keeps (entry count, key bytes, distinct_keys()), so no entry is
/// visited.
VirtualIndexStats StatsFromPhysical(const PathIndex& index,
                                    const StorageConstants& constants);

}  // namespace xia

#endif  // XIA_INDEX_VIRTUAL_INDEX_H_
