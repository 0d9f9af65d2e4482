#ifndef XIA_INDEX_MAINTENANCE_H_
#define XIA_INDEX_MAINTENANCE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "index/catalog.h"
#include "storage/database.h"
#include "xml/document.h"
#include "xml/name_table.h"

namespace xia {

/// Work performed by one maintenance operation — also the ground truth the
/// advisor's update-cost *estimates* are validated against (see
/// bench_maintenance).
struct MaintenanceStats {
  size_t indexes_touched = 0;
  size_t entries_inserted = 0;
  size_t entries_removed = 0;
};

/// The entries one new document adds to the physical indexes of its
/// collection: built before the document is added (BuildDocumentEntries),
/// merged after (MergeDocumentEntries).
struct DocumentEntries {
  /// One physical index's new entries, typed and tagged with `doc`.
  struct ForIndex {
    std::string index;  // The catalog entry's name.
    std::vector<PathIndex::Entry> entries;
  };
  /// The id every entry points at.
  DocId doc = -1;
  /// Each physical index the document adds at least one entry to, in
  /// catalog order.
  std::vector<ForIndex> per_index;
};

/// Evaluates each physical index of `collection` in `catalog` over
/// `document`, whose node names are ids of `names`, and keys the matches
/// as the index's type parses them, tagged with `doc`. A pattern step
/// that names something `names` lacks matches nothing, as it would under
/// any table the document's names were adopted into, so the entries equal
/// an evaluation after adoption. Reads only.
DocumentEntries BuildDocumentEntries(const Catalog& catalog,
                                     const std::string& collection,
                                     const Document& document,
                                     const NameTable& names, DocId doc);

/// Inserts built entries into their indexes (PathIndex::InsertEntries)
/// and refreshes the catalog statistics of each index touched. The
/// catalog must still hold every index the entries were built for.
Result<MaintenanceStats> MergeDocumentEntries(DocumentEntries entries,
                                              Catalog* catalog);

/// Propagates a newly added document into every physical index of its
/// collection: BuildDocumentEntries over the stored document, then
/// MergeDocumentEntries. Call after Collection::Add. The dml layer builds
/// before the add instead and merges after it (dml::PrepareDocument); the
/// collection's path synopsis is maintained on the same mutation
/// (PathSynopsis::AddDocument — see src/dml/dml.h), so estimates see
/// post-insert data without a full Database::Analyze.
Result<MaintenanceStats> ApplyDocumentInsert(const Database& db,
                                             const std::string& collection,
                                             DocId doc, Catalog* catalog);

/// Removes a document's entries from every physical index of its
/// collection. Call BEFORE Collection::Delete frees the document's slot
/// (the dml layer orders synopsis decrement, index maintenance, then the
/// tombstone). Index statistics in the catalog are refreshed here.
Result<MaintenanceStats> ApplyDocumentDelete(const Database& db,
                                             const std::string& collection,
                                             DocId doc, Catalog* catalog);

}  // namespace xia

#endif  // XIA_INDEX_MAINTENANCE_H_
