#include "index/maintenance.h"

#include <optional>
#include <utility>

#include "xpath/evaluator.h"

namespace xia {

namespace {

Result<const Collection*> CheckedCollection(const Database& db,
                                            const std::string& collection,
                                            DocId doc) {
  const Collection* coll = db.GetCollection(collection);
  if (coll == nullptr) {
    return Status::NotFound("collection " + collection + " does not exist");
  }
  if (doc < 0 || static_cast<size_t>(doc) >= coll->num_docs()) {
    return Status::OutOfRange("document " + std::to_string(doc) +
                              " not in collection " + collection);
  }
  return coll;
}

}  // namespace

DocumentEntries BuildDocumentEntries(const Catalog& catalog,
                                     const std::string& collection,
                                     const Document& document,
                                     const NameTable& names, DocId doc) {
  DocumentEntries built;
  built.doc = doc;
  std::string scratch;
  for (const CatalogEntry* entry : catalog.IndexesFor(collection)) {
    if (entry->is_virtual) continue;
    std::vector<PathIndex::Entry> entries;
    for (NodeIndex n : EvaluatePattern(document, names, entry->def.pattern)) {
      std::optional<TypedValue> key = TypedValue::Make(
          entry->def.type, document.TextView(n, &scratch));
      if (!key.has_value()) continue;
      entries.push_back(PathIndex::Entry{std::move(*key), NodeRef{doc, n}});
    }
    if (entries.empty()) continue;
    built.per_index.push_back({entry->def.name, std::move(entries)});
  }
  return built;
}

Result<MaintenanceStats> MergeDocumentEntries(DocumentEntries entries,
                                              Catalog* catalog) {
  MaintenanceStats stats;
  StorageConstants constants;
  for (DocumentEntries::ForIndex& built : entries.per_index) {
    CatalogEntry* entry = catalog->FindMutable(built.index);
    if (entry == nullptr || entry->physical == nullptr) {
      return Status::Internal("index " + built.index +
                              " was dropped after its entries were built");
    }
    stats.indexes_touched++;
    stats.entries_inserted +=
        entry->physical->InsertEntries(std::move(built.entries));
    XIA_RETURN_IF_ERROR(catalog->RefreshStats(built.index, constants));
  }
  return stats;
}

Result<MaintenanceStats> ApplyDocumentInsert(const Database& db,
                                             const std::string& collection,
                                             DocId doc, Catalog* catalog) {
  XIA_ASSIGN_OR_RETURN(const Collection* coll,
                       CheckedCollection(db, collection, doc));
  DocumentEntries entries = BuildDocumentEntries(
      *catalog, collection, coll->doc(doc), db.names(), doc);
  return MergeDocumentEntries(std::move(entries), catalog);
}

Result<MaintenanceStats> ApplyDocumentDelete(const Database& db,
                                             const std::string& collection,
                                             DocId doc, Catalog* catalog) {
  XIA_RETURN_IF_ERROR(CheckedCollection(db, collection, doc).status());
  MaintenanceStats stats;
  StorageConstants constants;
  for (const CatalogEntry* entry : catalog->IndexesFor(collection)) {
    if (entry->is_virtual) continue;
    CatalogEntry* mutable_entry = catalog->FindMutable(entry->def.name);
    size_t removed = mutable_entry->physical->RemoveDocument(doc);
    if (removed == 0) continue;
    stats.indexes_touched++;
    stats.entries_removed += removed;
    XIA_RETURN_IF_ERROR(
        catalog->RefreshStats(entry->def.name, constants));
  }
  return stats;
}

}  // namespace xia
