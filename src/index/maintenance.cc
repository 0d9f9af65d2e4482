#include "index/maintenance.h"

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

Result<MaintenanceStats> ApplyDocumentInsert(const Database& db,
                                             const std::string& collection,
                                             DocId doc, Catalog* catalog) {
  XIA_ASSIGN_OR_RETURN(const Collection* coll,
                       CheckedCollection(db, collection, doc));
  const Document& document = coll->doc(doc);
  MaintenanceStats stats;
  StorageConstants constants;
  std::string scratch;
  for (const CatalogEntry* entry : catalog->IndexesFor(collection)) {
    if (entry->is_virtual) continue;
    CatalogEntry* mutable_entry = catalog->FindMutable(entry->def.name);
    std::vector<PathIndex::Entry> new_entries;
    for (NodeIndex n :
         EvaluatePattern(document, db.names(), entry->def.pattern)) {
      std::optional<TypedValue> key = TypedValue::Make(
          entry->def.type, document.TextView(n, &scratch));
      if (!key.has_value()) continue;
      new_entries.push_back(
          PathIndex::Entry{std::move(*key), NodeRef{doc, n}});
    }
    if (new_entries.empty()) continue;
    stats.indexes_touched++;
    stats.entries_inserted +=
        mutable_entry->physical->InsertEntries(std::move(new_entries));
    XIA_RETURN_IF_ERROR(
        catalog->RefreshStats(entry->def.name, constants));
  }
  return stats;
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
