#include "dml/dml.h"

#include <utility>

#include "common/metrics.h"
#include "storage/path_synopsis.h"
#include "xml/parser.h"

namespace xia {
namespace dml {

namespace {

obs::Counter& InsertCounter() {
  static obs::Counter& counter = obs::Registry().GetCounter("dml.inserts");
  return counter;
}

obs::Counter& DeleteCounter() {
  static obs::Counter& counter = obs::Registry().GetCounter("dml.deletes");
  return counter;
}

obs::Counter& UpdateCounter() {
  static obs::Counter& counter = obs::Registry().GetCounter("dml.updates");
  return counter;
}

obs::Counter& RebuildCounter() {
  static obs::Counter& counter =
      obs::Registry().GetCounter("dml.synopsis.rebuilds");
  return counter;
}

/// "/<root element name>" of a document — the pattern-level UpdateOp
/// target the capture stream hands the advisor.
std::string RootPattern(const Database& db, const Document& doc) {
  if (doc.empty()) return "/";
  NameId name = doc.node(doc.root()).name;
  return "/" + (name == kNoName ? std::string("?")
                                : std::string(db.names().NameOf(name)));
}

/// The named collection, or NotFound.
Result<Collection*> FindCollection(Database* db,
                                   const std::string& collection) {
  Collection* coll = db->GetCollection(collection);
  if (coll == nullptr) {
    return Status::NotFound("collection " + collection + " does not exist");
  }
  return coll;
}

/// The collection holding `doc`, or NotFound when either is missing or
/// the document was deleted.
Result<Collection*> FindLiveDocument(Database* db,
                                     const std::string& collection, DocId doc) {
  XIA_ASSIGN_OR_RETURN(Collection * coll, FindCollection(db, collection));
  if (!coll->IsLive(doc)) {
    return Status::NotFound("document " + std::to_string(doc) +
                            " of collection " + collection +
                            " does not exist (or was deleted)");
  }
  return coll;
}

/// The RUNSTATS fallback: a full rebuild once incremental deletes have
/// made the sample-backed statistics stale past the bound. Deterministic
/// in the collection's live contents, so live mutation and WAL replay
/// rebuild at the same points with the same results. A deferred rebuild
/// is only flagged here; its caller builds and installs it.
Status MaybeRebuildSynopsis(Database* db, const std::string& collection,
                            Fallback fallback, DmlResult* out) {
  const PathSynopsis* synopsis = db->synopsis(collection);
  if (synopsis == nullptr ||
      synopsis->StalenessFraction() <= kSynopsisStalenessBound) {
    return Status::Ok();
  }
  if (fallback == Fallback::kInline) {
    XIA_RETURN_IF_ERROR(db->Analyze(collection));
  }
  out->synopsis_rebuilt = true;
  RebuildCounter().Increment();
  return Status::Ok();
}

}  // namespace

Result<DmlResult> ApplyInsert(Database* db, Catalog* catalog,
                              const std::string& collection, Document doc,
                              const NameTable& names) {
  XIA_ASSIGN_OR_RETURN(Collection * coll, FindCollection(db, collection));
  doc.RemapNames(db->mutable_names()->Adopt(names));
  DmlResult out;
  out.doc = coll->Add(std::move(doc));
  out.root_pattern = RootPattern(*db, coll->doc(out.doc));
  XIA_ASSIGN_OR_RETURN(
      out.maintenance, ApplyDocumentInsert(*db, collection, out.doc, catalog));
  if (PathSynopsis* synopsis = db->mutable_synopsis(collection)) {
    uint64_t before = synopsis->TotalNodes();
    synopsis->AddDocument(coll->doc(out.doc));
    out.synopsis_nodes_added =
        static_cast<size_t>(synopsis->TotalNodes() - before);
  }
  InsertCounter().Increment();
  return out;
}

Result<DmlResult> ApplyInsert(Database* db, Catalog* catalog,
                              const std::string& collection,
                              const std::string& xml) {
  // Checked before parsing: a missing target reports NotFound, whatever
  // the text.
  XIA_RETURN_IF_ERROR(FindCollection(db, collection).status());
  NameTable names;
  XIA_ASSIGN_OR_RETURN(Document doc, XmlParser(&names).Parse(xml));
  return ApplyInsert(db, catalog, collection, std::move(doc), names);
}

Result<DmlResult> ApplyDelete(Database* db, Catalog* catalog,
                              const std::string& collection, DocId doc,
                              Fallback fallback) {
  XIA_ASSIGN_OR_RETURN(Collection * coll,
                       FindLiveDocument(db, collection, doc));
  DmlResult out;
  out.doc = doc;
  out.root_pattern = RootPattern(*db, coll->doc(doc));
  // Order matters: the synopsis and the indexes consume the document's
  // content, which Collection::Delete frees.
  if (PathSynopsis* synopsis = db->mutable_synopsis(collection)) {
    uint64_t before = synopsis->TotalNodes();
    synopsis->RemoveDocument(coll->doc(doc));
    out.synopsis_nodes_removed =
        static_cast<size_t>(before - synopsis->TotalNodes());
  }
  XIA_ASSIGN_OR_RETURN(out.maintenance,
                       ApplyDocumentDelete(*db, collection, doc, catalog));
  XIA_RETURN_IF_ERROR(coll->Delete(doc));
  XIA_RETURN_IF_ERROR(MaybeRebuildSynopsis(db, collection, fallback, &out));
  DeleteCounter().Increment();
  return out;
}

Result<DmlResult> ApplyUpdate(Database* db, Catalog* catalog,
                              const std::string& collection, DocId doc,
                              Document replacement, const NameTable& names,
                              Fallback fallback) {
  XIA_ASSIGN_OR_RETURN(DmlResult removed,
                       ApplyDelete(db, catalog, collection, doc, fallback));
  XIA_ASSIGN_OR_RETURN(
      DmlResult inserted,
      ApplyInsert(db, catalog, collection, std::move(replacement), names));
  DmlResult out = std::move(inserted);
  out.maintenance.indexes_touched = std::max(
      removed.maintenance.indexes_touched, out.maintenance.indexes_touched);
  out.maintenance.entries_removed += removed.maintenance.entries_removed;
  out.synopsis_nodes_removed = removed.synopsis_nodes_removed;
  out.synopsis_rebuilt = out.synopsis_rebuilt || removed.synopsis_rebuilt;
  UpdateCounter().Increment();
  return out;
}

Result<DmlResult> ApplyUpdate(Database* db, Catalog* catalog,
                              const std::string& collection, DocId doc,
                              const std::string& xml) {
  // Checked before parsing, as in the string ApplyInsert.
  XIA_RETURN_IF_ERROR(FindLiveDocument(db, collection, doc).status());
  NameTable names;
  XIA_ASSIGN_OR_RETURN(Document replacement, XmlParser(&names).Parse(xml));
  return ApplyUpdate(db, catalog, collection, doc, std::move(replacement),
                     names);
}

}  // namespace dml
}  // namespace xia
