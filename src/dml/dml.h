#ifndef XIA_DML_DML_H_
#define XIA_DML_DML_H_

#include <string>

#include "common/status.h"
#include "index/catalog.h"
#include "index/maintenance.h"
#include "storage/database.h"
#include "xml/document.h"
#include "xml/name_table.h"

namespace xia {
namespace dml {

/// xia::dml — the single document mutation path of the stack.
///
/// Every insert/delete/update of a document funnels through ApplyInsert /
/// ApplyDelete / ApplyUpdate, whether it originates from a live server
/// verb, the REPL, or WAL replay. A new document is first prepared
/// (PrepareDocument): parsed once against a private name table, with its
/// index entries built against that table. StorageEngine's logged
/// mutations prepare before they log and apply what they prepared under
/// the apply lock; its ReplayRecord path passes the logged XML to the
/// string overloads, which prepare it and apply it at once. Both intern
/// the document's names in the order it first uses them, which is what
/// makes a recovered database bit-identical to one that never crashed.
/// Each apply performs, in a fixed order:
///
///   1. the Collection mutation (Add, or synopsis-decrement-then-Delete
///      for tombstones — the synopsis and the indexes must consume the
///      document's content before Collection::Delete frees it),
///   2. incremental physical-index maintenance (index/maintenance.h): a
///      new document's prepared entries are merged, a deleted one's
///      removed,
///   3. incremental path-synopsis and histogram maintenance
///      (PathSynopsis::AddDocument / RemoveDocument) — estimates see the
///      mutation immediately, no full re-Analyze per mutation,
///   4. the RUNSTATS fallback: when incremental deletes have made the
///      sample-backed statistics stale past kSynopsisStalenessBound,
///      Database::Analyze rebuilds the synopsis from the live documents
///      (Fallback::kInline), or the apply only flags the rebuild and the
///      caller builds it beside readers, then installs it
///      (Fallback::kDeferred).
///
/// Callers of the applies must hold exclusive access to the
/// database/catalog (the storage engine's apply lock, or owning the
/// database alone, as recovery does). PrepareDocument only reads; between
/// it and its apply, nothing else may mutate the target collection or its
/// indexes (the engine holds its writer's mutex across both).
///
/// Update semantics: an update tombstones the old document and inserts
/// the new content under a fresh DocId (our region encoding makes
/// in-place subtree edits a renumbering problem — see RadegastXDB,
/// arXiv 1903.03761 — so document-granularity replace is the honest
/// unit). DocIds are assigned in Collection::Add order, which is what
/// makes WAL replay deterministic.

/// Stale-sample bound: when the fraction of incrementally removed node
/// instances exceeds this, the next mutation triggers a full Analyze.
inline constexpr double kSynopsisStalenessBound = 0.3;

/// Where a delete or update runs a RUNSTATS fallback its staleness check
/// finds due.
enum class Fallback {
  /// Inside the apply: Database::Analyze right after the check (WAL
  /// replay, tests, an engine without an apply lock).
  kInline,
  /// Only flagged (DmlResult::synopsis_rebuilt), leaving the live
  /// synopsis in place: the caller builds its replacement with
  /// Database::BuildSynopsis, beside readers, and installs it with
  /// Database::InstallSynopsis before it acknowledges the mutation. That
  /// equals the inline rebuild: a delete's check is its last step, and
  /// an update's replacement, added after its check, is the collection's
  /// last document, which a build folds last, as the insert half folds
  /// it into the inline rebuild.
  kDeferred,
};

/// What one DML apply did — surfaced by the server verbs, captured into
/// the workload stream, and validated against the advisor's maintenance
/// cost estimates (bench_maintenance).
struct DmlResult {
  /// Inserted document's id (insert/update); the tombstoned id for
  /// deletes.
  DocId doc = -1;
  /// Index maintenance performed (entries inserted/removed).
  MaintenanceStats maintenance;
  /// Root element pattern of the affected document, e.g. "/site" — the
  /// UpdateOp target the capture stream records for the advisor.
  std::string root_pattern;
  /// Node instances added to / removed from the path synopsis.
  size_t synopsis_nodes_added = 0;
  size_t synopsis_nodes_removed = 0;
  /// True when the staleness bound tripped the RUNSTATS fallback.
  bool synopsis_rebuilt = false;
};

/// A new document ready to apply (see PrepareDocument). Its nodes still
/// carry the ids of `names`.
struct PreparedDocument {
  std::string collection;
  Document doc;
  NameTable names;
  /// Its entries in every physical index of `collection`, tagged with the
  /// id the collection assigns next.
  DocumentEntries index_entries;
};

/// Parses `xml` against a private name table and builds its index entries
/// (BuildDocumentEntries against that table) for the id `collection`
/// assigns next: its num_docs(), since a delete keeps its slot. Only
/// reads `db` and `catalog`. A missing collection is NotFound whatever
/// the text, and a document that fails to parse is refused.
Result<PreparedDocument> PrepareDocument(const Database& db,
                                         const Catalog& catalog,
                                         const std::string& collection,
                                         const std::string& xml);

/// Appends a prepared document to its collection, maintaining indexes
/// and synopsis incrementally. First interns its names into the
/// database's table in id order — the order a parse straight into that
/// table would have interned them, so name ids match a direct parse —
/// and remaps the nodes onto those ids. Fails without touching the
/// database when the collection does not exist, or, as Internal, when it
/// would assign an id other than the prepared one.
Result<DmlResult> ApplyInsert(Database* db, Catalog* catalog,
                              PreparedDocument doc);

/// PrepareDocument, then the apply above (WAL replay, tests, benches).
Result<DmlResult> ApplyInsert(Database* db, Catalog* catalog,
                              const std::string& collection,
                              const std::string& xml);

/// Tombstones document `doc` of `collection`: synopsis decrement, index
/// entry removal, Collection::Delete, then the staleness check. Fails on
/// dead or out-of-range ids.
Result<DmlResult> ApplyDelete(Database* db, Catalog* catalog,
                              const std::string& collection, DocId doc,
                              Fallback fallback = Fallback::kInline);

/// Replaces document `doc` of the replacement's collection with
/// `replacement`: ApplyDelete(doc) then ApplyInsert(replacement). The
/// result's `doc` is the NEW document's id; the maintenance stats
/// aggregate both halves. Both halves are checked before the delete half
/// runs, so it never runs ahead of an insert half that cannot apply. The
/// staleness check runs between the halves, where the delete half ends.
Result<DmlResult> ApplyUpdate(Database* db, Catalog* catalog, DocId doc,
                              PreparedDocument replacement,
                              Fallback fallback = Fallback::kInline);

/// Checks that `doc` is live, then PrepareDocument and the update above:
/// a replacement that fails to parse leaves the target live and the
/// database unchanged.
Result<DmlResult> ApplyUpdate(Database* db, Catalog* catalog,
                              const std::string& collection, DocId doc,
                              const std::string& xml);

}  // namespace dml
}  // namespace xia

#endif  // XIA_DML_DML_H_
