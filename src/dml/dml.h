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
/// verb, the REPL, or WAL replay. StorageEngine's logged mutations pass
/// the Document their validation parse built; its ReplayRecord path
/// passes the logged XML to the string overloads, which parse it once
/// against a private name table and make the same Document call. Both
/// intern the document's names in the order it first uses them, which
/// is what makes a recovered database bit-identical to one that never
/// crashed. Each apply performs, in a fixed order:
///
///   1. the Collection mutation (Add, or synopsis-decrement-then-Delete
///      for tombstones — the synopsis and the indexes must consume the
///      document's content before Collection::Delete frees it),
///   2. incremental physical-index maintenance (index/maintenance.h),
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
/// Callers must hold exclusive access to the database/catalog (the
/// storage engine's apply lock, or owning the database alone, as
/// recovery does).
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

/// Appends `doc`, built against `names` (a private table, e.g. the one
/// the caller's validation parse filled), to `collection` as a new
/// document, maintaining indexes and synopsis incrementally. First
/// interns `names` into the database's table in id order — the order a
/// parse straight into that table would have interned them, so name ids
/// match a direct parse — and remaps the nodes onto those ids. Fails
/// without touching the database when `collection` does not exist.
Result<DmlResult> ApplyInsert(Database* db, Catalog* catalog,
                              const std::string& collection, Document doc,
                              const NameTable& names);

/// Parses `xml` against a private name table, then applies the insert
/// above (WAL replay, tests, benches): one parse, and a document that
/// fails to parse changes nothing.
Result<DmlResult> ApplyInsert(Database* db, Catalog* catalog,
                              const std::string& collection,
                              const std::string& xml);

/// Tombstones document `doc` of `collection`: synopsis decrement, index
/// entry removal, Collection::Delete, then the staleness check. Fails on
/// dead or out-of-range ids.
Result<DmlResult> ApplyDelete(Database* db, Catalog* catalog,
                              const std::string& collection, DocId doc,
                              Fallback fallback = Fallback::kInline);

/// Replaces document `doc` with `replacement` (built against `names`, as
/// for ApplyInsert): ApplyDelete(doc) then ApplyInsert(replacement). The
/// result's `doc` is the NEW document's id; the maintenance stats
/// aggregate both halves. The replacement is already a document, so the
/// delete half never runs ahead of an insert half that cannot apply. The
/// staleness check runs between the halves, where the delete half ends.
Result<DmlResult> ApplyUpdate(Database* db, Catalog* catalog,
                              const std::string& collection, DocId doc,
                              Document replacement, const NameTable& names,
                              Fallback fallback = Fallback::kInline);

/// Checks that `doc` is live, parses `xml` against a private name table,
/// then applies the update above: one parse, and a replacement that
/// fails to parse leaves the target live and the database unchanged.
Result<DmlResult> ApplyUpdate(Database* db, Catalog* catalog,
                              const std::string& collection, DocId doc,
                              const std::string& xml);

}  // namespace dml
}  // namespace xia

#endif  // XIA_DML_DML_H_
