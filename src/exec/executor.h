#ifndef XIA_EXEC_EXECUTOR_H_
#define XIA_EXEC_EXECUTOR_H_

#include <vector>

#include "common/status.h"
#include "index/catalog.h"
#include "optimizer/cost_model.h"
#include "optimizer/plan.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/node_store.h"

namespace xia {

/// Execution outcome: result nodes, simulated page accounting, and actual
/// wall-clock time — what the demo's final screen displays after the
/// recommended configuration is physically created.
struct ExecResult {
  std::vector<NodeRef> nodes;  // Driving-path nodes of qualifying docs.
  /// RETURN-clause projections evaluated over qualifying documents
  /// (empty when the query has no return paths).
  std::vector<NodeRef> returned;
  size_t docs_matched = 0;
  /// Cold-cache page estimate (independent of any buffer pool).
  double simulated_page_reads = 0;
  /// Buffer-pool accounting for this execution (zero without a pool);
  /// buffer_misses is the number of physical page reads performed.
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  size_t nodes_examined = 0;
  double wall_micros = 0;
};

/// Renders up to `max_items` projected results (or driving nodes when the
/// query had no RETURN clause) as XML fragments, one per line — what the
/// demo displays after running a query for real.
std::string RenderResults(const Database& db, const std::string& collection,
                          const ExecResult& result, size_t max_items);

/// Executes optimized plans against the real store and physical indexes.
///
/// Semantics note: predicates are evaluated at document granularity (a
/// document qualifies when each predicate has a satisfying node), which is
/// exact for the SQL/XML XMLEXISTS form and an approximation for FLWOR
/// queries whose WHERE branches fan out below the FOR binding. Scan and
/// index plans implement identical semantics, so cost comparisons are
/// apples-to-apples.
class Executor {
 public:
  /// `buffer_pool` is optional; when provided, every page access is routed
  /// through it and per-execution hit/miss counts appear in ExecResult —
  /// repeated queries then enjoy warm-cache physical-read counts. The pool
  /// persists across Execute calls and is owned by the caller.
  Executor(const Database* db, const Catalog* catalog, CostModel cost_model,
           BufferPool* buffer_pool = nullptr)
      : db_(db),
        catalog_(catalog),
        cost_model_(cost_model),
        buffer_pool_(buffer_pool) {}

  /// Runs `plan`. Index plans require the named index to exist physically
  /// in the catalog.
  Result<ExecResult> Execute(const QueryPlan& plan) const;

 private:
  const Database* db_;
  const Catalog* catalog_;
  CostModel cost_model_;
  BufferPool* buffer_pool_;

  Result<ExecResult> ExecuteScan(const QueryPlan& plan,
                                 const Collection& coll) const;
  Result<ExecResult> ExecuteIndex(const QueryPlan& plan,
                                  const Collection& coll) const;

  // The Touch* helpers route page accesses through BufferPool::Fetch (or
  // FetchRun for a run of consecutive pages), so an injected
  // storage.bufferpool.fetch fault propagates out of Execute as a clean
  // Status instead of being swallowed mid-scan.

  /// Routes the whole document's pages through the buffer pool.
  Status TouchDocument(const Document& doc) const;
  /// Routes the page holding `node` of `doc` through the buffer pool.
  Status TouchNodePage(const Document& doc, NodeIndex node) const;
  /// Routes `pages` leading leaf pages of the named index through the pool.
  Status TouchIndexLeaves(const std::string& index_name, double pages) const;
};

}  // namespace xia

#endif  // XIA_EXEC_EXECUTOR_H_
