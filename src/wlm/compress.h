#ifndef XIA_WLM_COMPRESS_H_
#define XIA_WLM_COMPRESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "wlm/capture.h"
#include "workload/workload.h"

namespace xia {
namespace wlm {

/// Workload compression (CoPhy-style): fold a captured query log into a
/// small weighted workload the advisor can chew on.
///
/// Clustering is by template fingerprint — queries differing only in
/// literals land in one cluster, because the advisor's candidate set and
/// index matching depend on patterns and operators, never on literal
/// values. Each cluster contributes ONE representative query whose
/// weight is frequency × mean estimated cost (= the cluster's total
/// estimated cost): a cheap query executed a thousand times and an
/// expensive query executed once both surface with the workload share the
/// optimizer actually attributes to them.
///
/// Everything here is deterministic in the log *contents* (the multiset
/// of {text, cost} pairs): cluster weights are order-free aggregates, the
/// representative is the lexicographically smallest text in the cluster,
/// and output order is weight-descending with fingerprint tie-break — so
/// the same records always compress to a byte-identical workload, no
/// matter how capture threads interleaved.
///
/// DML records (CaptureKind insert/delete/update) cluster by their
/// "dml:..." fingerprint like queries do, but a DML cluster becomes
/// an UpdateOp (Workload::AddUpdate) rather than a query: the op's
/// weight is the cluster's FREQUENCY (mutation executions — what the
/// advisor's maintenance-cost model multiplies per-instance cost by), an
/// update cluster contributes one insert op plus one delete op, and the
/// advisor then debits every candidate index for the upkeep this
/// read/write mix implies. A write-heavy capture window therefore
/// recommends fewer (or different) indexes than a read-heavy one —
/// wlm::DriftMonitor turns that shift into re-advising.

/// One template cluster of the compressed workload.
struct TemplateCluster {
  std::string fingerprint;
  std::string representative_text;  // Smallest text in the cluster.
  uint64_t frequency = 0;           // Captured executions.
  double mean_cost = 0;             // Mean estimated cost per execution.
  double weight = 0;                // frequency × mean_cost (see header).
  /// kQuery clusters emit a workload query; DML kinds emit UpdateOps.
  CaptureKind kind = CaptureKind::kQuery;

  std::string ToString() const;
};

/// What compression did: every template it folded the log into.
struct CompressionReport {
  size_t input_records = 0;
  size_t templates_total = 0;
  /// Every cluster, by descending weight with fingerprint tie-break — the
  /// order of the compressed workload.
  std::vector<TemplateCluster> clusters;

  std::string ToString() const;
};

/// Compression output: the advisable workload plus the audit report.
struct CompressedWorkload {
  Workload workload;
  CompressionReport report;
};

/// Compresses captured records into a weighted workload, one entry per
/// template. Representative texts are re-parsed through
/// Workload::AddQueryText; a record whose text no longer parses is a
/// ParseError (capture only accepts parsed queries, so this indicates a
/// corrupt or hand-edited log). Query ids are "T1", "T2", ... in output
/// order. When every cost in a cluster is zero (capture without costing)
/// the cluster's weight falls back to its frequency so the workload stays
/// advisable.
Result<CompressedWorkload> CompressLog(
    const std::vector<CaptureRecord>& records);

/// The uncompressed counterpart: one weight-1 query per record ("R1",
/// "R2", ... in sequence order) — what `advise --from-log` without
/// --compress feeds the advisor, and the raw baseline the compression
/// tests and benches compare against.
Result<Workload> WorkloadFromLog(const std::vector<CaptureRecord>& records);

}  // namespace wlm
}  // namespace xia

#endif  // XIA_WLM_COMPRESS_H_
