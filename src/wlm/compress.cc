#include "wlm/compress.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "xpath/parser.h"

namespace xia {
namespace wlm {

namespace {

/// Expands one DML capture (text "<collection> <pattern>") into the
/// UpdateOps it implies — insert and delete map to one op each, update to
/// an insert op plus a delete op (its tombstone-then-reinsert halves) —
/// and appends them to `workload` with the given per-op weight.
Status AddUpdateOpsFromDml(CaptureKind kind, const std::string& text,
                           double weight, Workload* workload) {
  size_t space = text.find(' ');
  if (space == std::string::npos || space == 0 || space + 1 >= text.size()) {
    return Status::ParseError("dml record text '" + text +
                              "' is not '<collection> <pattern>'");
  }
  std::string collection = text.substr(0, space);
  XIA_ASSIGN_OR_RETURN(PathPattern target,
                       ParsePathPattern(text.substr(space + 1)));
  auto add = [&](UpdateOp::Kind op_kind) {
    UpdateOp op;
    op.kind = op_kind;
    op.collection = collection;
    op.target = target;
    op.weight = weight;
    workload->AddUpdate(std::move(op));
  };
  switch (kind) {
    case CaptureKind::kInsert:
      add(UpdateOp::Kind::kInsert);
      break;
    case CaptureKind::kDelete:
      add(UpdateOp::Kind::kDelete);
      break;
    case CaptureKind::kUpdate:
      add(UpdateOp::Kind::kInsert);
      add(UpdateOp::Kind::kDelete);
      break;
    case CaptureKind::kQuery:
      return Status::InvalidArgument("query record is not a dml record");
  }
  return Status::Ok();
}

}  // namespace

std::string TemplateCluster::ToString() const {
  std::string out = "x";
  out += std::to_string(frequency) + " w=" + FormatDouble(weight) + " ";
  if (kind != CaptureKind::kQuery) {
    out += "dml-" + std::string(CaptureKindName(kind)) + " ";
  }
  return out + representative_text;
}

std::string CompressionReport::ToString() const {
  std::string out = "compressed " + std::to_string(input_records) + " records";
  out += " into " + std::to_string(templates_total) + " templates\n";
  for (const TemplateCluster& c : clusters) {
    out += "  " + c.ToString() + "\n";
  }
  return out;
}

Result<CompressedWorkload> CompressLog(
    const std::vector<CaptureRecord>& records) {
  // std::map keys the clusters by fingerprint so aggregation order is
  // content-deterministic regardless of record order.
  struct Agg {
    std::string representative;
    uint64_t frequency = 0;
    double total_cost = 0;
    CaptureKind kind = CaptureKind::kQuery;
  };
  std::map<std::string, Agg> by_template;
  for (const CaptureRecord& r : records) {
    Agg& agg = by_template[r.fingerprint];
    if (agg.frequency == 0 || r.text < agg.representative) {
      agg.representative = r.text;
    }
    ++agg.frequency;
    agg.total_cost += r.est_cost;
    agg.kind = r.kind;  // Uniform within a cluster: kind is in the key.
  }

  CompressionReport report;
  report.input_records = records.size();
  report.templates_total = by_template.size();
  for (const auto& [fingerprint, agg] : by_template) {
    TemplateCluster cluster;
    cluster.fingerprint = fingerprint;
    cluster.representative_text = agg.representative;
    cluster.frequency = agg.frequency;
    cluster.kind = agg.kind;
    cluster.mean_cost =
        agg.total_cost / static_cast<double>(agg.frequency);
    // Weight = frequency × mean cost = the cluster's total estimated
    // cost; costless captures fall back to plain frequency.
    cluster.weight = agg.total_cost > 0
                         ? agg.total_cost
                         : static_cast<double>(agg.frequency);
    report.clusters.push_back(std::move(cluster));
  }
  std::sort(report.clusters.begin(), report.clusters.end(),
            [](const TemplateCluster& a, const TemplateCluster& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.fingerprint < b.fingerprint;
            });

  CompressedWorkload out;
  size_t query_id = 0;
  for (const TemplateCluster& cluster : report.clusters) {
    if (cluster.kind == CaptureKind::kQuery) {
      ++query_id;
      Status added = out.workload.AddQueryText(
          cluster.representative_text, cluster.weight,
          "T" + std::to_string(query_id));
      if (!added.ok()) {
        return Status::ParseError("compressed template T" +
                                  std::to_string(query_id) + ": " +
                                  added.message());
      }
    } else {
      // UpdateOp weight = FREQUENCY, not cost-scaled weight: the
      // advisor's maintenance model charges per-mutation cost × weight,
      // so weight must count mutation executions.
      Status added = AddUpdateOpsFromDml(
          cluster.kind, cluster.representative_text,
          static_cast<double>(cluster.frequency), &out.workload);
      if (!added.ok()) {
        return Status::ParseError("compressed dml template '" +
                                  cluster.fingerprint + "': " +
                                  added.message());
      }
    }
  }
  out.report = std::move(report);
  return out;
}

Result<Workload> WorkloadFromLog(
    const std::vector<CaptureRecord>& records) {
  Workload workload;
  size_t n = 0;
  for (const CaptureRecord& r : records) {
    ++n;
    if (r.kind != CaptureKind::kQuery) {
      Status added = AddUpdateOpsFromDml(r.kind, r.text, 1.0, &workload);
      if (!added.ok()) {
        return Status::ParseError("log record R" + std::to_string(n) +
                                  ": " + added.message());
      }
      continue;
    }
    Status added =
        workload.AddQueryText(r.text, 1.0, "R" + std::to_string(n));
    if (!added.ok()) {
      return Status::ParseError("log record R" + std::to_string(n) + ": " +
                                added.message());
    }
  }
  return workload;
}

}  // namespace wlm
}  // namespace xia
