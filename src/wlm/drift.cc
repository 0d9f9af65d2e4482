#include "wlm/drift.h"

#include <algorithm>

#include "common/string_util.h"
#include "optimizer/explain.h"

namespace xia {
namespace wlm {

namespace {
/// Guards the drift division when a recommendation promised (near-)zero
/// cost — any measurable current cost then counts as full drift.
constexpr double kEpsilonCost = 1e-9;
}  // namespace

std::string DriftReport::ToString() const {
  if (!has_prediction) {
    return "drift: no recorded prediction — configuration stale by "
           "definition";
  }
  return "drift: current " + FormatDouble(current_cost) + " vs predicted " +
         FormatDouble(predicted_cost) +
         (degraded_promise ? " [degraded promise]" : "") + " => " +
         FormatDouble(drift * 100.0) + "% " +
         (exceeded ? "(stale)" : "(fresh)");
}

DriftMonitor::DriftMonitor(const Database* db, CostModel cost_model,
                           DriftOptions options)
    : db_(db), cost_model_(cost_model), options_(options) {}

Result<double> DriftMonitor::CurrentCost(const Workload& workload,
                                         const Catalog& catalog) {
  Optimizer optimizer(db_, cost_model_);
  // Empty hypothetical configuration: EvaluateIndexesMode prices the
  // workload under the catalog exactly as it stands. The monitor's
  // lifetime cost cache makes repeated checks of a stable workload nearly
  // free; keys change when the catalog or the data does.
  Result<EvaluateIndexesResult> evaluated = EvaluateIndexesMode(
      optimizer, workload.queries(), /*config=*/{}, catalog, &cache_,
      /*threads=*/1, &cost_cache_);
  if (!evaluated.ok()) return evaluated.status();
  return evaluated->total_weighted_cost;
}

Result<DriftReport> DriftMonitor::Check(const Workload& captured,
                                        const Catalog& catalog) {
  DriftReport report;
  report.has_prediction = has_prediction_;
  Result<double> current = CurrentCost(captured, catalog);
  if (!current.ok()) return current.status();
  report.current_cost = *current;
  if (!has_prediction_) {
    // Nothing promised yet: stale by definition (see header).
    report.exceeded = true;
    return report;
  }
  double weight = captured.TotalQueryWeight();
  report.degraded_promise = prediction_degraded_;
  report.predicted_cost = predicted_per_weight_ * weight;
  double denominator = std::max(report.predicted_cost, kEpsilonCost);
  report.drift = (report.current_cost - report.predicted_cost) / denominator;
  // A truncated advise promises a *worse* (higher) cost than a converged
  // one would, so drift measured against it underestimates staleness.
  // Down-weight such promises by halving the trigger threshold until a
  // converged advise replaces them.
  double threshold =
      prediction_degraded_ ? options_.threshold / 2 : options_.threshold;
  report.exceeded = report.drift > threshold;
  return report;
}

void DriftMonitor::RecordPrediction(double predicted_cost,
                                    double workload_weight, bool degraded) {
  if (degraded && has_prediction_ && !prediction_degraded_) {
    // Keep the converged baseline: overwriting it with a truncated
    // search's inflated promise would silently lower the drift bar (the
    // bug this guard fixes — see the header).
    return;
  }
  has_prediction_ = true;
  prediction_degraded_ = degraded;
  predicted_per_weight_ =
      workload_weight > 0 ? predicted_cost / workload_weight : 0.0;
}

Result<ReadviseOutcome> DriftMonitor::MaybeReadvise(
    const Workload& captured, const Catalog& catalog,
    const AdvisorOptions& advisor_options) {
  ReadviseOutcome outcome;
  if (captured.size() == 0) {
    // An empty capture window says nothing about staleness; report fresh
    // and skip advising rather than recommending for a vacuum.
    outcome.drift.has_prediction = has_prediction_;
    return outcome;
  }
  Result<DriftReport> checked = Check(captured, catalog);
  if (!checked.ok()) return checked.status();
  outcome.drift = *checked;
  if (!outcome.drift.exceeded) return outcome;
  Advisor advisor(db_, &catalog, advisor_options);
  Result<Recommendation> recommendation = advisor.Recommend(captured);
  if (!recommendation.ok()) return recommendation.status();
  RecordPrediction(recommendation->recommended_cost,
                   captured.TotalQueryWeight(),
                   recommendation->stop_reason != StopReason::kConverged);
  outcome.recommendation = std::move(*recommendation);
  return outcome;
}

}  // namespace wlm
}  // namespace xia
