#ifndef XIA_WLM_DRIFT_H_
#define XIA_WLM_DRIFT_H_

#include <optional>
#include <string>

#include "advisor/advisor.h"
#include "index/catalog.h"
#include "optimizer/cost_cache.h"
#include "storage/database.h"
#include "workload/workload.h"
#include "xpath/containment.h"

namespace xia {
namespace wlm {

/// Drift detection + re-advising: the closed loop of workload management.
/// Capture watches the stream, compression folds it into a workload, and
/// this monitor answers "has the current physical configuration gone
/// stale for what the system is actually executing?" — re-running the
/// (anytime) advisor when the answer is yes.
///
/// Drift formula: costs are first normalized per unit of workload weight
/// (capture windows differ in length, so absolute totals are not
/// comparable across checks), then
///
///   drift = (current - predicted) / max(predicted, epsilon)
///
/// where `current` is the captured workload's estimated cost under the
/// catalog as it stands and `predicted` is the per-weight cost the last
/// recommendation promised. drift > threshold (default 0.2: the workload
/// runs ≥20% more expensive than promised) flags the configuration
/// stale. Negative drift — running cheaper than promised — never
/// triggers.
struct DriftOptions {
  double threshold = 0.2;
};

/// Outcome of one drift check.
struct DriftReport {
  /// False until a recommendation has been recorded: with nothing
  /// promised there is nothing to compare, and the configuration is
  /// treated as stale by definition (first capture window always
  /// advises).
  bool has_prediction = false;
  double current_cost = 0;        // Captured workload, current catalog.
  double predicted_cost = 0;      // Scaled to the captured weight.
  double drift = 0;               // 0 when !has_prediction.
  bool exceeded = false;
  /// The recorded promise came from a budget-truncated (non-converged)
  /// advise: it overstates cost, deflating measured drift, so Check
  /// down-weights it by halving the effective trigger threshold.
  bool degraded_promise = false;

  std::string ToString() const;
};

/// Drift check plus the recommendation it triggered (absent when the
/// configuration was still fresh or the captured workload was empty).
struct ReadviseOutcome {
  DriftReport drift;
  std::optional<Recommendation> recommendation;
};

/// Watches recommendation staleness for one database. The monitor keeps
/// the what-if machinery warm across checks: one containment cache and
/// one what-if cost cache serve every Check(), so a stable workload
/// re-prices almost entirely from cache, while catalog or data changes
/// between checks re-price exactly the queries they can affect.
class DriftMonitor {
 public:
  /// `db` must outlive the monitor.
  DriftMonitor(const Database* db, CostModel cost_model,
               DriftOptions options = DriftOptions());

  /// Estimated weighted cost of `workload` under `catalog` exactly as it
  /// stands (no hypothetical indexes added).
  Result<double> CurrentCost(const Workload& workload,
                             const Catalog& catalog);

  /// Prices `captured` under `catalog` and compares against the recorded
  /// prediction (see the drift formula above).
  Result<DriftReport> Check(const Workload& captured,
                            const Catalog& catalog);

  /// Records what a recommendation promised: `predicted_cost` for a
  /// workload of total weight `workload_weight` (used to normalize per
  /// unit weight). MaybeReadvise calls this automatically.
  ///
  /// `degraded` flags a promise from a budget-truncated advise
  /// (stop_reason != kConverged). A degraded promise never overwrites a
  /// recorded converged one — the truncated search's inflated cost would
  /// silently lower the drift baseline and mask real staleness (the
  /// pre-fix behavior). With no better baseline it is recorded but
  /// tagged, and Check() down-weights it (DriftReport::degraded_promise).
  void RecordPrediction(double predicted_cost, double workload_weight,
                        bool degraded = false);

  bool has_prediction() const { return has_prediction_; }
  /// True when the recorded promise is from a truncated advise.
  bool prediction_degraded() const { return prediction_degraded_; }

  double threshold() const { return options_.threshold; }
  /// Retargets the trigger; the recorded prediction and warm caches
  /// survive (the advisor_shell `drift threshold` command).
  void set_threshold(double threshold) { options_.threshold = threshold; }

  /// Check, and when the configuration is stale run a full
  /// Advisor::Recommend over `captured` with `advisor_options` — which
  /// carries the anytime controls (time_budget_ms, cancel), so a
  /// re-advising pass triggered mid-traffic can be bounded or aborted.
  /// The new recommendation's promise is recorded for the next check.
  Result<ReadviseOutcome> MaybeReadvise(const Workload& captured,
                                        const Catalog& catalog,
                                        const AdvisorOptions& advisor_options);

 private:
  const Database* db_;
  CostModel cost_model_;
  DriftOptions options_;
  ContainmentCache cache_;
  WhatIfCostCache cost_cache_;
  bool has_prediction_ = false;
  bool prediction_degraded_ = false;
  double predicted_per_weight_ = 0;
};

}  // namespace wlm
}  // namespace xia

#endif  // XIA_WLM_DRIFT_H_
