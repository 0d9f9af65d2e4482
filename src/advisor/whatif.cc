#include "advisor/whatif.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/trace_span.h"

namespace xia {

WhatIfSession::WhatIfSession(const Database* db, Catalog base,
                             CostModel cost_model, int threads)
    : db_(db),
      catalog_(std::move(base)),
      cost_model_(cost_model),
      optimizer_(db, cost_model),
      threads_(threads) {}

Result<std::string> WhatIfSession::AddIndex(IndexDefinition def) {
  const PathSynopsis* synopsis = db_->synopsis(def.collection);
  if (synopsis == nullptr) {
    return Status::InvalidArgument("collection " + def.collection +
                                   " has no statistics; run Analyze first");
  }
  if (def.name.empty()) {
    def.name = catalog_.UniqueName(def.pattern);
  }
  VirtualIndexStats stats =
      EstimateVirtualIndex(*synopsis, def, cost_model_.storage);
  std::string name = def.name;
  XIA_RETURN_IF_ERROR(catalog_.AddVirtual(std::move(def), stats));
  session_indexes_.push_back(name);
  return name;
}

Status WhatIfSession::DropIndex(const std::string& name) {
  XIA_RETURN_IF_ERROR(catalog_.Drop(name));
  session_indexes_.erase(
      std::remove(session_indexes_.begin(), session_indexes_.end(), name),
      session_indexes_.end());
  return Status::Ok();
}

Result<EvaluateIndexesResult> WhatIfSession::EvaluateWorkload(
    const Workload& workload) {
  XIA_SPAN("whatif.evaluate_workload");
  XIA_FAILPOINT("advisor.whatif.evaluate_workload");
  // The overlay IS the configuration: evaluate with no extra indexes.
  return EvaluateIndexesMode(optimizer_, workload.queries(), {}, catalog_,
                             &cache_, threads_, &cost_cache_);
}

Result<QueryPlan> WhatIfSession::ExplainQuery(const Query& query) {
  XIA_SPAN("whatif.explain_query");
  XIA_ASSIGN_OR_RETURN(EvaluateIndexesResult result,
                       EvaluateIndexesMode(optimizer_, {query}, {}, catalog_,
                                           &cache_, 1, &cost_cache_));
  return std::move(result.plans.front());
}

AdvisorCacheCounters WhatIfSession::cache_counters() const {
  AdvisorCacheCounters counters;
  counters.cost = cost_cache_.stats();
  counters.containment = cache_.stats();
  return counters;
}

}  // namespace xia
