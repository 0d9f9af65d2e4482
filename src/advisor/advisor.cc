#include "advisor/advisor.h"

#include "advisor/benefit.h"
#include "advisor/search_greedy_heuristic.h"
#include "advisor/search_topdown.h"
#include "common/string_util.h"
#include "common/trace_span.h"
#include "optimizer/optimizer.h"

namespace xia {

const char* SearchAlgorithmName(SearchAlgorithm algorithm) {
  switch (algorithm) {
    case SearchAlgorithm::kGreedy:
      return "greedy";
    case SearchAlgorithm::kGreedyHeuristic:
      return "greedy+heuristics";
    case SearchAlgorithm::kTopDown:
      return "top-down";
  }
  return "?";
}

std::string Recommendation::Report() const {
  std::string out;
  if (stop_reason != StopReason::kConverged) {
    out += std::string("WARNING: search stopped early (") +
           StopReasonName(stop_reason) +
           "); this is the best configuration found within the budget, "
           "not a converged result.\n";
  }
  if (decomposed) {
    out += "Decomposed scoring: " + pricing.ToString() + "\n";
    if (pricing.stop_reason != StopReason::kConverged) {
      out += "WARNING: benefit pricing stopped early; unpriced queries "
             "fell back to composed bounds or live what-if calls.\n";
    }
  }
  out += "Recommended configuration (" + std::to_string(indexes.size()) +
         " indexes, " + FormatBytes(total_size_bytes) + "):\n";
  for (const IndexDefinition& def : indexes) {
    out += "  " + def.DdlString() + "\n";
  }
  out += "Workload cost: " + FormatDouble(baseline_cost) +
         " (no indexes) -> " + FormatDouble(recommended_cost) +
         " (recommended)";
  if (update_cost > 0) {
    out += " + " + FormatDouble(update_cost) + " update maintenance";
  }
  out += "\nNet benefit: " + FormatDouble(benefit);
  if (baseline_cost > 0) {
    out += " (" +
           FormatDouble(100.0 * benefit / baseline_cost) + "% of baseline)";
  }
  out += "\n";
  return out;
}

Advisor::Advisor(const Database* db, const Catalog* base_catalog,
                 AdvisorOptions options)
    : db_(db), base_catalog_(base_catalog), options_(options) {}

Result<Recommendation> Advisor::Recommend(const Workload& workload) {
  XIA_SPAN("advisor.recommend");
  // The budget clock covers the whole pipeline: time spent enumerating
  // and generalizing counts against the search's allowance.
  Deadline deadline = options_.time_budget_ms > 0
                          ? Deadline::AfterMillis(options_.time_budget_ms)
                          : Deadline::Infinite();
  Recommendation rec;

  // Step 1: basic candidate enumeration via the Enumerate Indexes mode.
  {
    XIA_SPAN("advisor.enumerate");
    XIA_ASSIGN_OR_RETURN(rec.enumeration,
                         EnumerateBasicCandidates(*db_, workload, &cache_));
  }

  // Step 2: candidate generalization.
  {
    XIA_SPAN("advisor.generalize");
    if (options_.enable_generalization) {
      rec.candidates = GeneralizeCandidates(rec.enumeration.candidates, *db_,
                                            options_.generalize);
    } else {
      rec.candidates = rec.enumeration.candidates;
    }
  }

  // Step 3: generalization DAG over the expanded set.
  {
    XIA_SPAN("advisor.dag");
    rec.dag = GeneralizationDag::Build(rec.candidates, &cache_);
  }

  // Step 4: configuration search with optimizer-backed benefit estimation.
  // Constructing the evaluator decides the what-if kernel's relevance
  // matrix (every candidate against every query class): its own span.
  Optimizer optimizer(db_, options_.cost_model);
  ConfigurationEvaluator evaluator = [&] {
    XIA_SPAN("advisor.relevance");
    return ConfigurationEvaluator(&optimizer, &workload, base_catalog_,
                                  &rec.candidates, &cache_,
                                  options_.account_update_cost,
                                  options_.threads,
                                  options_.shared_cost_cache);
  }();
  evaluator.set_cancel(options_.cancel);

  // Step 3.5 (decomposed mode): price the atomic-benefit table before
  // the search, under the same pipeline deadline — a budget exhausted
  // mid-pricing leaves a usable best-so-far table and the search then
  // stops at its first interrupt poll, still yielding a valid flagged
  // recommendation.
  if (options_.decompose) {
    XIA_ASSIGN_OR_RETURN(rec.pricing, evaluator.PriceBenefitTable(deadline));
    rec.decomposed = true;
  }

  SearchOptions search_options;
  search_options.space_budget_bytes = options_.space_budget_bytes;
  search_options.deadline = deadline;
  search_options.cancel = options_.cancel;
  XIA_SPAN("advisor.search");
  switch (options_.algorithm) {
    case SearchAlgorithm::kGreedy: {
      XIA_ASSIGN_OR_RETURN(rec.search,
                           GreedySearch(&evaluator, search_options));
      break;
    }
    case SearchAlgorithm::kGreedyHeuristic: {
      XIA_ASSIGN_OR_RETURN(
          rec.search, GreedyHeuristicSearch(&evaluator, search_options));
      break;
    }
    case SearchAlgorithm::kTopDown: {
      XIA_ASSIGN_OR_RETURN(
          rec.search, TopDownSearch(rec.dag, &evaluator, search_options));
      break;
    }
  }

  // Step 5: name and emit the final definitions.
  Catalog naming = *base_catalog_;
  for (int ci : rec.search.chosen) {
    IndexDefinition def = rec.candidates[static_cast<size_t>(ci)].def;
    def.name = naming.UniqueName(def.pattern);
    VirtualIndexStats stats = rec.candidates[static_cast<size_t>(ci)].stats;
    XIA_RETURN_IF_ERROR(naming.AddVirtual(def, stats));
    rec.indexes.push_back(std::move(def));
  }
  rec.stop_reason = rec.search.stop_reason;
  rec.total_size_bytes = rec.search.total_size_bytes;
  rec.baseline_cost = rec.search.baseline_cost;
  rec.recommended_cost = rec.search.workload_cost;
  rec.update_cost = rec.search.update_cost;
  rec.benefit = rec.search.benefit;
  return rec;
}

}  // namespace xia
