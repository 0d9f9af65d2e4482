#include "optimizer/explain.h"

#include <optional>
#include <utility>

#include "common/string_util.h"
#include "optimizer/whatif_kernel.h"

namespace xia {

std::string CandidatePattern::ToString() const {
  std::string out = pattern.ToString();
  out += " AS ";
  out += ValueTypeName(type);
  out += sargable ? " (sargable)" : " (structural)";
  if (!source.empty()) out += "  <- " + source;
  return out;
}

std::string EnumerateIndexesResult::ToString() const {
  std::string out = "Enumerate Indexes for " +
                    (query_id.empty() ? "query" : query_id) + " on " +
                    collection + ":\n";
  for (const CandidatePattern& c : candidates) {
    out += "  " + c.ToString() + "\n";
  }
  return out;
}

Result<EnumerateIndexesResult> EnumerateIndexesMode(const Database& db,
                                                    const Query& query,
                                                    ContainmentCache* cache) {
  const NormalizedQuery& nq = query.normalized;
  const PathSynopsis* synopsis = db.synopsis(nq.collection);
  if (synopsis == nullptr) {
    return Status::InvalidArgument("collection " + nq.collection +
                                   " has no statistics; run Analyze first");
  }

  // Catalog overlay holding only the universal virtual indexes.
  StorageConstants constants;
  Catalog overlay;
  auto add_universal = [&](const PathPattern& pattern, ValueType type,
                           const std::string& name) {
    IndexDefinition def;
    def.name = name;
    def.collection = nq.collection;
    def.pattern = pattern;
    def.type = type;
    VirtualIndexStats stats =
        EstimateVirtualIndex(*synopsis, def, constants);
    return overlay.AddVirtual(std::move(def), stats);
  };
  XIA_RETURN_IF_ERROR(add_universal(PathPattern::AllElements(),
                                    ValueType::kVarchar, "uvi_elem_vc"));
  XIA_RETURN_IF_ERROR(add_universal(PathPattern::AllElements(),
                                    ValueType::kDouble, "uvi_elem_db"));
  XIA_RETURN_IF_ERROR(add_universal(PathPattern::AllAttributes(),
                                    ValueType::kVarchar, "uvi_attr_vc"));
  XIA_RETURN_IF_ERROR(add_universal(PathPattern::AllAttributes(),
                                    ValueType::kDouble, "uvi_attr_db"));

  IndexMatcher matcher(cache);
  std::vector<IndexMatch> matches =
      matcher.Match(nq, overlay.IndexesFor(nq.collection));

  EnumerateIndexesResult result;
  result.query_id = query.id;
  result.collection = nq.collection;
  // Keep the best candidate per (pattern, type): sargable beats structural.
  auto upsert = [&](CandidatePattern cand) {
    for (CandidatePattern& existing : result.candidates) {
      if (existing.pattern == cand.pattern && existing.type == cand.type) {
        if (cand.sargable && !existing.sargable) existing = std::move(cand);
        return;
      }
    }
    result.candidates.push_back(std::move(cand));
  };
  for (const IndexMatch& match : matches) {
    CandidatePattern cand;
    if (match.predicate_index >= 0) {
      const QueryPredicate& pred =
          nq.predicates[static_cast<size_t>(match.predicate_index)];
      cand.pattern = pred.pattern;
      cand.sargable = match.use != MatchUse::kStructural;
      // A structural match can still serve the predicate, but the useful
      // index type is the predicate's implied type only for sargable use.
      cand.type =
          cand.sargable ? pred.ImpliedType() : ValueType::kVarchar;
      cand.source = "predicate " + pred.ToString();
    } else {
      cand.pattern = nq.for_path;
      cand.type = ValueType::kVarchar;
      cand.sargable = false;
      cand.source = "FOR path";
    }
    upsert(std::move(cand));
  }
  return result;
}

Result<Catalog> MakeVirtualOverlay(const Database& db,
                                   const Catalog& base_catalog,
                                   const std::vector<IndexDefinition>& config,
                                   const StorageConstants& constants) {
  Catalog overlay = base_catalog;
  for (const IndexDefinition& def : config) {
    const PathSynopsis* synopsis = db.synopsis(def.collection);
    if (synopsis == nullptr) {
      return Status::InvalidArgument("collection " + def.collection +
                                     " has no statistics; run Analyze first");
    }
    IndexDefinition copy = def;
    if (copy.name.empty() || overlay.Find(copy.name) != nullptr) {
      copy.name = overlay.UniqueName(copy.pattern);
    }
    VirtualIndexStats stats = EstimateVirtualIndex(*synopsis, copy, constants);
    XIA_RETURN_IF_ERROR(overlay.AddVirtual(std::move(copy), stats));
  }
  return overlay;
}

Result<EvaluateIndexesResult> EvaluateIndexesMode(
    const Optimizer& optimizer, const std::vector<Query>& queries,
    const std::vector<IndexDefinition>& config, const Catalog& base_catalog,
    ContainmentCache* cache, int threads, WhatIfCostCache* cost_cache) {
  XIA_ASSIGN_OR_RETURN(
      Catalog overlay,
      MakeVirtualOverlay(optimizer.db(), base_catalog, config,
                         optimizer.cost_model().storage));
  std::optional<WhatIfCostCache> call_cache;
  if (cost_cache == nullptr) cost_cache = &call_cache.emplace();
  WhatIfKernel kernel(&optimizer, &queries, &overlay, /*overlay=*/{}, cache,
                      cost_cache, threads);
  std::vector<WhatIfKernel::Request> requests(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) requests[qi].query = qi;
  std::vector<Result<WhatIfKernel::PlanPtr>> plans = kernel.Run(requests);

  EvaluateIndexesResult result;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    XIA_RETURN_IF_ERROR(plans[qi].status());
    // Cached plans carry the labels of the query that first computed them.
    QueryPlan plan = **plans[qi];
    plan.query_id = queries[qi].id;
    result.total_weighted_cost += queries[qi].weight * plan.total_cost;
    if (plan.access.use_index) {
      result.index_use_counts[plan.access.index_def.name]++;
      if (plan.access.has_secondary) {
        result.index_use_counts[plan.access.secondary.index_def.name]++;
      }
    }
    result.plans.push_back(std::move(plan));
  }
  return result;
}

std::string EvaluateIndexesResult::ToString() const {
  std::string out = "Evaluate Indexes: total weighted cost = " +
                    FormatDouble(total_weighted_cost) + "\n";
  for (const QueryPlan& plan : plans) {
    out += "  " + (plan.query_id.empty() ? "query" : plan.query_id) +
           ": cost " + FormatDouble(plan.total_cost) + " via " +
           plan.access.ToString() + "\n";
  }
  if (!index_use_counts.empty()) {
    out += "  index usage:\n";
    for (const auto& [name, count] : index_use_counts) {
      out += "    " + name + ": " + std::to_string(count) + " queries\n";
    }
  }
  return out;
}

}  // namespace xia
