#include "optimizer/optimizer.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/trace_span.h"

namespace xia {

namespace {

/// Registry-owned optimizer counters ("optimizer.*"). The optimizer has
/// no per-instance counter API — many Optimizer instances are throwaway
/// what-if overlays — so these aggregate process-wide. Resolved once;
/// Add() is lock-free, so concurrent what-if optimizations don't contend.
struct OptimizerCounters {
  obs::Counter& plans = obs::Registry().GetCounter(
      "optimizer.plans_enumerated");
  obs::Counter& choice_collection = obs::Registry().GetCounter(
      "optimizer.choice.collection_scan");
  obs::Counter& choice_index = obs::Registry().GetCounter(
      "optimizer.choice.index_scan");
  obs::Counter& choice_ixand = obs::Registry().GetCounter(
      "optimizer.choice.ixand");
};

OptimizerCounters& Counters() {
  static OptimizerCounters counters;
  return counters;
}

/// One index match with its costing inputs resolved.
struct CostedMatch {
  const IndexMatch* match = nullptr;
  bool sargable = false;
  double selectivity = 1.0;    // Applied selectivity of the probe.
  double leaf_fraction = 1.0;  // Fraction of leaf pages touched.
  double fetched = 0;          // Index entries fetched.
  double access_cost = 0;
};

IndexProbe MakeProbe(const CostedMatch& cm) {
  IndexProbe probe;
  probe.index_def = cm.match->entry->def;
  probe.index_stats = cm.match->entry->stats;
  probe.index_is_virtual = cm.match->entry->is_virtual;
  probe.use = cm.match->use;
  probe.served_predicate =
      cm.sargable ? cm.match->predicate_index : -1;
  probe.needs_verify = !cm.match->exact;
  probe.est_entries_fetched = cm.fetched;
  return probe;
}

}  // namespace

Result<QueryPlan> Optimizer::Optimize(const Query& query,
                                      const Catalog& catalog,
                                      ContainmentCache* cache) const {
  XIA_SPAN("optimizer.optimize");
  const NormalizedQuery& nq = query.normalized;
  const Collection* coll = db_->GetCollection(nq.collection);
  if (coll == nullptr) {
    return Status::NotFound("collection " + nq.collection +
                            " does not exist");
  }
  const PathSynopsis* synopsis = db_->synopsis(nq.collection);
  if (synopsis == nullptr) {
    return Status::InvalidArgument("collection " + nq.collection +
                                   " has no statistics; run Analyze first");
  }
  CardinalityEstimator card(synopsis);

  double base_card = card.PatternCount(nq.for_path);
  std::vector<double> selectivity(nq.predicates.size(), 1.0);
  for (size_t i = 0; i < nq.predicates.size(); ++i) {
    selectivity[i] = card.PredicateSelectivity(nq.predicates[i]);
  }
  double result_card = base_card;
  for (double s : selectivity) result_card *= s;

  QueryPlan best;
  best.query_id = query.id;
  best.query = nq;
  best.est_cardinality = result_card;

  // ORDER BY: every plan pays a sort unless its access path returns rows
  // already ordered by the (single) order key.
  const bool has_order = !nq.order_by.empty();
  const double order_sort_cost =
      has_order ? cost_model_.SortCost(result_card) : 0.0;

  // Candidate plans considered for this query, folded into the registry
  // once at the end (one sharded Add instead of one per plan).
  uint64_t plans_enumerated = 1;  // The baseline below.

  // Baseline: full collection scan, all predicates residual.
  best.access.use_index = false;
  best.access_cost =
      cost_model_.CollectionScanCost(coll->ByteSize(), coll->num_nodes());
  best.residual_cost =
      cost_model_.ResidualPredicateCost(base_card, nq.predicates.size());
  best.sort_cost = order_sort_cost;
  best.total_cost = best.access_cost + best.residual_cost + best.sort_cost;
  for (size_t i = 0; i < nq.predicates.size(); ++i) {
    best.residual_predicates.push_back(static_cast<int>(i));
  }

  // Cost every index match once.
  IndexMatcher matcher(cache);
  std::vector<IndexMatch> matches =
      matcher.Match(nq, catalog.IndexesFor(nq.collection));
  std::vector<CostedMatch> costed;
  costed.reserve(matches.size());
  for (const IndexMatch& match : matches) {
    const VirtualIndexStats& stats = match.entry->stats;
    CostedMatch cm;
    cm.match = &match;
    cm.sargable =
        match.use != MatchUse::kStructural && match.predicate_index >= 0;
    if (cm.sargable) {
      const QueryPredicate& pred =
          nq.predicates[static_cast<size_t>(match.predicate_index)];
      double sel = selectivity[static_cast<size_t>(match.predicate_index)];
      // Probe selectivity must be measured on the INDEX's value
      // population: a general index (e.g. //*) holds values from many
      // paths, so "age < 30" prunes it very differently than it prunes
      // the age distribution itself.
      double probe_sel = sel;
      if (!match.exact) {
        probe_sel = synopsis->SelectivityFor(match.entry->def.pattern,
                                             pred.op, pred.literal);
      }
      if (match.use == MatchUse::kSargableEq) {
        // Equality touches one key group; selectivity and 1/distinct both
        // approximate it — take the larger to stay conservative.
        sel = std::max(sel, 1.0 / std::max(1.0, stats.distinct));
        probe_sel = std::max(probe_sel, 1.0 / std::max(1.0, stats.distinct));
      }
      cm.selectivity = sel;
      cm.leaf_fraction = probe_sel;
      cm.fetched = stats.entries * probe_sel;
    } else {
      cm.selectivity = 1.0;
      cm.leaf_fraction = 1.0;
      cm.fetched = stats.entries;
    }
    cm.access_cost = cost_model_.IndexScanCost(
        stats, cm.leaf_fraction, cm.fetched, !match.exact);
    costed.push_back(cm);
  }

  // One candidate plan per single index match.
  for (const CostedMatch& cm : costed) {
    const IndexMatch& match = *cm.match;
    ++plans_enumerated;
    int probe_pred = cm.sargable ? match.predicate_index : -1;
    double rows_after =
        base_card * (cm.sargable ? cm.selectivity : 1.0);

    QueryPlan plan;
    plan.query_id = query.id;
    plan.query = nq;
    plan.est_cardinality = result_card;
    plan.access.use_index = true;
    plan.access.index_def = match.entry->def;
    plan.access.index_stats = match.entry->stats;
    plan.access.index_is_virtual = match.entry->is_virtual;
    plan.access.use = match.use;
    plan.access.served_predicate = probe_pred;
    plan.access.needs_verify = !match.exact;
    plan.access.est_entries_fetched = cm.fetched;
    plan.access_cost = cm.access_cost;
    for (size_t i = 0; i < nq.predicates.size(); ++i) {
      if (static_cast<int>(i) == probe_pred) continue;
      plan.residual_predicates.push_back(static_cast<int>(i));
    }
    plan.residual_cost = cost_model_.ResidualPredicateCost(
        rows_after, plan.residual_predicates.size());
    // A sargable probe whose pattern IS the order key returns rows in key
    // order — no sort needed.
    bool provides_order =
        has_order && nq.order_by.size() == 1 && cm.sargable &&
        cache->Contains(match.entry->def.pattern, nq.order_by[0]) &&
        cache->Contains(nq.order_by[0], match.entry->def.pattern);
    plan.sort_cost = provides_order ? 0.0 : order_sort_cost;
    plan.total_cost =
        plan.access_cost + plan.residual_cost + plan.sort_cost;
    if (plan.total_cost < best.total_cost) best = plan;
  }

  // IXAND: intersect two sargable probes on different predicates.
  if (options_.enable_index_anding) {
    for (size_t a = 0; a < costed.size(); ++a) {
      if (!costed[a].sargable) continue;
      for (size_t b = a + 1; b < costed.size(); ++b) {
        if (!costed[b].sargable) continue;
        if (costed[a].match->predicate_index ==
            costed[b].match->predicate_index) {
          continue;
        }
        // Put the more selective probe first (purely cosmetic; costs are
        // symmetric in this model).
        const CostedMatch& first =
            costed[a].selectivity <= costed[b].selectivity ? costed[a]
                                                           : costed[b];
        const CostedMatch& second =
            costed[a].selectivity <= costed[b].selectivity ? costed[b]
                                                           : costed[a];
        // IXAND legs scan RIDs only; qualifying documents are fetched
        // once, after the intersection.
        double rid_cost_first = cost_model_.IndexRidProbeCost(
            first.match->entry->stats, first.leaf_fraction, first.fetched,
            !first.match->exact);
        double rid_cost_second = cost_model_.IndexRidProbeCost(
            second.match->entry->stats, second.leaf_fraction,
            second.fetched, !second.match->exact);
        double intersect_cpu = (first.fetched + second.fetched) *
                               cost_model_.cpu_cost_per_node;
        double rows_after =
            base_card * first.selectivity * second.selectivity;
        double final_fetch = rows_after * cost_model_.fetch_cost_per_node;

        ++plans_enumerated;
        QueryPlan plan;
        plan.query_id = query.id;
        plan.query = nq;
        plan.est_cardinality = result_card;
        plan.access.use_index = true;
        plan.access.index_def = first.match->entry->def;
        plan.access.index_stats = first.match->entry->stats;
        plan.access.index_is_virtual = first.match->entry->is_virtual;
        plan.access.use = first.match->use;
        plan.access.served_predicate = first.match->predicate_index;
        plan.access.needs_verify = !first.match->exact;
        plan.access.est_entries_fetched = first.fetched;
        plan.access.has_secondary = true;
        plan.access.secondary = MakeProbe(second);
        plan.access_cost =
            rid_cost_first + rid_cost_second + intersect_cpu + final_fetch;
        for (size_t i = 0; i < nq.predicates.size(); ++i) {
          if (static_cast<int>(i) == first.match->predicate_index ||
              static_cast<int>(i) == second.match->predicate_index) {
            continue;
          }
          plan.residual_predicates.push_back(static_cast<int>(i));
        }
        plan.residual_cost = cost_model_.ResidualPredicateCost(
            rows_after, plan.residual_predicates.size());
        // RID intersection destroys key order: IXAND always sorts.
        plan.sort_cost = order_sort_cost;
        plan.total_cost =
            plan.access_cost + plan.residual_cost + plan.sort_cost;
        if (plan.total_cost < best.total_cost) best = plan;
      }
    }
  }

  OptimizerCounters& counters = Counters();
  counters.plans.Add(plans_enumerated);
  if (!best.access.use_index) {
    counters.choice_collection.Increment();
  } else if (best.access.has_secondary) {
    counters.choice_ixand.Increment();
  } else {
    counters.choice_index.Increment();
  }
  return best;
}

}  // namespace xia
