#include "advisor/benefit.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "common/trace_span.h"

namespace xia {

std::string CandidateOverlayName(int candidate) {
  return "cand" + std::to_string(candidate);
}

std::optional<int> TryParseCandidateId(const std::string& name) {
  constexpr size_t kPrefixLen = 4;  // "cand"
  if (name.size() <= kPrefixLen || !StartsWith(name, "cand")) {
    return std::nullopt;
  }
  int64_t id = 0;
  for (size_t i = kPrefixLen; i < name.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    id = id * 10 + (c - '0');
    if (id > std::numeric_limits<int>::max()) return std::nullopt;
  }
  return static_cast<int>(id);
}

namespace {

/// The evaluator's kernel overlay: candidate i as a virtual entry named
/// CandidateOverlayName(i), with its precomputed statistics.
std::vector<CatalogEntry> CandidateOverlay(
    const std::vector<CandidateIndex>& candidates) {
  std::vector<CatalogEntry> overlay(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    overlay[i].def = candidates[i].def;
    overlay[i].def.name = CandidateOverlayName(static_cast<int>(i));
    overlay[i].stats = candidates[i].stats;
  }
  return overlay;
}

/// A query's cost under a configuration and which of the configuration's
/// candidates (`among`, sorted) its plan uses. Only overlay names of
/// configuration members count: a *physical* catalog index whose name
/// merely resembles the "cand<N>" convention ("candelabra", "cand7extra",
/// or "cand3" while 3 is not in the configuration) is never attributed
/// (regression: benefit_test.cc, PhysicalIndexNames*).
BenefitEntry EntryFromPlan(const std::vector<int>& among,
                           const QueryPlan& plan) {
  BenefitEntry entry;
  entry.cost = plan.total_cost;
  if (!plan.access.use_index) return entry;
  auto record = [&](const std::string& name) {
    std::optional<int> id = TryParseCandidateId(name);
    if (id && std::binary_search(among.begin(), among.end(), *id)) {
      entry.used.push_back(*id);
    }
  };
  record(plan.access.index_def.name);
  if (plan.access.has_secondary) {
    record(plan.access.secondary.index_def.name);
  }
  std::sort(entry.used.begin(), entry.used.end());
  entry.used.erase(std::unique(entry.used.begin(), entry.used.end()),
                   entry.used.end());
  return entry;
}

}  // namespace

ConfigurationEvaluator::ConfigurationEvaluator(
    const Optimizer* optimizer, const Workload* workload,
    const Catalog* base_catalog, const std::vector<CandidateIndex>* candidates,
    ContainmentCache* cache, bool account_update_cost, int threads,
    WhatIfCostCache* shared_cost_cache)
    : optimizer_(optimizer),
      workload_(workload),
      candidates_(candidates),
      cache_(cache),
      account_update_cost_(account_update_cost),
      owned_cost_cache_(shared_cost_cache
                            ? nullptr
                            : std::make_unique<WhatIfCostCache>()),
      cost_cache_(shared_cost_cache ? shared_cost_cache
                                    : owned_cost_cache_.get()),
      kernel_(optimizer, &workload->queries(), base_catalog,
              CandidateOverlay(*candidates), cache, cost_cache_, threads),
      coverage_(candidates->size()),
      coverage_once_(candidates->size()) {
  // Build the workload expression table: driving paths + predicates.
  for (size_t qi = 0; qi < workload_->queries().size(); ++qi) {
    const NormalizedQuery& nq = workload_->queries()[qi].normalized;
    WorkloadExpr for_expr;
    for_expr.query = static_cast<int>(qi);
    for_expr.pattern = nq.for_path;
    for_expr.implied_type = ValueType::kVarchar;
    for_expr.sargable_op = false;
    exprs_.push_back(std::move(for_expr));
    for (const QueryPredicate& pred : nq.predicates) {
      WorkloadExpr expr;
      expr.query = static_cast<int>(qi);
      expr.pattern = pred.pattern;
      expr.implied_type = pred.ImpliedType();
      expr.sargable_op =
          pred.op == CompareOp::kEq || pred.op == CompareOp::kLt ||
          pred.op == CompareOp::kLe || pred.op == CompareOp::kGt ||
          pred.op == CompareOp::kGe;
      exprs_.push_back(std::move(expr));
    }
  }
  expr_ids_.reserve(exprs_.size());
  for (const WorkloadExpr& expr : exprs_) {
    expr_ids_.push_back(cache_->Intern(expr.pattern));
  }
}

const Bitmap& ConfigurationEvaluator::Coverage(int candidate) {
  const size_t c = static_cast<size_t>(candidate);
  std::call_once(coverage_once_[c], [&] {
    const CandidateIndex& cand = (*candidates_)[c];
    const PatternId pattern = cache_->Intern(cand.def.pattern);
    Bitmap bits(exprs_.size());
    for (size_t e = 0; e < exprs_.size(); ++e) {
      const WorkloadExpr& expr = exprs_[e];
      const NormalizedQuery& nq =
          workload_->queries()[static_cast<size_t>(expr.query)].normalized;
      if (cand.def.collection != nq.collection) continue;
      // Type gate: a sargable expression counts as covered only by an
      // index that can serve it sargably (matching key type); non-sargable
      // expressions need a lossless (VARCHAR) index for structural
      // service. Structural coverage of a sargable expression deliberately
      // does NOT count — otherwise a cheap VARCHAR index would make the
      // better DOUBLE candidate look redundant to the heuristic.
      bool type_ok = expr.sargable_op
                         ? cand.def.type == expr.implied_type
                         : cand.def.type == ValueType::kVarchar;
      if (type_ok && cache_->Contains(pattern, expr_ids_[e])) bits.Set(e);
    }
    coverage_[c] = std::move(bits);
  });
  return coverage_[c];
}

bool ConfigurationEvaluator::Covers(int candidate, size_t expr_index) {
  return Coverage(candidate).Test(expr_index);
}

Bitmap ConfigurationEvaluator::CoverageOf(const std::vector<int>& config) {
  Bitmap covered(exprs_.size());
  for (int c : config) covered |= Coverage(c);
  return covered;
}

double ConfigurationEvaluator::EstimateUpdateCost(
    const std::vector<int>& config) const {
  if (!account_update_cost_) return 0.0;
  double total = 0;
  const CostModel& cm = optimizer_->cost_model();
  for (const UpdateOp& op : workload_->updates()) {
    const PathSynopsis* synopsis = optimizer_->db().synopsis(op.collection);
    if (synopsis == nullptr) continue;
    double target_count = synopsis->EstimateCount(op.target);
    for (int ci : config) {
      const CandidateIndex& cand = (*candidates_)[static_cast<size_t>(ci)];
      if (cand.def.collection != op.collection) continue;
      double overlap =
          synopsis->EstimateSubtreeOverlap(op.target, cand.def.pattern);
      // Entries touched per executed update: the overlap amortized over
      // target instances (inserting one subtree touches its share of keys).
      double per_instance =
          target_count > 0 ? overlap / target_count : overlap;
      total += op.weight * cm.UpdateMaintenanceCost(per_instance);
    }
  }
  return total;
}

std::pair<std::string, std::vector<int>> ConfigurationEvaluator::CanonicalKey(
    const std::vector<int>& config) {
  std::vector<int> sorted = config;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::string key;
  for (int c : sorted) key += std::to_string(c) + ",";
  return {std::move(key), std::move(sorted)};
}

AdvisorCacheCounters ConfigurationEvaluator::cache_counters() const {
  AdvisorCacheCounters counters;
  counters.cost = cost_cache_->stats();
  counters.containment = cache_->stats();
  if (decomposed()) counters.benefit = benefit_table_->stats();
  return counters;
}

obs::Snapshot ConfigurationEvaluator::DeterministicStats() const {
  obs::Snapshot snap;
  CostCacheStats cost = cost_cache_->stats();
  snap.counters["advisor.evaluations"] = num_evaluations_.Value();
  snap.counters["advisor.memo_hits"] = memo_hits_.Value();
  snap.counters["costcache.hits"] = cost.hits;
  snap.counters["costcache.misses"] = cost.misses;
  snap.gauges["costcache.entries"] = static_cast<int64_t>(cost.entries);
  snap.gauges["containment.entries"] =
      static_cast<int64_t>(cache_->stats().entries);
  if (decomposed()) {
    // Only in decomposed mode, so exact-mode traces stay byte-identical
    // to every pre-decomposition run. All four counters advance in the
    // serial collect/insert phases — thread-count deterministic.
    BenefitTableStats benefit = benefit_table_->stats();
    snap.counters["benefit.priced"] = benefit.priced;
    snap.counters["benefit.table_hits"] = benefit.table_hits;
    snap.counters["benefit.composed"] = benefit.composed;
    snap.counters["benefit.fallback_whatifs"] = benefit.fallback_whatifs;
    snap.gauges["benefit.entries"] = static_cast<int64_t>(benefit.entries);
  }
  return snap;
}

Result<ConfigurationEvaluator::Evaluation> ConfigurationEvaluator::Evaluate(
    const std::vector<int>& config) {
  XIA_SPAN("advisor.evaluate");
  return std::move(EvaluateMany({config}, /*honor_cancel=*/true,
                                /*use_table=*/decomposed())
                       .front());
}

Result<ConfigurationEvaluator::Evaluation>
ConfigurationEvaluator::EvaluateUngoverned(const std::vector<int>& config) {
  // Always exact, even in decomposed mode: the closing evaluation must
  // report the real optimizer cost of the chosen configuration, not a
  // composed bound — the promised benefit stays honest.
  XIA_SPAN("advisor.evaluate");
  return std::move(
      EvaluateMany({config}, /*honor_cancel=*/false, /*use_table=*/false)
          .front());
}

std::vector<Result<ConfigurationEvaluator::Evaluation>>
ConfigurationEvaluator::EvaluateMany(
    const std::vector<std::vector<int>>& configs) {
  XIA_SPAN("advisor.evaluate_many");
  return EvaluateMany(configs, /*honor_cancel=*/true,
                      /*use_table=*/decomposed());
}

std::vector<Result<ConfigurationEvaluator::Evaluation>>
ConfigurationEvaluator::EvaluateMany(
    const std::vector<std::vector<int>>& configs, bool honor_cancel,
    bool use_table) {
  std::vector<Result<Evaluation>> results(configs.size(),
                                          Status::Internal("not evaluated"));
  // Resolve memo hits and deduplicate the misses, so each distinct
  // configuration is evaluated — and counted — exactly once.
  struct Miss {
    std::string key;
    std::vector<int> sorted;
  };
  std::vector<Miss> misses;
  std::unordered_map<std::string, size_t> miss_index;
  std::vector<size_t> miss_of(configs.size(), SIZE_MAX);
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (size_t i = 0; i < configs.size(); ++i) {
      auto [key, sorted] = CanonicalKey(configs[i]);
      if (use_table) key.insert(0, "d:");
      auto hit = memo_.find(key);
      if (hit != memo_.end()) {
        memo_hits_.Increment();
        results[i] = hit->second;
        continue;
      }
      auto [it, inserted] = miss_index.emplace(key, misses.size());
      if (inserted) misses.push_back(Miss{std::move(key), std::move(sorted)});
      miss_of[i] = it->second;
    }
  }
  if (honor_cancel && cancel_.Cancelled()) {
    for (size_t i = 0; i < configs.size(); ++i) {
      if (miss_of[i] != SIZE_MAX) {
        results[i] = Status::Cancelled("configuration evaluation cancelled");
      }
    }
    return results;
  }

  // Serial collect, one slot per (miss, query): the benefit table's exact
  // cell, then its composed bound (decomposed scoring only), else — for a
  // class a truncated table never reached — a what-if request for the
  // query under its relevant candidates. Table outcomes are counted here,
  // so the benefit.* counters are thread-count deterministic.
  const std::vector<Query>& queries = workload_->queries();
  std::vector<WhatIfKernel::Request> requests;
  std::vector<BenefitEntry> cells;
  std::vector<size_t> slots;  // Request index, or kCell + cell index.
  constexpr size_t kCell = SIZE_MAX / 2;
  slots.reserve(misses.size() * queries.size());
  for (const Miss& miss : misses) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      WhatIfKernel::Request request{qi, {}};
      for (int c : miss.sorted) {
        if (kernel_.Relevant(c, qi)) request.overlay.push_back(c);
      }
      if (use_table) {
        const int cls = kernel_.query_class(qi);
        BenefitEntry cell;
        bool hit = benefit_table_->Lookup(cls, request.overlay, &cell);
        if (hit) {
          benefit_table_->CountHit();
        } else if (benefit_table_->Compose(cls, request.overlay, &cell)) {
          benefit_table_->CountComposed();
          hit = true;
        }
        if (hit) {
          slots.push_back(kCell + cells.size());
          cells.push_back(std::move(cell));
          continue;
        }
      }
      slots.push_back(requests.size());
      requests.push_back(std::move(request));
    }
  }
  size_t tasks = 0;
  std::vector<Result<WhatIfKernel::PlanPtr>> plans =
      kernel_.Run(requests, honor_cancel ? &cancel_ : nullptr, &tasks);
  // Fallback what-ifs: the optimizer calls this batch issued.
  if (use_table) benefit_table_->CountFallbackWhatIfs(tasks);

  // Serial assemble, in query order — the float-addition order of a plain
  // per-query loop. A configuration reports its first failing query.
  std::vector<Result<Evaluation>> evaluated;
  evaluated.reserve(misses.size());
  for (size_t mi = 0; mi < misses.size(); ++mi) {
    Evaluation eval;
    Status failed;
    for (size_t qi = 0; qi < queries.size() && failed.ok(); ++qi) {
      const size_t slot = slots[mi * queries.size() + qi];
      BenefitEntry entry;
      if (slot >= kCell) {
        entry = cells[slot - kCell];
      } else if (plans[slot].ok()) {
        entry = EntryFromPlan(misses[mi].sorted, **plans[slot]);
      } else {
        failed = plans[slot].status();
        continue;
      }
      eval.per_query_cost.push_back(entry.cost);
      eval.workload_cost += queries[qi].weight * entry.cost;
      eval.used_candidates.insert(entry.used.begin(), entry.used.end());
    }
    if (!failed.ok()) {
      evaluated.push_back(std::move(failed));
      continue;
    }
    eval.update_cost = EstimateUpdateCost(misses[mi].sorted);
    num_evaluations_.Increment();
    evaluated.push_back(std::move(eval));
  }

  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (size_t mi = 0; mi < misses.size(); ++mi) {
      if (evaluated[mi].ok()) memo_.emplace(misses[mi].key, *evaluated[mi]);
    }
  }
  for (size_t i = 0; i < configs.size(); ++i) {
    if (miss_of[i] != SIZE_MAX) results[i] = evaluated[miss_of[i]];
  }
  return results;
}

Result<BenefitPricingReport> ConfigurationEvaluator::PriceBenefitTable(
    const Deadline& deadline) {
  XIA_SPAN("advisor.price_benefits");
  auto table = std::make_unique<BenefitTable>();
  BenefitPricingReport report;

  // Per-class representative query (the first of its fingerprint class;
  // classes are numbered by first occurrence).
  std::vector<size_t> representative;
  for (size_t qi = 0; qi < workload_->queries().size(); ++qi) {
    if (static_cast<size_t>(kernel_.query_class(qi)) ==
        representative.size()) {
      representative.push_back(qi);
    }
  }
  report.classes = representative.size();

  // Serial enumeration: every (class, subset) in deterministic
  // class-major order, as one kernel request each.
  std::vector<WhatIfKernel::Request> requests;
  std::vector<int> request_class;
  for (size_t cls = 0; cls < representative.size(); ++cls) {
    size_t qi = representative[cls];
    std::vector<int> rel;
    for (size_t c = 0; c < candidates_->size(); ++c) {
      if (kernel_.Relevant(static_cast<int>(c), qi)) {
        rel.push_back(static_cast<int>(c));
      }
    }
    bool capped = false;
    std::vector<std::vector<int>> subsets =
        EnumerateBenefitSubsets(rel, &capped);
    report.subsets_enumerated += subsets.size();
    if (capped) ++report.capped_classes;
    for (std::vector<int>& subset : subsets) {
      requests.push_back(WhatIfKernel::Request{qi, std::move(subset)});
      request_class.push_back(static_cast<int>(cls));
    }
  }

  // Governed chunks: between chunks the anytime knobs are polled, so an
  // exhausted budget keeps the already-priced prefix as a usable
  // best-so-far table. The chunk is large enough for the kernel to use
  // its pool; ungoverned runs take one batch. Chunking changes scheduling
  // only: the table fills in enumeration order either way.
  const bool governed = !deadline.infinite() || cancel_.CanBeCancelled();
  const size_t chunk =
      governed ? std::max<size_t>(static_cast<size_t>(threads()) * 4, 16)
               : requests.size();
  StopReason stop = StopReason::kConverged;
  for (size_t next = 0;
       next < requests.size() && stop == StopReason::kConverged;
       next += chunk) {
    if (governed && cancel_.Cancelled()) {
      stop = StopReason::kCancelled;
      break;
    }
    if (governed && deadline.Expired()) {
      stop = StopReason::kDeadline;
      break;
    }
    std::vector<WhatIfKernel::Request> batch(
        requests.begin() + static_cast<long>(next),
        requests.begin() +
            static_cast<long>(std::min(next + chunk, requests.size())));
    std::vector<Result<WhatIfKernel::PlanPtr>> plans =
        kernel_.Run(batch, &cancel_);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (plans[i].ok()) {
        const std::vector<int>& subset = batch[i].overlay;
        std::optional<int> candidate;
        if (!subset.empty()) candidate = subset.front();
        table->Insert(request_class[next + i], candidate,
                      EntryFromPlan(subset, **plans[i]));
        continue;
      }
      if (plans[i].status().IsCancelled()) {
        // The external token fired mid-chunk: keep the priced prefix.
        stop = StopReason::kCancelled;
        break;
      }
      return plans[i].status();  // Real optimizer failure: propagate.
    }
  }

  if (stop != StopReason::kConverged) table->MarkTruncated(stop);
  report.stop_reason = stop;
  report.subsets_priced = table->entries();
  pricing_report_ = report;
  benefit_table_ = std::move(table);
  return report;
}

std::string ConfigurationEvaluator::DescribeDecomposition() const {
  if (!decomposed()) return "";
  return "decomposed scoring: " + pricing_report_.ToString();
}

Result<double> ConfigurationEvaluator::BaselineCost() {
  // Ungoverned: every anytime search needs the baseline to report a valid
  // best-so-far result, even when the token fired before the search began.
  XIA_ASSIGN_OR_RETURN(Evaluation eval, EvaluateUngoverned({}));
  return eval.workload_cost;
}

}  // namespace xia
