#ifndef XIA_ADVISOR_BENEFIT_H_
#define XIA_ADVISOR_BENEFIT_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "advisor/benefit_table.h"
#include "advisor/candidate.h"
#include "common/bitmap.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/status.h"
#include "optimizer/cost_cache.h"
#include "optimizer/optimizer.h"
#include "optimizer/whatif_kernel.h"
#include "workload/workload.h"
#include "xpath/containment.h"

namespace xia {

/// Evaluates candidate index configurations for the search algorithms.
///
/// Every evaluation re-optimizes the *whole* workload under the *whole*
/// configuration (the Evaluate Indexes mode contract), so index
/// interaction — an index's benefit changing depending on which other
/// indexes exist — is captured by construction, as Section 2.3 requires.
/// Evaluations are memoized by configuration, since greedy and top-down
/// searches revisit configurations.
///
/// Every evaluation is a batch (Evaluate is EvaluateMany of one): one
/// serial pass resolves each (configuration, query) pair from the benefit
/// table when decomposed scoring is on, else hands it to the what-if
/// kernel (optimizer/whatif_kernel.h) as a request for the query under
/// the candidates relevant to it. The kernel resolves requests from its
/// plan cache or deduplicated plan tasks and fans the tasks out over
/// `threads`; configurations are then assembled serially in query order,
/// so costs and counters are bit-identical at any thread count. A query's
/// plan depends only on the configuration's relevant candidates, so the
/// optimizer runs once per distinct (query, relevant-candidate-set) pair
/// and every other (query, configuration) pair is a cache hit.
///
/// Decomposed mode (PriceBenefitTable, benefit_table.h): one step
/// further — each query class is priced up front under the empty set and
/// under each relevant candidate alone, and configuration scoring becomes
/// table lookups plus a conservative composed bound, with real what-if
/// only where a truncated table has nothing to compose from.
/// Optimizer-call count then scales with queries + candidates, not
/// configurations explored.
class ConfigurationEvaluator {
 public:
  /// One workload XPath expression (driving path or predicate pattern) —
  /// the unit of the greedy-heuristic search's redundancy bitmap.
  struct WorkloadExpr {
    int query = 0;
    PathPattern pattern;
    ValueType implied_type = ValueType::kVarchar;
    bool sargable_op = false;
  };

  /// Outcome of evaluating one configuration.
  struct Evaluation {
    double workload_cost = 0;  // Weighted estimated query cost.
    double update_cost = 0;    // Estimated index-maintenance debit.
    std::vector<double> per_query_cost;
    std::set<int> used_candidates;  // Candidates some best plan uses.

    double TotalCost() const { return workload_cost + update_cost; }
  };

  /// All pointers must outlive the evaluator, and the database and base
  /// catalog must not change while it lives. `account_update_cost`
  /// toggles the maintenance debit (ablation B). `threads` is the what-if
  /// fan-out width: 1 (the default) evaluates serially, 0 resolves to
  /// std::thread::hardware_concurrency(). `shared_cost_cache`, when
  /// non-null, replaces the evaluator's own plan cache with an external
  /// one that outlives it — how a server shares one warm cache across
  /// many advises. Results are identical either way; only hit/miss counts
  /// depend on prior warming.
  ConfigurationEvaluator(const Optimizer* optimizer, const Workload* workload,
                         const Catalog* base_catalog,
                         const std::vector<CandidateIndex>* candidates,
                         ContainmentCache* cache, bool account_update_cost,
                         int threads = 1,
                         WhatIfCostCache* shared_cost_cache = nullptr);

  /// Installs the cooperative-cancellation token that Evaluate and
  /// EvaluateMany poll at per-query / per-task boundaries. A fired token
  /// makes in-flight evaluations return StatusCode::kCancelled; an inert
  /// (default) token costs one relaxed atomic load per check.
  void set_cancel(CancelToken cancel) { cancel_ = std::move(cancel); }

  /// Evaluates the configuration given as candidate indices:
  /// EvaluateMany of one.
  Result<Evaluation> Evaluate(const std::vector<int>& config);

  /// Evaluate, but ignoring the external CancelToken (deterministic
  /// sibling cancellation after a failing what-if task still applies).
  /// Anytime searches use this for the one closing evaluation that prices
  /// the best-so-far configuration after the budget fired — a valid
  /// flagged recommendation must still come back. Memoized results make
  /// this nearly free on the search paths.
  Result<Evaluation> EvaluateUngoverned(const std::vector<int>& config);

  /// Evaluates several configurations, returning results aligned with
  /// `configs`. This is the search-loop fan-out: scoring every candidate
  /// of a greedy round is one kernel batch, whose fan-out unit is the
  /// distinct (query, relevant candidate set) pair deduplicated across
  /// the whole batch. Results and num_evaluations() match what sequential
  /// Evaluate() calls would have produced. A fired CancelToken fails every
  /// configuration the memo cannot answer with kCancelled.
  std::vector<Result<Evaluation>> EvaluateMany(
      const std::vector<std::vector<int>>& configs);

  /// Cost of the empty configuration (collection scans everywhere).
  Result<double> BaselineCost();

  /// Prices the CoPhy-style atomic-benefit table (benefit_table.h) and
  /// switches Evaluate/EvaluateMany to the decomposed mode: per query,
  /// an exact table hit when its relevant-set overlap is priced, else the
  /// composed conservative bound, and a real what-if call (through the
  /// cost cache) only when a truncated table has no cell for its class.
  /// EvaluateUngoverned and BaselineCost deliberately stay on the exact
  /// path so closing evaluations report honest (non-composed) costs.
  ///
  /// Pricing itself runs the (class, subset) what-ifs through the kernel
  /// in deadline-/cancel-governed chunks: an exhausted budget returns a
  /// usable best-so-far table (report.stop_reason != kConverged), never
  /// an error.
  Result<BenefitPricingReport> PriceBenefitTable(const Deadline& deadline);

  /// True once PriceBenefitTable installed a table (decomposed mode on).
  bool decomposed() const { return benefit_table_ != nullptr; }

  /// The priced table, or null before PriceBenefitTable.
  const BenefitTable* benefit_table() const { return benefit_table_.get(); }

  /// One-line decomposition description for search traces; empty when
  /// the evaluator runs exact.
  std::string DescribeDecomposition() const;

  /// The workload expression table (stable order).
  const std::vector<WorkloadExpr>& exprs() const { return exprs_; }

  /// Bitmap over exprs(): which workload expressions some candidate in
  /// `config` covers (containment + type compatibility). This is the
  /// paper's "bitmap of XPath patterns in the workload queries that have
  /// indexes on them": the OR of each member's coverage bitmap.
  Bitmap CoverageOf(const std::vector<int>& config);

  /// True when candidate `candidate` covers expression `expr_index`.
  bool Covers(int candidate, size_t expr_index);

  /// Number of distinct configurations actually optimized (cache misses).
  int num_evaluations() const {
    return static_cast<int>(num_evaluations_.Value());
  }

  /// Effective what-if fan-out width (>= 1).
  int threads() const { return kernel_.threads(); }

  /// The what-if plan cache the kernel reads and fills.
  const WhatIfCostCache& cost_cache() const { return *cost_cache_; }

  /// Snapshot of both cache layers for search traces and bench output.
  AdvisorCacheCounters cache_counters() const;

  /// The thread-count-deterministic subset of this evaluator's metrics as
  /// an obs::Snapshot — only values the serial lookup/dedup/assemble
  /// phases produce (cost-cache hits/misses/entries, containment
  /// entries, memo hits, evaluations). Search traces embed its TextLines:
  /// they must stay byte-identical at any thread count
  /// (tests/parallel_eval_test.cc), which rules out containment hit/miss
  /// splits and any thread-pool metric.
  obs::Snapshot DeterministicStats() const;

  const std::vector<CandidateIndex>& candidates() const {
    return *candidates_;
  }

 private:
  const Optimizer* optimizer_;
  const Workload* workload_;
  const std::vector<CandidateIndex>* candidates_;
  ContainmentCache* cache_;
  bool account_update_cost_;
  std::vector<WorkloadExpr> exprs_;
  CancelToken cancel_;
  std::mutex memo_mu_;
  std::map<std::string, Evaluation> memo_;
  // xia::obs counters ("advisor.*"): distinct configurations optimized
  // and configuration-memo hits. Both advance in serial phases only, so
  // they are deterministic at any thread count.
  obs::Counter num_evaluations_{"advisor.evaluations"};
  obs::Counter memo_hits_{"advisor.memo_hits"};
  /// The plan cache in use: owned_cost_cache_ unless the constructor
  /// received an external shared one. Declared before kernel_, which is
  /// initialized from it.
  std::unique_ptr<WhatIfCostCache> owned_cost_cache_;
  WhatIfCostCache* cost_cache_;
  /// Overlay entry i is candidate i, named CandidateOverlayName(i).
  WhatIfKernel kernel_;
  /// Decomposed mode (PriceBenefitTable): the priced atomic-benefit
  /// table, read-only after pricing, plus its report. Null table = exact
  /// mode.
  std::unique_ptr<BenefitTable> benefit_table_;
  BenefitPricingReport pricing_report_;
  /// exprs_[e].pattern interned in cache_.
  std::vector<PatternId> expr_ids_;
  /// coverage_[c]: the expressions candidate c covers, filled on first
  /// use under coverage_once_[c] — searches that never ask pay nothing.
  std::vector<Bitmap> coverage_;
  std::vector<std::once_flag> coverage_once_;

  /// Canonical memo key (sorted, deduplicated config) + that config.
  /// This is the single normalization point for the configuration memo,
  /// so duplicate and unsorted inputs collapse to one memo entry and one
  /// evaluation (regression: tests/cost_cache_test.cc,
  /// MemoKeyCanonicalization*).
  static std::pair<std::string, std::vector<int>> CanonicalKey(
      const std::vector<int>& config);

  /// The one evaluation path. `honor_cancel` selects whether the external
  /// token is polled and `use_table` whether decomposed scoring applies
  /// (EvaluateUngoverned passes false for both — closing evaluations stay
  /// exact). Decomposed and exact results are memoized under disjoint
  /// keys ("d:" prefix), so both coexist per config.
  std::vector<Result<Evaluation>> EvaluateMany(
      const std::vector<std::vector<int>>& configs, bool honor_cancel,
      bool use_table);

  double EstimateUpdateCost(const std::vector<int>& config) const;

  /// coverage_[candidate], computed on first use.
  const Bitmap& Coverage(int candidate);
};

/// Internal name given to candidate `i` in evaluation overlays.
std::string CandidateOverlayName(int candidate);

/// Inverse of CandidateOverlayName with no trust in the input: the id for
/// names of exactly the form "cand<decimal digits>", std::nullopt for
/// everything else (other prefixes, "cand", "cand12x", "candelabra",
/// overflowing digit runs). Never throws — physical catalog indexes with
/// arbitrary names flow through the same plan-attribution paths.
std::optional<int> TryParseCandidateId(const std::string& name);

}  // namespace xia

#endif  // XIA_ADVISOR_BENEFIT_H_
