#ifndef XIA_STORAGE_STATISTICS_H_
#define XIA_STORAGE_STATISTICS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "xpath/path.h"

namespace xia {

/// Value statistics aggregated over all synopsis nodes matched by a
/// pattern. The optimizer's cardinality estimator and the virtual-index
/// size estimator both consume this.
struct AggValueStats {
  uint64_t node_count = 0;     // Nodes reachable by the pattern.
  uint64_t value_count = 0;    // Of those, nodes carrying a value.
  uint64_t numeric_count = 0;  // Values parseable as numbers.
  double min_num = 0.0;
  double max_num = 0.0;
  double total_value_bytes = 0.0;
  double distinct_estimate = 0.0;
  std::vector<std::string> sample;  // Reservoir sample of raw values.
};

/// Estimated fraction of a pattern's nodes whose value satisfies
/// `op literal`, from the reservoir sample with Laplace smoothing (so an
/// empty or miss-only sample never yields exactly 0). kExists returns 1.
double EstimateSelectivity(const AggValueStats& stats, CompareOp op,
                           const std::string& literal);

/// One bucket of an equi-depth histogram over numeric values.
struct HistogramBucket {
  double lo = 0.0;
  double hi = 0.0;
  uint64_t count = 0;
};

/// Equi-depth histogram built from a stats sample, scaled to the full value
/// count. Used for EXPLAIN output and recommendation-analysis displays.
///
/// Bucket endpoints are CLOSED intervals [lo, hi]: BuildEquiDepthHistogram
/// stores actual sample values at both ends, so a probe value equal to a
/// bucket's upper bound belongs to that bucket — in particular, probing
/// the last bucket's `hi` is inside the histogram (FractionLE == 1.0),
/// not past its end. Build and probe agree on this by contract; the
/// boundary-value tests in tests/synopsis_test.cc and
/// tests/cost_model_test.cc lock it in.
struct Histogram {
  std::vector<HistogramBucket> buckets;

  /// Index of the first bucket whose closed interval [lo, hi] contains
  /// `value`, or -1 when the value falls outside every bucket (below the
  /// first lo, above the last hi, or in a gap between buckets). Adjacent
  /// buckets may share a boundary value; the lower bucket wins.
  int BucketIndexFor(double value) const;

  /// Estimated fraction of values <= `value`: full buckets below it plus
  /// linear interpolation inside the bucket containing it. 0.0 below the
  /// first bucket's lo, 1.0 at or above the last bucket's hi (inclusive —
  /// the boundary case this API exists to pin down). 0.0 for an empty
  /// histogram.
  double FractionLE(double value) const;

  std::string ToString() const;
};

/// Builds an equi-depth histogram with up to `max_buckets` buckets from the
/// numeric values in `stats.sample`, scaling counts to stats.value_count.
Histogram BuildEquiDepthHistogram(const AggValueStats& stats,
                                  int max_buckets);

/// Histogram-based selectivity of `op literal` over the pattern's values,
/// UNCLAMPED: boundary probes legitimately return exactly 0.0 / 1.0 under
/// the closed-interval [lo, hi] contract above (probing the last hi gives
/// FractionLE == 1.0, so kGt past the max is 0.0). nullopt when the
/// estimate is not computable from a histogram — non-numeric literal, no
/// numeric sample values, or an op it does not model (kExists, string
/// comparisons). Callers that feed the cost model should go through
/// SelectivityFromStats, which clamps.
std::optional<double> HistogramSelectivity(const AggValueStats& stats,
                                           CompareOp op,
                                           const std::string& literal,
                                           int max_buckets = 16);

/// The live estimator behind PathSynopsis::SelectivityFor: prefers the
/// equi-depth histogram for ordering predicates (kLt/kLe/kGt/kGe), falling
/// back to the sample-counting EstimateSelectivity for everything else
/// (kEq keeps Laplace counting: equality on a reservoir sample is already
/// frequency-aware, while the histogram's uniform-within-bucket spread is
/// not). Histogram results are clamped to [floor, 1 - floor] with
/// floor = 0.5 / (sample.size() + 1) — the same smoothing mass Laplace
/// grants one phantom row — so the cost model never sees an impossible
/// zero-cardinality (or free full-scan) boundary estimate.
double SelectivityFromStats(const AggValueStats& stats, CompareOp op,
                            const std::string& literal);

}  // namespace xia

#endif  // XIA_STORAGE_STATISTICS_H_
