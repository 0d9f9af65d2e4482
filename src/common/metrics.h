#ifndef XIA_COMMON_METRICS_H_
#define XIA_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xia {
namespace obs {

/// xia::obs — the process-wide observability substrate.
///
/// Three metric kinds, all safe for concurrent updates:
///   - Counter:  named monotonic counter, lock-free sharded increments.
///   - Gauge:    named instantaneous value (queue depths, entry counts).
///   - LatencyHistogram: log2-bucketed wall-clock aggregation for spans.
///
/// Every metric instance may carry a registry name. Named instances are
/// attached to the global MetricsRegistry for their lifetime; a snapshot
/// aggregates all live instances of a name plus the retained totals of
/// destroyed ones, so registry counters stay monotonic across instance
/// lifetimes (e.g. one ContainmentCache per advisor run, all feeding
/// "containment.hits"). Unnamed instances are free-standing.
///
/// Subsystems embed the metric objects directly — per-instance reads
/// (ContainmentCache::stats() etc.) keep their exact pre-obs semantics —
/// while the registry is read two ways, both rendering one Snapshot: the
/// `stats` verb (ToText) and the --stats-json dump of the server and the
/// benches (ToJson). Advisor search traces render an evaluator-local
/// Snapshot of the same shape (ConfigurationEvaluator::DeterministicStats).
///
/// Counter-name schema (dotted, lowercase; keep bench JSON stable):
///   <subsystem>.<object>.<event>
///   containment.{hits,misses}          costcache.{hits,misses}
///   bufferpool.{hits,misses,evictions} threadpool.{tasks}
///   threadpool.queue_depth (gauge)     advisor.{evaluations,memo_hits}
///   optimizer.{plans_enumerated}       optimizer.choice.{collection_scan,
///   index_scan,ixand}                  synopsis.memo.{hits,misses}
///   exec.scan.{collection,index}       span.<phase> (histograms)
///   benefit.{priced,table_hits,composed,fallback_whatifs} (decomposed
///   advising, advisor/benefit_table.h; benefit.entries is a gauge)

/// Stripes per counter: concurrent increments from different threads
/// usually land on different cache lines.
inline constexpr size_t kCounterStripes = 8;

/// Monotonic counter. Add() is lock-free (one relaxed fetch_add on a
/// thread-striped cache-line-aligned cell); Value() sums the stripes.
class Counter {
 public:
  /// Free-standing counter, not visible in registry snapshots.
  Counter() = default;

  /// Registry-attached counter: contributes to snapshots under `name`
  /// for its lifetime, and folds its final value into the name's
  /// retained total on destruction.
  explicit Counter(std::string name);

  ~Counter();

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n) {
    cells_[Stripe()].value.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const;

  /// Zeroes the stripes (BufferPool::Reset and tests). The registry
  /// aggregate of the name drops accordingly; snapshots are therefore
  /// only monotonic between resets.
  void Reset();

  const std::string& name() const { return name_; }

 private:
  /// Index of the calling thread's stripe (stable per thread).
  static size_t Stripe();

  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::array<Cell, kCounterStripes> cells_;
  std::string name_;  // Empty = unattached.
};

/// Instantaneous signed value. Snapshot aggregation sums live instances
/// of a name (a destroyed gauge contributes nothing — its quantity, e.g.
/// a queue depth, is gone with it).
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(std::string name);
  ~Gauge();

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void Sub(int64_t d) { value_.fetch_sub(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  std::atomic<int64_t> value_{0};
  std::string name_;
};

/// Latency aggregation for phase spans: count, total, and log2-scaled
/// microsecond buckets (bucket i counts samples with bit_width(us) == i).
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(uint64_t micros);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t total_micros() const {
    return total_micros_.load(std::memory_order_relaxed);
  }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_micros_{0};
};

/// Aggregated span statistics as exported in snapshots.
struct SpanStats {
  uint64_t count = 0;
  uint64_t total_micros = 0;

  bool operator==(const SpanStats& other) const {
    return count == other.count && total_micros == other.total_micros;
  }
};

/// Point-in-time view of every registered metric. Deterministically
/// ordered: all maps sort by name, so two snapshots of identical state
/// render byte-identically regardless of registration or thread order.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, SpanStats> spans;

  /// Value of a counter, 0 when absent.
  uint64_t counter(const std::string& name) const;

  /// One "name = value" line per metric, each prefixed with
  /// `line_prefix`, counters then gauges then spans, sorted by name —
  /// the `stats` verb's rendering.
  std::string ToText(const std::string& line_prefix = "") const;

  /// Same content as ToText, one line per element (for search traces).
  std::vector<std::string> TextLines(const std::string& line_prefix) const;

  /// Stable JSON: {"counters":{...},"gauges":{...},"spans":{...}}, keys
  /// sorted. The benches write this next to their google-benchmark JSON
  /// so perf numbers ship with phase-level attribution.
  std::string ToJson() const;
};

/// Process-wide registry. Leaked singleton — metric references returned
/// by GetCounter/GetGauge stay valid for the process lifetime.
class MetricsRegistry {
 public:
  /// Registry-owned metrics for call sites without a natural owning
  /// object (optimizer plan counts, executor scan choices). The first
  /// call for a name creates it; later calls return the same object.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);

  /// Histogram a span name aggregates into (created on first use).
  LatencyHistogram& GetSpanHistogram(const std::string& name);

  Snapshot TakeSnapshot() const;

  /// Writes TakeSnapshot().ToJson() to `path`; false on I/O failure.
  bool WriteJsonFile(const std::string& path) const;

  // Instance attachment (used by the named Counter/Gauge constructors).
  void Attach(Counter* counter);
  void Detach(Counter* counter);
  void Attach(Gauge* gauge);
  void Detach(Gauge* gauge);

 private:
  friend MetricsRegistry& Registry();
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> owned_counters_;
  std::map<std::string, std::unique_ptr<Gauge>> owned_gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> spans_;
  std::map<std::string, std::vector<Counter*>> attached_counters_;
  std::map<std::string, std::vector<Gauge*>> attached_gauges_;
  /// Final values of destroyed attached counters, so registry totals
  /// survive instance churn.
  std::map<std::string, uint64_t> retired_counters_;
};

/// The process-wide registry.
MetricsRegistry& Registry();

/// Span master switch (default off). Disabled spans read one relaxed
/// atomic and touch neither the clock nor the registry — the hot path
/// stays unperturbed, and no counters move (tests/metrics_test.cc).
void SetSpansEnabled(bool enabled);
bool SpansEnabled();

}  // namespace obs
}  // namespace xia

#endif  // XIA_COMMON_METRICS_H_
