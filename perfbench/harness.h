#ifndef XIA_PERFBENCH_HARNESS_H_
#define XIA_PERFBENCH_HARNESS_H_

// Shared pieces of the benchmark driver: run arguments, the result
// report, latency samples, the in-memory span tracer, and the data and
// read-path helpers the workloads have in common.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/executor.h"
#include "index/catalog.h"
#include "optimizer/optimizer.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// Seconds elapsed since `start_ns`.
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// The server's buffer pool size: `query` data is sized above it and
/// `dml` data below it.
inline constexpr size_t kPoolPages = 4096;

/// Seed of the collections every workload starts from. Which indexes the
/// advisor recommends, and so what every read costs, depends on the data;
/// a fixed start keeps runs comparable, and the run's seed draws what
/// varies: operation order, write targets, capture frequencies.
inline constexpr uint64_t kDataSeed = 42;

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Samples per time slice of the end-to-end latency percentiles: a
/// slice's p99 has ten samples beyond it.
inline constexpr size_t kLatencyWindowSamples = 1000;
/// Fewest slices: on a short run (advise takes ~140 samples) a slice's p99
/// is its maximum, and the median of five maxima ignores two hiccups.
inline constexpr size_t kMinLatencyWindows = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    // Scratch directory owned by this run.
  std::string server_bin;  // xia_server binary (serve workload).
};

/// Latency samples in microseconds, each stamped with the time it was
/// added.
class Samples {
 public:
  void Add(double micros);
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Sum() const;
  double Mean() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  /// The median, over consecutive equal slices of the samples in time
  /// order (`windows` of them, fewer only when there are fewer samples),
  /// of each slice's quantile q. A burst of host interference moves one
  /// slice, not the result.
  double WindowedQuantile(double q, size_t windows) const;

 private:
  std::vector<double> values_;
  std::vector<int64_t> at_ns_;
};

/// What a run prints: attempts, failures and named metrics.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation (a failed correctness check included)
  /// and logs why to stderr.
  void Fail(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// The metric's value, or false when it was never set.
  bool Get(const std::string& name, double* value) const;
  /// A copy with the counts and no metrics.
  Report WithoutMetrics() const;
  /// Names of metrics whose value is NaN or infinite.
  std::vector<std::string> NonFiniteMetrics() const;

  /// The one-line result object.
  std::string ToJson() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, Metric> metrics_;
};

/// Spans kept in memory while a traced run lasts and written out at its
/// end. A span's parent is the span open on the same tracer when it
/// began; a layer's self time is its duration minus its children's.
/// One tracer per thread.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  /// Opens a span on construction and closes it on destruction; does
  /// nothing when the tracer is null.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  size_t size() const { return spans_.size(); }
  /// Total self time (µs) and span count per span name.
  std::map<std::string, double> SelfMicros() const;
  std::map<std::string, uint64_t> Counts() const;
  /// Total duration (µs) of spans named `name`.
  double TotalMicros(const std::string& name) const;
  /// Appends another thread's spans (parents re-based).
  void Merge(const Tracer& other);
  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Runs `setup` kSetupRepeats times and returns the median seconds; the
/// object of the last repetition stays in `*out`.
template <typename T, typename Fn>
double RepeatSetup(std::unique_ptr<T>* out, Fn setup) {
  Samples seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    out->reset();
    int64_t start = NowNs();
    *out = setup();
    seconds.Add(SecondsSince(start));
  }
  return seconds.Quantile(0.5);
}

/// Cycles through [0, n) in a seeded order that is reshuffled every
/// cycle, so each item keeps the same share of a run of any length.
class MixCursor {
 public:
  MixCursor(size_t n, uint64_t seed);
  size_t Next();

 private:
  std::vector<size_t> order_;
  size_t pos_ = 0;
  std::mt19937_64 rng_;
};

/// Peak resident set (VmHWM) of process `pid` (0 = this process), MiB.
double PeakRssMb(int pid = 0);

/// Total bytes of regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

/// Sum of the collection's document pages at the default page size.
uint64_t CollectionPages(const xia::Database& db,
                         const std::string& collection);

/// Builds the advisor's recommendation for `workload` with default
/// options and creates it physically in `catalog`; `materialize_ms`, when
/// given, receives the time the index builds took.
xia::Status AdviseAndMaterialize(xia::Database* db, xia::Catalog* catalog,
                                 const xia::Workload& workload,
                                 double* materialize_ms = nullptr);

/// `count` serialized XMark documents drawn from `seed`: the documents
/// the DML workloads insert and update with.
std::vector<std::string> MakeXMarkDocs(uint64_t seed, int count);

/// The distinct read texts of a mix: the demo workloads' queries plus
/// unseen variations (which often no index serves). The texts are the same
/// for every seed; seeds vary the order, not the queries.
std::vector<std::string> MakeReadMix(bool with_tpox, size_t target_size);

/// One read's plan and result.
struct ReadOutcome {
  xia::QueryPlan plan;
  xia::ExecResult result;
};

/// ParseQuery -> Optimize -> Execute, each inside its own span.
xia::Result<ReadOutcome> RunRead(const std::string& text,
                                 const xia::Database& db,
                                 const xia::Catalog& catalog,
                                 xia::BufferPool* pool,
                                 xia::ContainmentCache* cache,
                                 Tracer* tracer);

/// The oracle: the sorted result of the query's collection-scan plan
/// (no indexes, no pool) against the current data.
struct ReadResultSet {
  std::vector<xia::NodeRef> nodes;
  std::vector<xia::NodeRef> returned;
  bool operator==(const ReadResultSet& other) const {
    return nodes == other.nodes && returned == other.returned;
  }
};
ReadResultSet Canonical(const xia::ExecResult& result);
xia::Result<ReadResultSet> ScanReference(const std::string& text,
                                         const xia::Database& db);

/// Counters over a fixed prefix of a run's reads, which repeat exactly
/// for a fixed seed.
struct ReadCounts {
  uint64_t reads = 0;
  uint64_t results = 0;
  uint64_t nodes_examined = 0;
  double sim_pages = 0;
  uint64_t index_plans = 0;
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  void Add(const ReadOutcome& read);
};

/// Per-layer metrics of the read path from a traced run's spans and the
/// prefix counters.
void ReportReadLayers(const Tracer& tracer, const ReadCounts& counts,
                      Report* report);

/// Span names of the read path.
inline constexpr char kReadSpan[] = "read";
inline constexpr char kParseSpan[] = "query.parse";
inline constexpr char kOptimizeSpan[] = "optimizer.optimize";
inline constexpr char kExecuteSpan[] = "exec.execute";

/// Reports `trace.overhead_frac`, `trace.unattributed_frac` and
/// `trace.spans`: traced vs untraced mean operation time, and the share of
/// the root spans' time no child span accounts for.
/// `inner_unattributed_us` adds residue measured inside a root's child
/// (time a child spends outside the stages known to it).
void ReportTraceOverhead(const Tracer& tracer,
                         const std::vector<std::string>& roots,
                         double untraced_mean_us, double traced_mean_us,
                         Report* report, double inner_unattributed_us = 0);

/// Writes the tracer's spans to `<work_dir>/../traces/<work dir name>.jsonl`.
void SaveTrace(const Args& args, const Tracer& tracer);

/// Metrics every workload reports from its untraced operation samples:
/// latency percentiles (each the median over time slices of
/// kLatencyWindowSamples samples, at least kMinLatencyWindows slices),
/// throughput over the phase, and the sample count.
void ReportOps(const Samples& ops, double phase_seconds, Report* report);

// Workload entry points.
int RunAdvise(const Args& args, Report* report);
int RunQuery(const Args& args, Report* report);
int RunDml(const Args& args, Report* report);
int RunServe(const Args& args, Report* report);

}  // namespace perfbench

#endif  // XIA_PERFBENCH_HARNESS_H_
