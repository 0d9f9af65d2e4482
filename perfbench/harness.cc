#include "harness.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "advisor/advisor.h"
#include "advisor/analysis.h"
#include "common/random.h"
#include "query/parser.h"
#include "workload/tpox_queries.h"
#include "workload/variation.h"
#include "workload/xmark_queries.h"
#include "xml/serializer.h"
#include "xmldata/xmark_gen.h"

namespace perfbench {

using namespace xia;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ Report

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

bool Report::Get(const std::string& name, double* value) const {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) return false;
  *value = it->second.value;
  return true;
}

Report Report::WithoutMetrics() const {
  Report copy = *this;
  copy.metrics_.clear();
  return copy;
}

std::vector<std::string> Report::NonFiniteMetrics() const {
  std::vector<std::string> names;
  for (const auto& [name, metric] : metrics_) {
    if (!std::isfinite(metric.value)) names.push_back(name);
  }
  return names;
}

void Report::Fail(const std::string& why) {
  ++failed_;
  // Bounded: a systematic failure must not flood stderr.
  if (failed_ <= 10) std::cerr << "check failed: " << why << "\n";
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": ";
    // JSON has no NaN or infinity; null keeps the line parseable and the
    // value visibly wrong.
    if (std::isfinite(metric.value)) {
      out << metric.value;
    } else {
      out << "null";
    }
    out << ", \"unit\": \"" << metric.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ----------------------------------------------------------------- Samples

namespace {

/// Linear-interpolated quantile of `values` (sorted in place).
double SortedQuantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  double pos = q * static_cast<double>(values->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values->size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (*values)[lo] + ((*values)[hi] - (*values)[lo]) * frac;
}

}  // namespace

void Samples::Add(double micros) {
  values_.push_back(micros);
  at_ns_.push_back(NowNs());
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  at_ns_.insert(at_ns_.end(), other.at_ns_.begin(), other.at_ns_.end());
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  std::vector<double> sorted = values_;
  return SortedQuantile(&sorted, q);
}

double Samples::WindowedQuantile(double q, size_t windows) const {
  windows = std::clamp<size_t>(windows, 1, std::max<size_t>(size(), 1));
  std::vector<size_t> order(values_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return at_ns_[a] < at_ns_[b]; });
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    size_t begin = order.size() * w / windows;
    size_t end = order.size() * (w + 1) / windows;
    std::vector<double> slice;
    for (size_t i = begin; i < end; ++i) slice.push_back(values_[order[i]]);
    if (!slice.empty()) per_window.push_back(SortedQuantile(&slice, q));
  }
  return SortedQuantile(&per_window, 0.5);
}

// ------------------------------------------------------------------ Tracer

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  id_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(id_);
  // Read the clock last so the bookkeeping above is not inside the span.
  tracer_->spans_[static_cast<size_t>(id_)].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(id_)].end_ns = NowNs();
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::SelfMicros() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e3;
  }
  return self;
}

std::map<std::string, uint64_t> Tracer::Counts() const {
  std::map<std::string, uint64_t> counts;
  for (const Span& span : spans_) ++counts[span.name];
  return counts;
}

double Tracer::TotalMicros(const std::string& name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) {
      total += static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    }
  }
  return total;
}

void Tracer::Merge(const Tracer& other) {
  int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"parent\": " << span.parent
        << "}\n";
  }
  return static_cast<bool>(out);
}

// --------------------------------------------------------------- MixCursor

MixCursor::MixCursor(size_t n, uint64_t seed) : order_(n), rng_(seed) {
  for (size_t i = 0; i < n; ++i) order_[i] = i;
  std::shuffle(order_.begin(), order_.end(), rng_);
}

size_t MixCursor::Next() {
  if (pos_ == order_.size()) {
    std::shuffle(order_.begin(), order_.end(), rng_);
    pos_ = 0;
  }
  return order_[pos_++];
}

// ------------------------------------------------------------------ System

double PeakRssMb(int pid) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st{};
    std::string path = dir + "/" + name;
    if (::stat(path.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      total += DirBytes(path);
    } else if (S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  ::closedir(d);
  return total;
}

uint64_t CollectionPages(const Database& db, const std::string& collection) {
  const Collection* coll = db.GetCollection(collection);
  if (coll == nullptr) return 0;
  const double page = StorageConstants().page_size_bytes;
  uint64_t pages = 0;
  for (size_t i = 0; i < coll->num_docs(); ++i) {
    DocId id = static_cast<DocId>(i);
    if (!coll->IsLive(id)) continue;
    pages += static_cast<uint64_t>(
        std::ceil(static_cast<double>(coll->doc(id).ByteSize()) / page));
  }
  return pages;
}

// -------------------------------------------------------------------- Data

Status AdviseAndMaterialize(Database* db, Catalog* catalog,
                            const Workload& workload,
                            double* materialize_ms) {
  AdvisorOptions options;
  Advisor advisor(db, catalog, options);
  Result<Recommendation> rec = advisor.Recommend(workload);
  if (!rec.ok()) return rec.status();
  int64_t start = NowNs();
  Result<double> built = MaterializeConfiguration(
      *db, rec->indexes, catalog, options.cost_model.storage);
  if (materialize_ms != nullptr) {
    *materialize_ms = static_cast<double>(NowNs() - start) / 1e6;
  }
  return built.ok() ? Status::Ok() : built.status();
}

std::vector<std::string> MakeXMarkDocs(uint64_t seed, int count) {
  NameTable names;
  Random rng(seed);
  std::vector<std::string> docs;
  for (int i = 0; i < count; ++i) {
    docs.push_back(SerializeDocument(
        GenerateXMarkDocument(&names, XMarkParams(), &rng), names));
  }
  return docs;
}

std::vector<std::string> MakeReadMix(bool with_tpox, size_t target_size) {
  std::vector<std::string> texts;
  std::set<std::string> seen;
  auto add = [&](const Workload& workload) {
    for (const Query& q : workload.queries()) {
      if (texts.size() >= target_size) return;
      if (seen.insert(q.text).second) texts.push_back(q.text);
    }
  };
  add(MakeXMarkWorkload("xmark"));
  if (with_tpox) add(MakeTpoxWorkload());
  Random rng(kDataSeed);
  // Unseen variations until the mix reaches its size; alternate
  // collections so both keep a share.
  for (int round = 0; texts.size() < target_size && round < 64; ++round) {
    add(MakeXMarkUnseenWorkload("xmark", &rng, 1));
    if (with_tpox) add(MakeTpoxUnseenWorkload(&rng, 1));
  }
  return texts;
}

// --------------------------------------------------------------- Read path

Result<ReadOutcome> RunRead(const std::string& text, const Database& db,
                            const Catalog& catalog, BufferPool* pool,
                            ContainmentCache* cache, Tracer* tracer) {
  Tracer::Scope read(tracer, kReadSpan);
  Result<Query> query = Status::Internal("unparsed");
  {
    Tracer::Scope span(tracer, kParseSpan);
    query = ParseQuery(text);
  }
  if (!query.ok()) return query.status();
  ReadOutcome outcome;
  Optimizer optimizer(&db, CostModel());
  {
    Tracer::Scope span(tracer, kOptimizeSpan);
    Result<QueryPlan> plan = optimizer.Optimize(*query, catalog, cache);
    if (!plan.ok()) return plan.status();
    outcome.plan = std::move(*plan);
  }
  Executor executor(&db, &catalog, CostModel(), pool);
  {
    Tracer::Scope span(tracer, kExecuteSpan);
    Result<ExecResult> run = executor.Execute(outcome.plan);
    if (!run.ok()) return run.status();
    outcome.result = std::move(*run);
  }
  return outcome;
}

ReadResultSet Canonical(const ExecResult& result) {
  ReadResultSet set{result.nodes, result.returned};
  std::sort(set.nodes.begin(), set.nodes.end());
  std::sort(set.returned.begin(), set.returned.end());
  return set;
}

Result<ReadResultSet> ScanReference(const std::string& text,
                                    const Database& db) {
  Catalog empty;
  ContainmentCache cache;
  XIA_ASSIGN_OR_RETURN(ReadOutcome outcome,
                       RunRead(text, db, empty, nullptr, &cache, nullptr));
  if (outcome.plan.access.use_index) {
    return Status::Internal("reference plan uses an index");
  }
  return Canonical(outcome.result);
}

void ReadCounts::Add(const ReadOutcome& read) {
  ++reads;
  results += read.result.nodes.size();
  nodes_examined += read.result.nodes_examined;
  sim_pages += read.result.simulated_page_reads;
  index_plans += read.plan.access.use_index ? 1 : 0;
  buffer_hits += read.result.buffer_hits;
  buffer_misses += read.result.buffer_misses;
}

void ReportReadLayers(const Tracer& tracer, const ReadCounts& counts,
                      Report* report) {
  std::map<std::string, double> self = tracer.SelfMicros();
  std::map<std::string, uint64_t> n = tracer.Counts();
  double reads = static_cast<double>(std::max<uint64_t>(n[kReadSpan], 1));
  report->Set("query.parse_us", self[kParseSpan] / reads, "us");
  report->Set("optimizer.optimize_us", self[kOptimizeSpan] / reads, "us");
  report->Set("exec.execute_us", self[kExecuteSpan] / reads, "us");
  report->Set("read.unattributed_us", self[kReadSpan] / reads, "us");
  double prefix = static_cast<double>(std::max<uint64_t>(counts.reads, 1));
  report->Set("exec.prefix_reads", static_cast<double>(counts.reads),
              "count");
  report->Set("exec.nodes_examined_per_result",
              static_cast<double>(counts.nodes_examined) /
                  static_cast<double>(std::max<uint64_t>(counts.results, 1)),
              "ratio");
  report->Set("exec.sim_pages_per_read", counts.sim_pages / prefix, "pages");
  report->Set("exec.index_plan_frac",
              static_cast<double>(counts.index_plans) / prefix, "ratio");
  uint64_t touches = counts.buffer_hits + counts.buffer_misses;
  report->Set("exec.buffer_hit_frac",
              touches == 0 ? 0.0
                           : static_cast<double>(counts.buffer_hits) /
                                 static_cast<double>(touches),
              "ratio");
}

void ReportTraceOverhead(const Tracer& tracer,
                         const std::vector<std::string>& roots,
                         double untraced_mean_us, double traced_mean_us,
                         Report* report, double inner_unattributed_us) {
  std::map<std::string, double> self = tracer.SelfMicros();
  double root_total = 0;
  double root_self = inner_unattributed_us;
  for (const std::string& root : roots) {
    root_total += tracer.TotalMicros(root);
    root_self += self[root];
  }
  report->Set("trace.unattributed_frac",
              root_total > 0 ? root_self / root_total : 0.0, "ratio");
  report->Set("trace.overhead_frac",
              untraced_mean_us > 0
                  ? (traced_mean_us - untraced_mean_us) / untraced_mean_us
                  : 0.0,
              "ratio");
  report->Set("trace.spans", static_cast<double>(tracer.size()), "count");
}

void SaveTrace(const Args& args, const Tracer& tracer) {
  std::string dir = args.work_dir + "/../traces";
  ::mkdir(dir.c_str(), 0755);
  std::string name = args.work_dir.substr(args.work_dir.rfind('/') + 1);
  std::string path = dir + "/" + name + ".jsonl";
  if (!tracer.WriteJsonLines(path)) {
    std::cerr << "could not write " << path << "\n";
  }
}

void ReportOps(const Samples& ops, double phase_seconds, Report* report) {
  const size_t windows =
      std::max(ops.size() / kLatencyWindowSamples, kMinLatencyWindows);
  for (auto [name, q] : {std::pair{"op_us_p50", 0.50},
                         std::pair{"op_us_p90", 0.90},
                         std::pair{"op_us_p99", 0.99}}) {
    report->Set(name, ops.WindowedQuantile(q, windows), "us");
  }
  report->Set("ops_per_s",
              phase_seconds > 0
                  ? static_cast<double>(ops.size()) / phase_seconds
                  : 0.0,
              "1/s");
  report->Set("op.samples", static_cast<double>(ops.size()), "count");
}

}  // namespace perfbench
