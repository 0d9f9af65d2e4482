#include "common/metrics.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

namespace xia {
namespace obs {
namespace {

std::atomic<bool> g_spans_enabled{false};

/// Distributes threads over stripes. Thread ids are assigned round-robin
/// at first use, so a pool of N workers occupies min(N, kCounterStripes)
/// distinct stripes instead of hashing several onto one.
size_t NextStripe() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kCounterStripes;
}

void AppendJsonString(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

size_t Counter::Stripe() {
  thread_local size_t stripe = NextStripe();
  return stripe;
}

Counter::Counter(std::string name) : name_(std::move(name)) {
  if (!name_.empty()) Registry().Attach(this);
}

Counter::~Counter() {
  if (!name_.empty()) Registry().Detach(this);
}

uint64_t Counter::Value() const {
  uint64_t sum = 0;
  for (const Cell& cell : cells_) {
    sum += cell.value.load(std::memory_order_relaxed);
  }
  return sum;
}

void Counter::Reset() {
  for (Cell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
}

Gauge::Gauge(std::string name) : name_(std::move(name)) {
  if (!name_.empty()) Registry().Attach(this);
}

Gauge::~Gauge() {
  if (!name_.empty()) Registry().Detach(this);
}

void LatencyHistogram::Record(uint64_t micros) {
  size_t bucket = 0;
  for (uint64_t v = micros; v != 0; v >>= 1) ++bucket;
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  total_micros_.fetch_add(micros, std::memory_order_relaxed);
}

SpanStats LatencyHistogram::Stats() const {
  std::array<uint64_t, kBuckets> counts;
  uint64_t samples = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts[i] = bucket(i);
    samples += counts[i];
  }
  SpanStats stats;
  stats.count = count();
  stats.total_micros = total_micros();
  // The bound of the bucket holding the sample of rank
  // ceil(percent% of samples).
  auto quantile = [&](uint64_t percent) -> uint64_t {
    if (samples == 0) return 0;
    const uint64_t rank = std::max<uint64_t>(1, (samples * percent + 99) / 100);
    uint64_t seen = 0;
    size_t i = 0;
    for (; i + 1 < kBuckets; ++i) {
      seen += counts[i];
      if (seen >= rank) break;
    }
    return i + 1 < kBuckets ? (uint64_t{1} << i) - 1 : stats.total_micros;
  };
  stats.p50_micros = quantile(50);
  stats.p90_micros = quantile(90);
  stats.p99_micros = quantile(99);
  return stats;
}

uint64_t Snapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::string Snapshot::ToText(const std::string& line_prefix) const {
  std::ostringstream out;
  for (const std::string& line : TextLines(line_prefix)) {
    out << line << "\n";
  }
  return out.str();
}

std::vector<std::string> Snapshot::TextLines(
    const std::string& line_prefix) const {
  std::vector<std::string> lines;
  lines.reserve(counters.size() + gauges.size() + spans.size());
  for (const auto& [name, value] : counters) {
    lines.push_back(line_prefix + name + " = " + std::to_string(value));
  }
  for (const auto& [name, value] : gauges) {
    lines.push_back(line_prefix + name + " = " + std::to_string(value));
  }
  for (const auto& [name, stats] : spans) {
    lines.push_back(line_prefix + "span." + name + " = " +
                    std::to_string(stats.count) + " calls, " +
                    std::to_string(stats.total_micros) + " us, p50 " +
                    std::to_string(stats.p50_micros) + " us, p90 " +
                    std::to_string(stats.p90_micros) + " us, p99 " +
                    std::to_string(stats.p99_micros) + " us");
  }
  return lines;
}

std::string Snapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ",";
    first = false;
    AppendJsonString(out, name);
    out << ":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out << ",";
    first = false;
    AppendJsonString(out, name);
    out << ":" << value;
  }
  out << "},\"spans\":{";
  first = true;
  for (const auto& [name, stats] : spans) {
    if (!first) out << ",";
    first = false;
    AppendJsonString(out, name);
    out << ":{\"count\":" << stats.count
        << ",\"total_micros\":" << stats.total_micros
        << ",\"p50_micros\":" << stats.p50_micros
        << ",\"p90_micros\":" << stats.p90_micros
        << ",\"p99_micros\":" << stats.p99_micros << "}";
  }
  out << "}}";
  return out.str();
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owned_counters_.find(name);
  if (it == owned_counters_.end()) {
    // Owned metrics are aggregated by name during snapshots like attached
    // ones, so the stored Counter carries no name of its own (a named one
    // would re-enter Attach under mu_).
    it = owned_counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owned_gauges_.find(name);
  if (it == owned_gauges_.end()) {
    it = owned_gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

LatencyHistogram& MetricsRegistry::GetSpanHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spans_.find(name);
  if (it == spans_.end()) {
    it = spans_.emplace(name, std::make_unique<LatencyHistogram>()).first;
  }
  return *it->second;
}

Snapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, counter] : owned_counters_) {
    snap.counters[name] += counter->Value();
  }
  for (const auto& [name, total] : retired_counters_) {
    snap.counters[name] += total;
  }
  for (const auto& [name, instances] : attached_counters_) {
    for (const Counter* counter : instances) {
      snap.counters[name] += counter->Value();
    }
  }
  for (const auto& [name, gauge] : owned_gauges_) {
    snap.gauges[name] += gauge->Value();
  }
  for (const auto& [name, instances] : attached_gauges_) {
    for (const Gauge* gauge : instances) {
      snap.gauges[name] += gauge->Value();
    }
  }
  for (const auto& [name, histogram] : spans_) {
    snap.spans[name] = histogram->Stats();
  }
  return snap;
}

bool MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << TakeSnapshot().ToJson() << "\n";
  return static_cast<bool>(out);
}

void MetricsRegistry::Attach(Counter* counter) {
  std::lock_guard<std::mutex> lock(mu_);
  attached_counters_[counter->name()].push_back(counter);
}

void MetricsRegistry::Detach(Counter* counter) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = attached_counters_.find(counter->name());
  if (it == attached_counters_.end()) return;
  auto& instances = it->second;
  for (auto inst = instances.begin(); inst != instances.end(); ++inst) {
    if (*inst == counter) {
      retired_counters_[counter->name()] += counter->Value();
      instances.erase(inst);
      break;
    }
  }
  if (instances.empty()) attached_counters_.erase(it);
}

void MetricsRegistry::Attach(Gauge* gauge) {
  std::lock_guard<std::mutex> lock(mu_);
  attached_gauges_[gauge->name()].push_back(gauge);
}

void MetricsRegistry::Detach(Gauge* gauge) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = attached_gauges_.find(gauge->name());
  if (it == attached_gauges_.end()) return;
  auto& instances = it->second;
  for (auto inst = instances.begin(); inst != instances.end(); ++inst) {
    if (*inst == gauge) {
      instances.erase(inst);
      break;
    }
  }
  if (instances.empty()) attached_gauges_.erase(it);
}

MetricsRegistry& Registry() {
  // Leaked: metric references handed out by GetCounter/GetGauge must stay
  // valid in static destructors of client code.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void SetSpansEnabled(bool enabled) {
  g_spans_enabled.store(enabled, std::memory_order_relaxed);
}

bool SpansEnabled() {
  return g_spans_enabled.load(std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace xia
