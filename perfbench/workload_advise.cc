// advise: one caller repeatedly advises a captured window of XMark
// templates — wlm::CompressLog, then Advisor::Recommend on a fresh
// advisor with default options. advisor/optimizer/xpath do the work;
// exec/storage/dml/server do none.

#include <cstdio>
#include <iostream>

#include "advisor/advisor.h"
#include "common/metrics.h"
#include "common/random.h"
#include "harness.h"
#include "wlm/compress.h"
#include "wlm/fingerprint.h"
#include "workload/variation.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"

namespace perfbench {
namespace {

using namespace xia;

// Advise time is flat in database size, so small collections suffice.
constexpr int kDocs = 4;
// One XMark collection yields under 50 distinct templates (the 15 demo
// queries plus every variation shape); the window spans three so it holds
// 100-200, below the server's 256-template decomposition switch.
constexpr const char* kCollections[] = {"xmark", "xmark_b", "xmark_c"};
// Unseen variations per collection, added to its 15 demo queries.
constexpr int kUnseenQueries = 60;
// What-if fan-out. On this window four threads advise no faster than one
// (measured on a 4-core machine), while their scheduling doubles the
// run-to-run spread of the tail; recommendations are identical at every
// width.
constexpr int kFanOut = 1;
// Each query is captured 1..kMaxRepeats times, so compression folds.
constexpr int kMaxRepeats = 4;

struct Fixture {
  Database db;
  Catalog catalog;  // The empty base catalog advising starts from.
  std::vector<wlm::CaptureRecord> log;
};

std::unique_ptr<Fixture> BuildFixture(uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  Workload window;
  // The documents and the template set are the same for every seed; the
  // seed draws how often each query was captured.
  Random shapes(kDataSeed);
  Random rng(seed);
  uint64_t collection_seed = kDataSeed;
  for (const char* collection : kCollections) {
    Status populated = PopulateXMark(&f->db, collection, kDocs,
                                     XMarkParams(), collection_seed++);
    if (!populated.ok()) {
      std::cerr << populated.ToString() << "\n";
      return nullptr;
    }
    Workload demo = MakeXMarkWorkload(collection);
    Workload unseen =
        MakeXMarkUnseenWorkload(collection, &shapes, kUnseenQueries);
    for (const Query& q : demo.queries()) window.AddQuery(q);
    for (const Query& q : unseen.queries()) window.AddQuery(q);
  }
  // Capture: each execution is logged with its estimated cost, as the
  // executor's capture hook would.
  Optimizer optimizer(&f->db, CostModel());
  ContainmentCache cache;
  uint64_t seq = 0;
  for (const Query& q : window.queries()) {
    Result<QueryPlan> plan = optimizer.Optimize(q, f->catalog, &cache);
    if (!plan.ok()) {
      std::cerr << plan.status().ToString() << "\n";
      return nullptr;
    }
    int64_t repeats = rng.Uniform(1, kMaxRepeats);
    for (int64_t r = 0; r < repeats; ++r) {
      wlm::CaptureRecord record;
      record.seq = ++seq;
      record.est_cost = plan->total_cost;
      record.kind = wlm::CaptureKind::kQuery;
      record.text = q.text;
      record.fingerprint = wlm::TemplateFingerprint(q);
      f->log.push_back(std::move(record));
    }
  }
  return f;
}

struct Outcome {
  Recommendation rec;
  size_t templates = 0;
  /// Everything a repeat must reproduce: DDL, costs, search counters.
  std::string signature;
};

std::string Signature(const Recommendation& rec) {
  std::string sig;
  for (const IndexDefinition& def : rec.indexes) sig += def.DdlString() + ";";
  char costs[160];
  std::snprintf(costs, sizeof(costs), "|%.17g|%.17g|%.17g|%d|",
                rec.baseline_cost, rec.recommended_cost, rec.update_cost,
                rec.search.evaluations);
  sig += costs;
  sig += rec.search.counters.TraceLine();
  return sig;
}

Result<Outcome> AdviseOnce(const Fixture& f, Tracer* tracer) {
  Tracer::Scope root(tracer, "advise");
  Outcome outcome;
  Result<wlm::CompressedWorkload> compressed =
      Status::Internal("not compressed");
  {
    Tracer::Scope span(tracer, "wlm.compress");
    compressed = wlm::CompressLog(f.log);
  }
  if (!compressed.ok()) return compressed.status();
  outcome.templates = compressed->report.templates_total;
  AdvisorOptions options;
  options.threads = kFanOut;
  Advisor advisor(&f.db, &f.catalog, options);
  {
    Tracer::Scope span(tracer, "advisor.recommend");
    XIA_ASSIGN_OR_RETURN(outcome.rec,
                         advisor.Recommend(compressed->workload));
  }
  outcome.signature = Signature(outcome.rec);
  return outcome;
}

}  // namespace

int RunAdvise(const Args& args, Report* report) {
  std::unique_ptr<Fixture> f;
  double setup_s = RepeatSetup(&f, [&] { return BuildFixture(args.seed); });
  if (f == nullptr) return 1;
  report->Set("setup_s", setup_s, "s");

  // The first advise fixes the signature every later one must match.
  report->Attempt();
  Result<Outcome> first = AdviseOnce(*f, nullptr);
  if (!first.ok()) {
    report->Fail("advise: " + first.status().ToString());
    return 1;
  }
  if (!(first->rec.recommended_cost < first->rec.baseline_cost)) {
    report->Fail("advise: recommendation does not lower the workload cost");
  }

  // In a traced run every other sample is traced, with the advisor's own
  // stage spans (which already exist inside Recommend) switched on for it.
  Tracer tracer;
  Samples untraced;
  Samples traced;
  std::map<std::string, uint64_t> stage_us;
  const char* kStages[] = {"advisor.enumerate", "advisor.generalize",
                           "advisor.dag", "advisor.search"};
  int64_t start = NowNs();
  for (uint64_t i = 0; SecondsSince(start) < args.seconds; ++i) {
    bool trace_this = args.trace && i % 2 == 1;
    obs::Snapshot before;
    if (trace_this) {
      obs::SetSpansEnabled(true);
      before = obs::Registry().TakeSnapshot();
    }
    int64_t t0 = NowNs();
    Result<Outcome> out = AdviseOnce(*f, trace_this ? &tracer : nullptr);
    double us = static_cast<double>(NowNs() - t0) / 1e3;
    if (trace_this) {
      obs::Snapshot after = obs::Registry().TakeSnapshot();
      obs::SetSpansEnabled(false);
      for (const char* stage : kStages) {
        stage_us[stage] +=
            after.spans[stage].total_micros - before.spans[stage].total_micros;
      }
    }
    report->Attempt();
    if (!out.ok()) {
      report->Fail("advise: " + out.status().ToString());
    } else if (out->signature != first->signature) {
      report->Fail("advise: recommendation differs from the first sample");
    } else {
      (trace_this ? traced : untraced).Add(us);
    }
  }
  double phase_s = SecondsSince(start);

  if (!args.trace) {
    ReportOps(untraced, phase_s, report);
    report->Set("peak_rss_mb", PeakRssMb(), "MiB");
    return 0;
  }
  ReportOps(untraced, phase_s / 2, report);
  SaveTrace(args, tracer);

  const double n = static_cast<double>(std::max<size_t>(traced.size(), 1));
  auto stage_ms = [&](const char* name) {
    return static_cast<double>(stage_us[name]) / n / 1e3;
  };
  std::map<std::string, double> self = tracer.SelfMicros();
  double recommend_ms = tracer.TotalMicros("advisor.recommend") / n / 1e3;
  double enumerate_ms = stage_ms("advisor.enumerate");
  double generalize_ms =
      stage_ms("advisor.generalize") + stage_ms("advisor.dag");
  double search_ms = stage_ms("advisor.search");
  report->Set("wlm.compress_ms", self["wlm.compress"] / n / 1e3, "ms");
  report->Set("advisor.enumerate_ms", enumerate_ms, "ms");
  report->Set("advisor.generalize_ms", generalize_ms, "ms");
  report->Set("advisor.search_ms", search_ms, "ms");
  double unattributed_ms =
      recommend_ms - enumerate_ms - generalize_ms - search_ms;
  report->Set("advisor.unattributed_ms", unattributed_ms, "ms");

  const SearchResult& search = first->rec.search;
  const CostCacheStats& cost = search.counters.cost;
  const ContainmentCacheStats& contain = search.counters.containment;
  report->Set("advisor.evaluations", search.evaluations, "count");
  report->Set("advisor.whatif_requests",
              static_cast<double>(cost.hits + cost.misses + cost.bypasses),
              "count");
  report->Set("advisor.optimizer_runs",
              static_cast<double>(cost.misses + cost.bypasses), "count");
  report->Set("advisor.cost_cache_hit_frac",
              static_cast<double>(cost.hits) /
                  static_cast<double>(std::max<uint64_t>(
                      cost.hits + cost.misses, 1)),
              "ratio");
  uint64_t lookups = contain.hits + contain.misses;
  report->Set("xpath.containment_lookups", static_cast<double>(lookups),
              "count");
  report->Set("xpath.containment_hit_frac",
              static_cast<double>(contain.hits) /
                  static_cast<double>(std::max<uint64_t>(lookups, 1)),
              "ratio");
  report->Set("advisor.benefit_frac",
              first->rec.benefit / first->rec.baseline_cost, "ratio");
  report->Set("advisor.templates", static_cast<double>(first->templates),
              "count");

  // Recommend's stages are not spans of this tracer; its residue joins the
  // root's own.
  ReportTraceOverhead(tracer, {"advise"}, untraced.Mean(), traced.Mean(),
                      report, unattributed_ms * 1e3 * n);
  return 0;
}

}  // namespace perfbench
