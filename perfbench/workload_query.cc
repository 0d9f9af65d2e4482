// query: one client runs a read-only mix of covered XMark/TPoX queries
// and unseen variants, each ParseQuery -> Optimize -> Execute against the
// server's 4096-page buffer pool, over an XMark collection larger than
// the pool plus TPoX, with the advisor's recommendation materialized.
// query/optimizer/exec/index do the work; advisor does none.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "harness.h"
#include "query/parser.h"
#include "workload/tpox_queries.h"
#include "workload/xmark_queries.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"

namespace perfbench {
namespace {

using namespace xia;

// ≈35 pages per XMark document: 150 documents exceed the pool.
constexpr int kXMarkDocs = 150;
constexpr int kTpoxCustomers = 200;
constexpr int kTpoxOrders = 400;
constexpr int kTpoxSecurities = 40;
// Odd, so no latency percentile falls on the boundary between two
// queries' shares of the mix.
constexpr size_t kMixSize = 51;
// Reads whose counters must repeat exactly for a seed.
constexpr size_t kPrefixReads = 3 * kMixSize;
// Executions per plan when relating estimated cost to measured time.
constexpr int kCalibrationRuns = 5;

struct Fixture {
  Database db;
  Catalog catalog;
};

std::unique_ptr<Fixture> BuildFixture() {
  auto f = std::make_unique<Fixture>();
  Status status =
      PopulateXMark(&f->db, "xmark", kXMarkDocs, XMarkParams(), kDataSeed);
  if (status.ok()) {
    status = PopulateTpox(&f->db, kTpoxCustomers, kTpoxOrders,
                          kTpoxSecurities, TpoxParams(), kDataSeed + 1);
  }
  if (status.ok()) {
    Workload workload = MakeXMarkWorkload("xmark");
    Workload tpox = MakeTpoxWorkload();
    for (const Query& q : tpox.queries()) workload.AddQuery(q);
    status = AdviseAndMaterialize(&f->db, &f->catalog, workload);
  }
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return nullptr;
  }
  return f;
}

/// Ranks with ties averaged.
std::vector<double> Ranks(const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(values.size());
  for (size_t i = 0; i < order.size();) {
    size_t j = i;
    while (j + 1 < order.size() && values[order[j + 1]] == values[order[i]]) {
      ++j;
    }
    for (size_t k = i; k <= j; ++k) {
      ranks[order[k]] = (static_cast<double>(i + j) / 2.0) + 1.0;
    }
    i = j + 1;
  }
  return ranks;
}

double Spearman(const std::vector<double>& x, const std::vector<double>& y) {
  std::vector<double> rx = Ranks(x);
  std::vector<double> ry = Ranks(y);
  double n = static_cast<double>(rx.size());
  if (n < 2) return 0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < rx.size(); ++i) {
    mx += rx[i] / n;
    my += ry[i] / n;
  }
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mx) * (ry[i] - my);
    sxx += (rx[i] - mx) * (rx[i] - mx);
    syy += (ry[i] - my) * (ry[i] - my);
  }
  return sxx > 0 && syy > 0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

/// Median µs of executing `plan` kCalibrationRuns times.
Result<double> TimePlan(const Fixture& f, const QueryPlan& plan,
                        BufferPool* pool) {
  Executor executor(&f.db, &f.catalog, CostModel(), pool);
  Samples us;
  for (int i = 0; i < kCalibrationRuns; ++i) {
    int64_t t0 = NowNs();
    Result<ExecResult> run = executor.Execute(plan);
    if (!run.ok()) return run.status();
    us.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return us.Quantile(0.5);
}

/// The estimate-tracks-reality guards: Spearman correlation of estimated
/// plan cost with measured time over every chosen and scan plan, and the
/// scan-plan / chosen-plan time over reads an index serves.
Status ReportCalibration(const Fixture& f,
                         const std::vector<std::string>& mix,
                         BufferPool* pool, Report* report) {
  Optimizer optimizer(&f.db, CostModel());
  ContainmentCache cache;
  Catalog empty;
  std::vector<double> est;
  std::vector<double> measured;
  double scan_us = 0;
  double chosen_us = 0;
  for (const std::string& text : mix) {
    XIA_ASSIGN_OR_RETURN(Query query, ParseQuery(text));
    XIA_ASSIGN_OR_RETURN(QueryPlan chosen,
                         optimizer.Optimize(query, f.catalog, &cache));
    XIA_ASSIGN_OR_RETURN(double chosen_time, TimePlan(f, chosen, pool));
    est.push_back(chosen.total_cost);
    measured.push_back(chosen_time);
    if (!chosen.access.use_index) continue;
    XIA_ASSIGN_OR_RETURN(QueryPlan scan,
                         optimizer.Optimize(query, empty, &cache));
    XIA_ASSIGN_OR_RETURN(double scan_time, TimePlan(f, scan, pool));
    est.push_back(scan.total_cost);
    measured.push_back(scan_time);
    scan_us += scan_time;
    chosen_us += chosen_time;
  }
  report->Set("exec.index_speedup", chosen_us > 0 ? scan_us / chosen_us : 0,
              "ratio");
  report->Set("optimizer.est_rank_corr", Spearman(est, measured), "ratio");
  return Status::Ok();
}

}  // namespace

int RunQuery(const Args& args, Report* report) {
  std::unique_ptr<Fixture> f;
  double setup_s = RepeatSetup(&f, [] { return BuildFixture(); });
  if (f == nullptr) return 1;
  report->Set("setup_s", setup_s, "s");
  report->Set("data.pages",
              static_cast<double>(CollectionPages(f->db, "xmark")), "pages");

  // The data never changes, so each query's reference result is computed
  // once, by the scan plan.
  std::vector<std::string> mix = MakeReadMix(true, kMixSize);
  std::vector<ReadResultSet> reference;
  for (const std::string& text : mix) {
    Result<ReadResultSet> ref = ScanReference(text, f->db);
    if (!ref.ok()) {
      std::cerr << "reference for '" << text
                << "': " << ref.status().ToString() << "\n";
      return 1;
    }
    reference.push_back(std::move(*ref));
  }

  BufferPool pool(kPoolPages);
  ContainmentCache cache;
  MixCursor cursor(mix.size(), args.seed);
  ReadCounts prefix;
  // One checked read; null when it failed.
  auto read = [&](size_t i, Tracer* tracer, double* us) {
    int64_t t0 = NowNs();
    Result<ReadOutcome> out =
        RunRead(mix[i], f->db, f->catalog, &pool, &cache, tracer);
    *us = static_cast<double>(NowNs() - t0) / 1e3;
    report->Attempt();
    if (!out.ok()) {
      report->Fail("read '" + mix[i] + "': " + out.status().ToString());
      return std::unique_ptr<ReadOutcome>();
    }
    if (!(Canonical(out->result) == reference[i])) {
      report->Fail("read '" + mix[i] + "' differs from its scan plan");
      return std::unique_ptr<ReadOutcome>();
    }
    return std::make_unique<ReadOutcome>(std::move(*out));
  };
  // Warm-up: every query once, so the pool and lazy statistics settle.
  double us = 0;
  for (size_t i = 0; i < mix.size(); ++i) read(i, nullptr, &us);

  // In a traced run every other read is traced.
  Tracer tracer;
  Samples untraced;
  Samples traced;
  int64_t start = NowNs();
  for (uint64_t op = 0; SecondsSince(start) < args.seconds; ++op) {
    bool trace_this = args.trace && op % 2 == 1;
    std::unique_ptr<ReadOutcome> out =
        read(cursor.Next(), trace_this ? &tracer : nullptr, &us);
    if (out == nullptr) continue;
    (trace_this ? traced : untraced).Add(us);
    if (prefix.reads < kPrefixReads) prefix.Add(*out);
  }
  double phase_s = SecondsSince(start);

  if (!args.trace) {
    ReportOps(untraced, phase_s, report);
    report->Set("peak_rss_mb", PeakRssMb(), "MiB");
    return 0;
  }
  ReportOps(untraced, phase_s / 2, report);
  SaveTrace(args, tracer);
  ReportReadLayers(tracer, prefix, report);
  ReportTraceOverhead(tracer, {kReadSpan}, untraced.Mean(), traced.Mean(),
                      report);
  Status calibrated = ReportCalibration(*f, mix, &pool, report);
  if (!calibrated.ok()) {
    std::cerr << "calibration: " << calibrated.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace perfbench
