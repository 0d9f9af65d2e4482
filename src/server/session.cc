#include "server/session.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>

#include "advisor/analysis.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "dml/dml.h"
#include "exec/executor.h"
#include "optimizer/explain.h"
#include "query/parser.h"
#include "storage/collection_io.h"
#include "wlm/compress.h"
#include "wlm/wlm_io.h"
#include "workload/tpox_queries.h"
#include "workload/workload_io.h"
#include "workload/xmark_queries.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace server {

namespace {

/// Template count at which `advise --from-log` switches to decomposed
/// scoring by default (advisor/benefit_table.h): below it the exact
/// path's call count is tolerable; above it pricing once per (class,
/// subset) is strictly cheaper than per-configuration what-ifs. Override
/// per command with --decompose / --exact.
constexpr size_t kDecomposeAutoTemplates = 256;

// The built-in data sets `gen` and `--preload` create: XMark documents in
// collection `xmark` from seed 42, and the three TPoX collections from
// seed 11, at these default sizes.
constexpr int kXMarkDocs = 10;
constexpr int kTpoxCustomers = 50;
constexpr int kTpoxOrders = 100;
constexpr int kTpoxSecurities = 20;

Status GenerateXMark(Database* db, int docs) {
  return PopulateXMark(db, "xmark", docs, XMarkParams(), /*seed=*/42);
}

Status GenerateTpox(Database* db, int customers, int orders,
                    int securities) {
  return PopulateTpox(db, customers, orders, securities, TpoxParams(),
                      /*seed=*/11);
}

}  // namespace

Status Preload(SharedState* shared, const std::vector<std::string>& specs) {
  std::vector<std::function<Status(Database*)>> loads;
  for (const std::string& spec : specs) {
    if (spec.rfind("xmark", 0) == 0) {
      int docs = kXMarkDocs;
      size_t colon = spec.find(':');
      if (colon != std::string::npos) {
        docs = std::atoi(spec.c_str() + colon + 1);
        if (docs <= 0) return Status::InvalidArgument("bad --preload " + spec);
      }
      loads.push_back([docs](Database* db) { return GenerateXMark(db, docs); });
    } else if (spec == "tpox") {
      loads.push_back([](Database* db) {
        return GenerateTpox(db, kTpoxCustomers, kTpoxOrders, kTpoxSecurities);
      });
    } else {
      return Status::InvalidArgument("unknown --preload " + spec +
                                     " (xmark[:docs] or tpox)");
    }
  }
  return shared->engine->BulkLoad([&loads](Database* db) {
    for (const auto& load : loads) XIA_RETURN_IF_ERROR(load(db));
    return Status::Ok();
  });
}

wlm::DriftMonitor* SharedState::DriftWatcher() {
  if (!drift) {
    drift =
        std::make_unique<wlm::DriftMonitor>(&db, default_options.cost_model);
  }
  return drift.get();
}

/// One command line as its handler sees it.
struct VerbCall {
  SharedState& shared;
  ServingHost* host;  // Null outside a server.
  ClientSession* session;
  std::string verb;         // Lowercased first token.
  std::string rest;         // Everything after it, trimmed.
  std::istringstream args;  // `rest`, for token-wise parsing.
  std::ostream& out;
  CommandOutcome outcome = CommandOutcome::kHandled;
};

namespace {

/// Ends a bulk verb's reply: the bulk load's error, or the checkpoint a
/// persistent engine took.
void ReportBulkLoad(VerbCall& call, const Status& status) {
  if (!status.ok()) {
    call.out << status.ToString() << "\n";
  } else if (call.shared.engine->persistent()) {
    call.out << "checkpointed (epoch " << call.shared.engine->epoch() << ")\n";
  }
}

void CmdPing(VerbCall& call) { call.out << "pong\n"; }

void CmdHelp(VerbCall& call) {
  call.out << "commands:\n";
  for (const VerbSpec& spec : CommandDispatcher::Verbs()) {
    if (*spec.usage != '\0') call.out << "  " << spec.usage << "\n";
  }
}

void CmdQuit(VerbCall& call) { call.outcome = CommandOutcome::kQuit; }

// Serving verbs answer a server with one bare status word (`OK alive`,
// `ERR not ready: draining`) and the REPL with a line; a REPL is alive
// and ready by construction.

void CmdHealth(VerbCall& call) {
  call.out << "alive" << (call.host != nullptr ? "" : "\n");
}

void CmdReady(VerbCall& call) {
  std::string reason = call.host != nullptr ? call.host->NotReadyReason() : "";
  if (!reason.empty()) {
    call.out << "not ready: " << reason;
    call.outcome = CommandOutcome::kRefused;
    return;
  }
  call.out << "ready" << (call.host != nullptr ? "" : "\n");
}

void CmdDrain(VerbCall& call) {
  if (call.host == nullptr) {
    call.out << "drain applies to a running server (start with --serve)\n";
    return;
  }
  call.host->Drain();
  call.out << "draining";
}

void CmdUnknown(VerbCall& call) {
  call.out << "unknown command '" << call.verb << "' — type 'help'\n";
}

void CmdGen(VerbCall& call) {
  std::string kind;
  call.args >> kind;
  if (kind == "xmark") {
    int docs = kXMarkDocs;
    call.args >> docs;
    Status status = call.shared.engine->BulkLoad(
        [docs](Database* db) { return GenerateXMark(db, docs); });
    if (status.ok()) {
      call.out << "generated xmark: "
               << call.shared.db.GetCollection("xmark")->num_nodes()
               << " nodes\n";
    }
    ReportBulkLoad(call, status);
  } else if (kind == "tpox") {
    int customers = kTpoxCustomers;
    int orders = kTpoxOrders;
    int securities = kTpoxSecurities;
    call.args >> customers >> orders >> securities;
    Status status = call.shared.engine->BulkLoad([=](Database* db) {
      return GenerateTpox(db, customers, orders, securities);
    });
    if (status.ok()) call.out << "generated tpox collections\n";
    ReportBulkLoad(call, status);
  } else {
    call.out << "usage: gen xmark <docs> | gen tpox <c> <o> <s>\n";
  }
}

/// Shared DML reply/capture tail: feeds the armed capture sink (the DML
/// half of the workload stream maintenance-aware advising consumes) and
/// renders the result line the shell and the server both emit, e.g.
/// "inserted doc 4 of xmark (...)".
void ReportDml(const char* what, wlm::CaptureKind kind,
               const std::string& collection,
               const Result<dml::DmlResult>& result, std::ostream& out) {
  if (!result.ok()) {
    out << result.status().ToString() << "\n";
    return;
  }
  const dml::DmlResult& r = *result;
  if (wlm::CaptureEnabled()) {
    wlm::MaybeCaptureDml(
        kind, collection, r.root_pattern,
        static_cast<double>(r.maintenance.entries_inserted +
                            r.maintenance.entries_removed));
  }
  out << what << " doc " << r.doc << " of " << collection << " ("
      << r.maintenance.indexes_touched << " indexes, +"
      << r.maintenance.entries_inserted << "/-"
      << r.maintenance.entries_removed << " entries, synopsis +"
      << r.synopsis_nodes_added << "/-" << r.synopsis_nodes_removed
      << (r.synopsis_rebuilt ? " nodes, stats rebuilt)\n" : " nodes)\n");
}

void CmdLoad(VerbCall& call) {
  std::string collection;
  std::string path;
  call.args >> collection >> path;
  std::ifstream in(path);
  if (!in) {
    call.out << "cannot open " << path << "\n";
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (call.shared.db.GetCollection(collection) == nullptr) {
    Status created = call.shared.engine->CreateCollection(collection);
    if (!created.ok()) {
      call.out << created.ToString() << "\n";
      return;
    }
  }
  // A load is an insert of the file's document: indexes and statistics
  // are maintained, and the WAL (if any) logs an insert record.
  ReportDml("loaded 1 document as", wlm::CaptureKind::kInsert, collection,
            call.shared.engine->InsertDocument(collection, buffer.str()),
            call.out);
}

void CmdSaveColl(VerbCall& call) {
  std::string collection;
  std::string dir;
  call.args >> collection >> dir;
  Status status = SaveCollectionToDirectory(call.shared.db, collection, dir);
  call.out << (status.ok() ? "saved to " + dir + "\n"
                           : status.ToString() + "\n");
}

void CmdLoadColl(VerbCall& call) {
  std::string collection;
  std::string dir;
  call.args >> collection >> dir;
  size_t loaded = 0;
  Status status = call.shared.engine->BulkLoad([&](Database* db) -> Status {
    XIA_ASSIGN_OR_RETURN(loaded,
                         LoadCollectionFromDirectory(db, collection, dir));
    return Status::Ok();
  });
  if (status.ok()) call.out << "loaded " << loaded << " documents (analyzed)\n";
  ReportBulkLoad(call, status);
}

void CmdAnalyze(VerbCall& call) {
  std::string collection;
  call.args >> collection;
  Status status = call.shared.engine->Analyze(collection);
  call.out << (status.ok() ? "statistics rebuilt\n"
                           : status.ToString() + "\n");
}

void CmdWorkload(VerbCall& call) {
  std::string kind;
  call.args >> kind;
  Workload& workload = call.session->workload;
  if (kind == "xmark") {
    workload = MakeXMarkWorkload("xmark");
    call.out << "loaded built-in xmark workload (" << workload.size()
             << " queries)\n";
  } else if (kind == "tpox") {
    workload = MakeTpoxWorkload();
    call.out << "loaded built-in tpox workload (" << workload.size()
             << " queries)\n";
  } else if (kind == "file") {
    std::string path;
    call.args >> path;
    Result<Workload> loaded = LoadWorkloadFile(path);
    if (!loaded.ok()) {
      call.out << loaded.status().ToString() << "\n";
      return;
    }
    workload = std::move(*loaded);
    call.out << "loaded " << workload.size() << " queries from " << path
             << "\n";
  } else {
    call.out << "usage: workload xmark|tpox | workload file <path>\n";
  }
}

void CmdQuery(VerbCall& call) {
  double weight = 1.0;
  call.args >> weight;
  std::string text;
  std::getline(call.args, text);
  Status status =
      call.session->workload.AddQueryText(std::string(Trim(text)), weight);
  call.out << (status.ok() ? "added\n" : status.ToString() + "\n");
}

void CmdUpdateOp(VerbCall& call) {
  // Same grammar as an `update` line of a workload file.
  Result<Workload> parsed = ParseWorkloadText("update " + call.rest);
  if (!parsed.ok()) {
    call.out << parsed.status().ToString() << "\n";
  } else {
    call.session->workload.AddUpdate(parsed->updates()[0]);
    call.out << "added\n";
  }
}

void CmdInsert(VerbCall& call) {
  std::string collection;
  call.args >> collection;
  std::string xml;
  std::getline(call.args, xml);
  std::string body(Trim(xml));
  if (collection.empty() || body.empty()) {
    call.out << "usage: insert <collection> <xml...>\n";
    return;
  }
  ReportDml("inserted", wlm::CaptureKind::kInsert, collection,
            call.shared.engine->InsertDocument(collection, body), call.out);
}

void CmdDelete(VerbCall& call) {
  std::string collection;
  int64_t doc = -1;
  if (!(call.args >> collection >> doc) || doc < 0) {
    call.out << "usage: delete <collection> <doc-id>\n";
    return;
  }
  DocId id = static_cast<DocId>(doc);
  ReportDml("deleted", wlm::CaptureKind::kDelete, collection,
            call.shared.engine->DeleteDocument(collection, id), call.out);
}

void CmdUpdate(VerbCall& call) {
  std::string collection;
  int64_t doc = -1;
  std::string xml;
  if (!(call.args >> collection >> doc) || doc < 0 ||
      !std::getline(call.args, xml) || Trim(xml).empty()) {
    call.out << "usage: update <collection> <doc-id> <xml...>\n";
    return;
  }
  ReportDml("updated", wlm::CaptureKind::kUpdate, collection,
            call.shared.engine->UpdateDocument(
                collection, static_cast<DocId>(doc), std::string(Trim(xml))),
            call.out);
}

void CmdShow(VerbCall& call) {
  std::string what;
  call.args >> what;
  if (what == "workload") {
    call.out << call.session->workload.Describe();
  } else if (what == "stats") {
    std::string collection;
    call.args >> collection;
    const PathSynopsis* synopsis = call.shared.db.synopsis(collection);
    if (synopsis == nullptr) {
      call.out << "no statistics for '" << collection << "' (run 'analyze')\n";
    } else {
      call.out << synopsis->Describe(/*max_paths=*/60);
    }
  } else if (what == "catalog") {
    for (const CatalogEntry* entry : call.shared.catalog.AllIndexes()) {
      call.out << "  " << entry->def.DdlString()
               << (entry->is_virtual ? "  [virtual]\n" : "\n");
    }
    if (call.shared.catalog.size() == 0) call.out << "  (empty)\n";
  } else if (what == "candidates" || what == "dag") {
    if (!call.session->recommendation.has_value()) {
      call.out << "run 'advise' first\n";
      return;
    }
    if (what == "candidates") {
      call.out << call.session->recommendation->enumeration.ToString();
    } else {
      call.out << call.session->recommendation->dag.ToText(
          call.session->recommendation->candidates);
    }
  } else {
    call.out << "usage: show workload|catalog|candidates|dag|stats <coll>\n";
  }
}

void CmdEnumerate(VerbCall& call) {
  Result<Query> query = ParseQuery(call.rest);
  if (!query.ok()) {
    call.out << query.status().ToString() << "\n";
    return;
  }
  query->id = "shell";
  Result<EnumerateIndexesResult> result =
      EnumerateIndexesMode(call.shared.db, *query, &call.shared.containment);
  call.out << (result.ok() ? result->ToString()
                           : result.status().ToString() + "\n");
}

void CmdAdvise(VerbCall& call) {
  double budget_kb = 128;
  std::string algo = "heuristic";
  bool from_log = false;
  bool compress = false;
  bool decompose = false;
  bool exact = false;
  int64_t budget_ms = call.session->options.time_budget_ms;
  // Flags first (any order), then the positional budget and algorithm.
  std::string token;
  bool have_budget = false;
  while (call.args >> token) {
    if (token == "--from-log") {
      from_log = true;
    } else if (token == "--compress") {
      compress = true;
    } else if (token == "--decompose") {
      decompose = true;
    } else if (token == "--exact") {
      exact = true;
    } else if (token == "--budget-ms") {
      // Strict parse: `args >> int64` would accept "1e3" as 1 and leave "e3"
      // to be misread as the space budget.
      std::string value;
      std::optional<double> parsed;
      if (!(call.args >> value) ||
          !(parsed = ParseDouble(value)).has_value() ||
          !std::isfinite(*parsed) || *parsed < 0 ||
          *parsed != std::floor(*parsed)) {
        call.out << "--budget-ms needs a non-negative integer\n";
        return;
      }
      budget_ms = static_cast<int64_t>(*parsed);
    } else if (!have_budget) {
      // Strict parse: std::stod("12abc") silently yields 12 (and its
      // exceptions used to be the only rejection path), so junk budgets
      // were half-accepted instead of refused.
      std::optional<double> parsed = ParseDouble(token);
      if (!parsed.has_value() || !std::isfinite(*parsed) || *parsed < 0) {
        call.out << "bad budget '" << token << "'\n";
        return;
      }
      budget_kb = *parsed;
      have_budget = true;
    } else {
      algo = token;
    }
  }
  // The advised workload: the hand-built session workload, or the capture
  // log — raw (one weight-1 query per execution) or compressed into
  // weighted templates (weight = frequency × mean cost).
  Workload advised = call.session->workload;
  if (from_log) {
    if (!call.shared.capture_log) {
      call.out << "no capture log — run 'capture on' first\n";
      return;
    }
    std::vector<wlm::CaptureRecord> records =
        call.shared.capture_log->Snapshot();
    if (records.empty()) {
      call.out << "capture log is empty — nothing to advise\n";
      return;
    }
    if (compress) {
      Result<wlm::CompressedWorkload> compressed = wlm::CompressLog(records);
      if (!compressed.ok()) {
        call.out << compressed.status().ToString() << "\n";
        return;
      }
      call.out << compressed->report.ToString();
      advised = std::move(compressed->workload);
    } else {
      Result<Workload> raw = wlm::WorkloadFromLog(records);
      if (!raw.ok()) {
        call.out << raw.status().ToString() << "\n";
        return;
      }
      advised = std::move(*raw);
      call.out << "advising " << advised.size()
               << " captured queries (uncompressed)\n";
    }
  } else if (compress) {
    call.out << "--compress needs --from-log\n";
    return;
  }
  if (decompose && exact) {
    call.out << "--decompose and --exact are mutually exclusive\n";
    return;
  }
  // Decomposed scoring (benefit_table.h): explicit --decompose, or the
  // automatic default for big captured logs — above the template
  // threshold the exact path's per-configuration what-ifs dominate
  // advise latency, which is exactly what decomposition removes. Opt out
  // with --exact.
  call.session->options.decompose.enabled =
      decompose ||
      (from_log && !exact && advised.size() >= kDecomposeAutoTemplates);
  if (call.session->options.decompose.enabled && from_log &&
      advised.size() >= kDecomposeAutoTemplates && !decompose) {
    call.out << "large log (" << advised.size() << " templates >= "
             << kDecomposeAutoTemplates
             << "): using decomposed scoring (pass --exact to override)\n";
  }
  call.session->options.space_budget_bytes = budget_kb * 1024;
  call.session->options.time_budget_ms = budget_ms;
  if (algo == "greedy") {
    call.session->options.algorithm = SearchAlgorithm::kGreedy;
  } else if (algo == "topdown") {
    call.session->options.algorithm = SearchAlgorithm::kTopDown;
  } else {
    call.session->options.algorithm = SearchAlgorithm::kGreedyHeuristic;
  }
  // Every session's advise funnels through the shared plan cache: a
  // template one session priced is a cache hit for all the others.
  call.session->options.shared_cost_cache = &call.shared.what_if_cache;
  Advisor advisor(&call.shared.db, &call.shared.catalog, call.session->options);
  Result<Recommendation> rec = advisor.Recommend(advised);
  if (!rec.ok()) {
    call.out << rec.status().ToString() << "\n";
    return;
  }
  call.session->recommendation = std::move(*rec);
  if (call.session->recommendation->stop_reason != StopReason::kConverged) {
    call.out << "stop_reason: "
             << StopReasonName(call.session->recommendation->stop_reason)
             << " — results are degraded (budget truncated the search)\n";
  }
  call.out << call.session->recommendation->Report();
  // Remember what this advice promised, so `drift check` can compare the
  // captured stream against it later. drift_mu: concurrent advises hold
  // SharedState::mu only shared. A budget-truncated advise is flagged
  // degraded so it cannot silently lower a converged drift baseline.
  {
    std::lock_guard<std::mutex> lock(call.shared.drift_mu);
    call.shared.DriftWatcher()->RecordPrediction(
        call.session->recommendation->recommended_cost,
        advised.TotalQueryWeight(),
        call.session->recommendation->stop_reason != StopReason::kConverged);
  }
  Result<RecommendationAnalysis> analysis = AnalyzeRecommendation(
      call.shared.db, call.shared.catalog, advised,
      *call.session->recommendation, call.session->options.cost_model,
      &call.shared.containment);
  if (analysis.ok()) call.out << analysis->ToTable();
}

void CmdWhatIf(VerbCall& call) {
  std::string sub;
  call.args >> sub;
  if (sub == "start") {
    // Seed the overlay with the current recommendation, if any.
    call.session->whatif.emplace(&call.shared.db, call.shared.catalog,
                                 call.session->options.cost_model);
    size_t seeded = 0;
    if (call.session->recommendation.has_value()) {
      for (const IndexDefinition& def : call.session->recommendation->indexes) {
        if (call.session->whatif->AddIndex(def).ok()) ++seeded;
      }
    }
    call.out << "what-if session started (" << seeded
             << " indexes seeded from the recommendation)\n";
    return;
  }
  if (!call.session->whatif.has_value()) {
    call.out << "run 'whatif start' first\n";
    return;
  }
  if (sub == "add") {
    IndexDefinition def;
    std::string pattern_text;
    std::string type_text;
    call.args >> def.collection >> pattern_text >> type_text;
    Result<PathPattern> pattern = ParsePathPattern(pattern_text);
    if (!pattern.ok()) {
      call.out << pattern.status().ToString() << "\n";
      return;
    }
    def.pattern = std::move(*pattern);
    def.type = ToLower(type_text) == "double" ? ValueType::kDouble
                                              : ValueType::kVarchar;
    Result<std::string> name = call.session->whatif->AddIndex(std::move(def));
    call.out << (name.ok() ? "added virtual index " + *name + "\n"
                           : name.status().ToString() + "\n");
  } else if (sub == "drop") {
    std::string name;
    call.args >> name;
    Status status = call.session->whatif->DropIndex(name);
    call.out << (status.ok() ? "dropped\n" : status.ToString() + "\n");
  } else if (sub == "eval") {
    Result<EvaluateIndexesResult> result =
        call.session->whatif->EvaluateWorkload(call.session->workload);
    call.out << (result.ok() ? result->ToString()
                             : result.status().ToString() + "\n");
  } else {
    call.out << "usage: whatif start|add <coll> <pattern> "
           "<double|varchar>|drop <name>|eval\n";
  }
}

void CmdDdl(VerbCall& call) {
  if (call.session->recommendation.has_value()) {
    call.out << ConfigurationDdlScript(call.session->recommendation->indexes);
  } else {
    call.out << "run 'advise' first\n";
  }
}

void CmdMaterialize(VerbCall& call) {
  if (!call.session->recommendation.has_value()) {
    call.out << "run 'advise' first\n";
    return;
  }
  // One logged CREATE INDEX per recommended index. A name already taken
  // (e.g. by an earlier materialize) is renamed, not refused.
  const std::vector<IndexDefinition>& config =
      call.session->recommendation->indexes;
  double built_bytes = 0;
  for (IndexDefinition def : config) {
    if (def.name.empty() || call.shared.catalog.Find(def.name) != nullptr) {
      def.name = call.shared.catalog.UniqueName(def.pattern);
    }
    Result<std::string> name = call.shared.engine->CreateIndex(def.DdlString());
    if (!name.ok()) {
      call.out << name.status().ToString() << "\n";
      return;
    }
    built_bytes += call.shared.catalog.Find(*name)->physical->ByteSize(
        call.session->options.cost_model.storage);
  }
  call.out << "materialized " << config.size() << " indexes ("
           << FormatBytes(built_bytes) << ")\n";
}

void CmdRun(VerbCall& call) {
  Result<Query> query = ParseQuery(call.rest);
  if (!query.ok()) {
    call.out << query.status().ToString() << "\n";
    return;
  }
  query->id = "shell";
  Optimizer optimizer(&call.shared.db, call.shared.default_options.cost_model);
  Result<QueryPlan> plan =
      optimizer.Optimize(*query, call.shared.catalog, &call.shared.containment);
  if (!plan.ok()) {
    call.out << plan.status().ToString() << "\n";
    return;
  }
  call.out << plan->ExplainWithStats();
  Executor executor(&call.shared.db, &call.shared.catalog,
                    call.shared.default_options.cost_model,
                    &call.shared.buffer_pool);
  Result<ExecResult> run = executor.Execute(*plan);
  if (!run.ok()) {
    call.out << run.status().ToString() << "\n";
    return;
  }
  call.out << "-> " << run->nodes.size() << " result nodes from "
           << run->docs_matched << " docs in " << FormatDouble(run->wall_micros)
           << "us (" << FormatDouble(run->simulated_page_reads) << " pages)\n";
  std::string rendered =
      RenderResults(call.shared.db, query->normalized.collection, *run, 5);
  if (!rendered.empty()) call.out << rendered;
}

void CmdCapture(VerbCall& call) {
  std::string sub;
  call.args >> sub;
  if (sub == "on") {
    size_t capacity = 4096;
    call.args >> capacity;
    if (!call.shared.capture_log) {
      call.shared.capture_log = std::make_unique<wlm::QueryLog>(capacity);
    }
    wlm::SetCaptureLog(call.shared.capture_log.get());
    call.out << "capture armed (" << call.shared.capture_log->stats().capacity
             << " record ring; 'run' and what-if queries are recorded)\n";
  } else if (sub == "off") {
    wlm::SetCaptureLog(nullptr);
    call.out << "capture disarmed (log retained — see 'log stats')\n";
  } else {
    call.out << "usage: capture on [capacity]|off\n";
  }
}

void CmdLog(VerbCall& call) {
  std::string sub;
  call.args >> sub;
  if (!call.shared.capture_log) {
    call.out << "no capture log — run 'capture on' first\n";
    return;
  }
  if (sub == "stats") {
    call.out << call.shared.capture_log->stats().ToString() << "\n";
  } else if (sub == "save") {
    std::string path;
    call.args >> path;
    Status status =
        wlm::SaveCaptureLogFile(call.shared.capture_log->Snapshot(), path);
    call.out << (status.ok() ? "saved to " + path + "\n"
                             : status.ToString() + "\n");
  } else if (sub == "load") {
    std::string path;
    call.args >> path;
    Result<std::vector<wlm::CaptureRecord>> loaded =
        wlm::LoadCaptureLogFile(path);
    if (!loaded.ok()) {
      call.out << loaded.status().ToString() << "\n";
      return;
    }
    size_t appended = 0;
    for (wlm::CaptureRecord& r : *loaded) {
      if (call.shared.capture_log->Append(std::move(r)).ok()) ++appended;
    }
    call.out << "appended " << appended << " records from " << path << "\n";
  } else if (sub == "clear") {
    call.shared.capture_log->Clear();
    call.out << "cleared\n";
  } else {
    call.out << "usage: log stats | save <path> | load <path> | clear\n";
  }
}

void CmdDrift(VerbCall& call) {
  // Exclusive verb (see its table row): no advise holds `mu` shared right
  // now, but take drift_mu anyway so the lazy-creation story has exactly
  // one lock discipline.
  std::string sub;
  call.args >> sub;
  std::lock_guard<std::mutex> drift_lock(call.shared.drift_mu);
  if (sub == "threshold") {
    double threshold = 0;
    if (call.args >> threshold) {
      call.shared.DriftWatcher()->set_threshold(threshold);
    }
    call.out << "drift threshold: " << call.shared.DriftWatcher()->threshold()
             << "\n";
    return;
  }
  if (sub != "check" && sub != "readvise") {
    call.out << "usage: drift check | readvise | threshold <t>\n";
    return;
  }
  if (!call.shared.capture_log) {
    call.out << "no capture log — run 'capture on' first\n";
    return;
  }
  std::vector<wlm::CaptureRecord> records = call.shared.capture_log->Snapshot();
  if (records.empty()) {
    call.out << "capture log is empty — nothing to check\n";
    return;
  }
  Result<wlm::CompressedWorkload> compressed = wlm::CompressLog(records);
  if (!compressed.ok()) {
    call.out << compressed.status().ToString() << "\n";
    return;
  }
  if (sub == "check") {
    Result<wlm::DriftReport> report = call.shared.DriftWatcher()->Check(
        compressed->workload, call.shared.catalog);
    call.out << (report.ok() ? report->ToString() : report.status().ToString())
             << "\n";
    return;
  }
  // readvise: check, and when stale run the (anytime) advisor over the
  // compressed capture; the new promise is recorded for the next check.
  Result<wlm::ReadviseOutcome> outcome =
      call.shared.DriftWatcher()->MaybeReadvise(
          compressed->workload, call.shared.catalog, call.session->options);
  if (!outcome.ok()) {
    call.out << outcome.status().ToString() << "\n";
    return;
  }
  call.out << outcome->drift.ToString() << "\n";
  if (outcome->recommendation.has_value()) {
    call.session->recommendation = std::move(*outcome->recommendation);
    call.out << call.session->recommendation->Report();
  } else {
    call.out << "configuration still fresh — no re-advising\n";
  }
}

void CmdFailpoint(VerbCall& call) {
  if (call.rest.empty() || call.rest == "list") {
    std::vector<std::string> armed = fp::ArmedNames();
    if (armed.empty()) call.out << "no failpoints armed\n";
    for (const std::string& name : armed) {
      call.out << "  " << name << " (trips: " << fp::Trips(name) << ")\n";
    }
    return;
  }
  Status status = fp::ArmFromSpec(call.rest);
  call.out << (status.ok() ? "armed: " + call.rest + "\n"
                           : status.ToString() + "\n");
}

void CmdDb(VerbCall& call) {
  std::string sub;
  call.args >> sub;
  if (sub != "status" && sub != "checkpoint") {
    call.out << "usage: db status | db checkpoint\n";
    return;
  }
  if (!call.shared.engine->persistent()) {
    call.out << "persistence: off (memory-only; start with --data-dir)\n";
  } else if (sub == "status") {
    const storage::RecoveryStats& rec = call.shared.engine->recovery();
    call.out << "persistence: on\n"
             << "  dir: " << call.shared.engine->dir() << "\n"
             << "  epoch: " << call.shared.engine->epoch() << "\n"
             << "  next_lsn: " << call.shared.engine->next_lsn() << "\n"
             << "  recovery: "
             << (rec.opened_existing ? "opened existing state"
                                     : "fresh database")
             << "\n"
             << "  recovery.pages_read: " << rec.pages_read << "\n"
             << "  recovery.wal_records_replayed: "
             << rec.wal_records_replayed << "\n"
             << "  recovery.wal_clean: " << (rec.wal_was_clean ? "yes" : "no")
             << " (torn bytes: " << rec.wal_torn_bytes << ")\n";
  } else {
    Status status = call.shared.engine->Checkpoint();
    call.out << (status.ok() ? "checkpointed (epoch " +
                                   std::to_string(call.shared.engine->epoch()) +
                                   ", wal reset)\n"
                             : status.ToString() + "\n");
  }
}

void CmdStats(VerbCall& call) {
  // Process-wide xia::obs registry: every cache, pool, and scan counter
  // the process has touched so far, in one snapshot.
  call.out << obs::Registry().TakeSnapshot().ToText("  ");
}

}  // namespace

const std::vector<VerbSpec>& CommandDispatcher::Verbs() {
  constexpr VerbLock kNone = VerbLock::kNone;
  constexpr VerbLock kExclusive = VerbLock::kExclusive;
  constexpr VerbAdmission kAdvise = VerbAdmission::kAdvise;
  // Rows whose fields are left out take the VerbSpec defaults: any
  // sub-verb, shared lock, light admission, not retry-safe, GOAWAY while
  // draining.
  static const std::vector<VerbSpec> table = {
      {.verb = "gen", .lock = kExclusive,
       .usage = "gen xmark <docs> | gen tpox <cust> <orders> <secs>",
       .handler = &CmdGen},
      {.verb = "load", .lock = kExclusive,
       .usage = "load <collection> <file.xml>   (inserts one document)",
       .handler = &CmdLoad},
      {.verb = "savecoll", .usage = "savecoll <collection> <dir>",
       .handler = &CmdSaveColl},
      {.verb = "loadcoll", .lock = kExclusive,
       .usage = "loadcoll <collection> <dir>", .handler = &CmdLoadColl},
      {.verb = "analyze", .lock = kExclusive, .usage = "analyze <collection>",
       .handler = &CmdAnalyze},
      {.verb = "workload", .retry_safe = true,
       .usage = "workload xmark|tpox | workload file <path>",
       .handler = &CmdWorkload},
      {.verb = "query", .retry_safe = true, .usage = "query <weight> <text...>",
       .handler = &CmdQuery},
      {.verb = "updateop", .retry_safe = true,
       .usage = "updateop <insert|delete> <collection> <weight> <pattern>",
       .handler = &CmdUpdateOp},
      {.verb = "insert", .lock = kExclusive,
       .usage = "insert <collection> <xml...>", .handler = &CmdInsert},
      {.verb = "delete", .lock = kExclusive,
       .usage = "delete <collection> <doc-id>", .handler = &CmdDelete},
      {.verb = "update", .lock = kExclusive,
       .usage = "update <collection> <doc-id> <xml...>   (replace document)",
       .handler = &CmdUpdate},
      {.verb = "show", .retry_safe = true,
       .usage = "show workload|catalog|candidates|dag|stats <coll>",
       .handler = &CmdShow},
      {.verb = "enumerate", .retry_safe = true, .usage = "enumerate <query...>",
       .handler = &CmdEnumerate},
      {.verb = "advise", .admission = kAdvise, .retry_safe = true,
       .usage = "advise [--from-log] [--compress] [--decompose|--exact]"
                " [--budget-ms <N>] <budget_kb> [greedy|heuristic|topdown]",
       .handler = &CmdAdvise},
      {.verb = "whatif", .retry_safe = true,
       .usage = "whatif start|add <coll> <pattern> <double|varchar>"
                "|drop <name>|eval",
       .handler = &CmdWhatIf},
      {.verb = "ddl", .retry_safe = true, .usage = "ddl", .handler = &CmdDdl},
      {.verb = "materialize", .lock = kExclusive, .usage = "materialize",
       .handler = &CmdMaterialize},
      {.verb = "run", .retry_safe = true, .usage = "run <query...>",
       .handler = &CmdRun},
      {.verb = "capture", .lock = kExclusive,
       .usage = "capture on [capacity]|off", .handler = &CmdCapture},
      {.verb = "log", .sub = "stats", .retry_safe = true, .handler = &CmdLog},
      {.verb = "log", .usage = "log stats | save <path> | load <path> | clear",
       .handler = &CmdLog},
      {.verb = "drift", .sub = "check", .lock = kExclusive, .retry_safe = true,
       .handler = &CmdDrift},
      {.verb = "drift", .sub = "threshold", .lock = kExclusive,
       .retry_safe = true, .handler = &CmdDrift},
      {.verb = "drift", .sub = "readvise", .lock = kExclusive,
       .admission = kAdvise, .handler = &CmdDrift},
      {.verb = "drift", .lock = kExclusive,
       .usage = "drift check | readvise | threshold <t>", .handler = &CmdDrift},
      {.verb = "failpoint", .sub = "", .retry_safe = true,
       .handler = &CmdFailpoint},
      {.verb = "failpoint", .sub = "list", .retry_safe = true,
       .handler = &CmdFailpoint},
      {.verb = "failpoint",
       .usage = "failpoint <name=mode[,mode...]>|<name=off>|list",
       .handler = &CmdFailpoint},
      {.verb = "db", .sub = "status", .lock = kExclusive, .retry_safe = true,
       .handler = &CmdDb},
      {.verb = "db", .lock = kExclusive,
       .usage = "db status | db checkpoint   (persistent storage, --data-dir)",
       .handler = &CmdDb},
      {.verb = "stats", .retry_safe = true, .while_draining = true,
       .usage = "stats", .handler = &CmdStats},
      {.verb = "health", .lock = kNone, .retry_safe = true,
       .while_draining = true,
       .usage = "health | ready | drain   (serving state; docs/PROTOCOL.md)",
       .handler = &CmdHealth},
      {.verb = "ready", .lock = kNone, .retry_safe = true,
       .while_draining = true, .handler = &CmdReady},
      {.verb = "drain", .lock = kNone, .retry_safe = true,
       .while_draining = true, .handler = &CmdDrain},
      {.verb = "ping", .lock = kNone, .retry_safe = true, .usage = "ping",
       .handler = &CmdPing},
      {.verb = "help", .lock = kNone, .retry_safe = true, .usage = "help",
       .handler = &CmdHelp},
      {.verb = "quit", .lock = kNone, .retry_safe = true,
       .while_draining = true, .usage = "quit | exit", .handler = &CmdQuit},
      {.verb = "exit", .lock = kNone, .retry_safe = true,
       .while_draining = true, .handler = &CmdQuit},
  };
  return table;
}

const VerbSpec& CommandDispatcher::Lookup(const std::string& line) {
  static const VerbSpec kUnknown = {.verb = "unknown",
                                    .handler = &CmdUnknown};
  std::istringstream input(line);
  std::string verb;
  std::string sub;
  input >> verb >> sub;
  verb = ToLower(verb);
  sub = ToLower(sub);
  const VerbSpec* match = &kUnknown;
  for (const VerbSpec& spec : Verbs()) {
    if (verb != spec.verb) continue;
    if (sub == spec.sub) return spec;
    if (std::string_view(spec.sub) == "*") match = &spec;
  }
  return *match;
}

CommandOutcome CommandDispatcher::Execute(const std::string& line,
                                          ClientSession* session,
                                          std::ostream& out) {
  std::istringstream input(line);
  std::string verb;
  input >> verb;
  if (verb.empty()) return CommandOutcome::kHandled;
  std::string rest;
  std::getline(input, rest);
  VerbCall call{*shared_, host_, session, ToLower(verb),
                std::string(Trim(rest)), {}, out};
  call.args.str(call.rest);
  const VerbSpec& spec = Lookup(line);
  std::shared_lock<std::shared_mutex> read_lock(shared_->mu,
                                                std::defer_lock);
  std::unique_lock<std::shared_mutex> write_lock(shared_->mu,
                                                 std::defer_lock);
  if (spec.lock == VerbLock::kExclusive) {
    write_lock.lock();
  } else if (spec.lock == VerbLock::kShared) {
    read_lock.lock();
  }
  spec.handler(call);
  return call.outcome;
}

}  // namespace server
}  // namespace xia
