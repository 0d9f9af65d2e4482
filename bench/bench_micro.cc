// Microbenchmarks (google-benchmark): the substrate operations the
// advisor leans on — path parsing, containment, synopsis matching, index
// probes, optimization, and DAG construction — and the per-document
// costs of a write: XML parse, checksum, and synopsis upkeep.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "advisor/dag.h"
#include "common/logging.h"
#include "common/random.h"
#include "advisor/enumeration.h"
#include "advisor/generalize.h"
#include "index/index_builder.h"
#include "optimizer/explain.h"
#include "query/parser.h"
#include "storage/page.h"
#include "storage/storage_engine.h"
#include "wlm/capture.h"
#include "wlm/compress.h"
#include "wlm/fingerprint.h"
#include "workload/xmark_queries.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmldata/xmark_gen.h"
#include "xpath/containment.h"
#include "xpath/parser.h"

namespace xia {
namespace {

/// Shared database fixture, built once.
Database* SharedDb() {
  static Database* db = [] {
    auto* d = new Database();
    XMarkParams params;
    XIA_CHECK(PopulateXMark(d, "xmark", 10, params, 42).ok());
    return d;
  }();
  return db;
}

void BM_ParsePathPattern(benchmark::State& state) {
  for (auto _ : state) {
    auto p = ParsePathPattern("/site/regions/*/item//mailbox/mail/@date");
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_ParsePathPattern);

void BM_ParseXQuery(benchmark::State& state) {
  const std::string text =
      "for $i in doc(\"xmark\")/site/regions/africa/item[quantity > 3] "
      "where $i/price < 100 and $i/payment = \"Cash\" return $i/name";
  for (auto _ : state) {
    auto q = ParseQuery(text);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ParseXQuery);

void BM_ContainmentFastPath(benchmark::State& state) {
  PathPattern g = *ParsePathPattern("/site/regions/*/item/*");
  PathPattern s = *ParsePathPattern("/site/regions/africa/item/quantity");
  for (auto _ : state) {
    benchmark::DoNotOptimize(PatternContains(g, s));
  }
}
BENCHMARK(BM_ContainmentFastPath);

void BM_ContainmentAutomaton(benchmark::State& state) {
  PathPattern g = *ParsePathPattern("//regions//item/*");
  PathPattern s = *ParsePathPattern("/site/regions/africa/item//quantity");
  for (auto _ : state) {
    benchmark::DoNotOptimize(PatternContains(g, s));
  }
}
BENCHMARK(BM_ContainmentAutomaton);

void BM_ContainmentCached(benchmark::State& state) {
  ContainmentCache cache;
  PathPattern g = *ParsePathPattern("//regions//item/*");
  PathPattern s = *ParsePathPattern("/site/regions/africa/item//quantity");
  cache.Contains(g, s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Contains(g, s));
  }
}
BENCHMARK(BM_ContainmentCached);

void BM_SynopsisMatch(benchmark::State& state) {
  const PathSynopsis* synopsis = SharedDb()->synopsis("xmark");
  PathPattern p = *ParsePathPattern("/site/regions/*/item/quantity");
  for (auto _ : state) {
    benchmark::DoNotOptimize(synopsis->EstimateCount(p));
  }
}
BENCHMARK(BM_SynopsisMatch);

void BM_IndexBuild(benchmark::State& state) {
  IndexDefinition def;
  def.name = "bm";
  def.collection = "xmark";
  def.pattern = *ParsePathPattern("/site/regions/*/item/quantity");
  def.type = ValueType::kDouble;
  for (auto _ : state) {
    auto index = BuildIndex(*SharedDb(), def);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_IndexBuild);

void BM_IndexProbe(benchmark::State& state) {
  IndexDefinition def;
  def.name = "bm";
  def.collection = "xmark";
  def.pattern = *ParsePathPattern("/site/regions/*/item/quantity");
  def.type = ValueType::kDouble;
  Result<PathIndex> index = BuildIndex(*SharedDb(), def);
  XIA_CHECK(index.ok());
  auto key = TypedValue::Make(ValueType::kDouble, "5");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->LookupEq(*key));
  }
}
BENCHMARK(BM_IndexProbe);

void BM_OptimizeQuery(benchmark::State& state) {
  CostModel cost_model;
  Optimizer optimizer(SharedDb(), cost_model);
  ContainmentCache cache;
  Catalog catalog;
  IndexDefinition def;
  def.name = "bm";
  def.collection = "xmark";
  def.pattern = *ParsePathPattern("/site/regions/*/item/quantity");
  def.type = ValueType::kDouble;
  VirtualIndexStats stats = EstimateVirtualIndex(
      *SharedDb()->synopsis("xmark"), def, cost_model.storage);
  XIA_CHECK(catalog.AddVirtual(def, stats).ok());
  Query query = *ParseQuery(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 5 return $i/name");
  for (auto _ : state) {
    auto plan = optimizer.Optimize(query, catalog, &cache);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_OptimizeQuery);

void BM_EnumerateIndexesMode(benchmark::State& state) {
  ContainmentCache cache;
  Query query = *ParseQuery(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/quantity > 5 and $i/payment = \"Cash\" return $i/name");
  for (auto _ : state) {
    auto result = EnumerateIndexesMode(*SharedDb(), query, &cache);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EnumerateIndexesMode);

void BM_CompressLog(benchmark::State& state) {
  // Template compression over a 1024-record log of 4 templates.
  std::vector<wlm::CaptureRecord> records;
  for (int i = 0; i < 1024; ++i) {
    wlm::CaptureRecord r;
    r.seq = static_cast<uint64_t>(i);
    r.text = "for $i in doc(\"xmark\")/site/regions/africa/item "
             "where $i/quantity > " +
             std::to_string(i % 7) + " and $i/price < " +
             std::to_string(100 + i % 11) + " return $i/name";
    Result<Query> q = ParseQuery(r.text);
    XIA_CHECK(q.ok());
    r.fingerprint = wlm::TemplateFingerprint(*q);
    r.est_cost = 1.0 + (i % 4);
    records.push_back(std::move(r));
  }
  for (auto _ : state) {
    auto out = wlm::CompressLog(records);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CompressLog);

void BM_GeneralizeAndBuildDag(benchmark::State& state) {
  ContainmentCache enum_cache;
  Workload workload = MakeXMarkWorkload("xmark");
  Result<EnumerationResult> enumerated =
      EnumerateBasicCandidates(*SharedDb(), workload, &enum_cache);
  XIA_CHECK(enumerated.ok());
  for (auto _ : state) {
    std::vector<CandidateIndex> expanded = GeneralizeCandidates(
        enumerated->candidates, *SharedDb(), GeneralizeOptions());
    ContainmentCache cache;
    GeneralizationDag dag = GeneralizationDag::Build(expanded, &cache);
    benchmark::DoNotOptimize(dag);
  }
}
BENCHMARK(BM_GeneralizeAndBuildDag);

// ---------------------------------------------------------------------
// The write path's per-document work (perfbench `dml` carries documents
// of this size): one parse of a generated ~31 KB XMark document, the
// CRC-32 over a page (4 KB) and a WAL-record-sized buffer (32 KB), one
// document folded into and out of a 40-document synopsis, and the full
// 40-document build the RUNSTATS fallback runs.

const std::string& XMarkText() {
  static const std::string* text = [] {
    NameTable names;
    Random rng(43);
    return new std::string(SerializeDocument(
        GenerateXMarkDocument(&names, XMarkParams(), &rng), names));
  }();
  return *text;
}

Database* XMark40() {
  static Database* db = [] {
    auto* d = new Database();
    XIA_CHECK(PopulateXMark(d, "xmark", 40, XMarkParams(), 41).ok());
    return d;
  }();
  return db;
}

void BM_XmlParse(benchmark::State& state) {
  const std::string& xml = XMarkText();
  for (auto _ : state) {
    NameTable names;
    Result<Document> doc = XmlParser(&names).Parse(xml);
    XIA_CHECK(doc.ok());
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_XmlParse);

void BM_Crc32(benchmark::State& state) {
  Random rng(32);
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(32768);

void BM_SynopsisAddRemove(benchmark::State& state) {
  // A private copy of the fixture's synopsis: iterations mutate it.
  Database* db = XMark40();
  Result<std::unique_ptr<PathSynopsis>> synopsis = db->BuildSynopsis("xmark");
  XIA_CHECK(synopsis.ok());
  Random rng(44);
  const Document doc =
      GenerateXMarkDocument(db->mutable_names(), XMarkParams(), &rng);
  for (auto _ : state) {
    (*synopsis)->AddDocument(doc);
    (*synopsis)->RemoveDocument(doc);
  }
}
BENCHMARK(BM_SynopsisAddRemove);

void BM_BuildSynopsis(benchmark::State& state) {
  const Database* db = XMark40();
  for (auto _ : state) {
    Result<std::unique_ptr<PathSynopsis>> synopsis = db->BuildSynopsis("xmark");
    XIA_CHECK(synopsis.ok());
    benchmark::DoNotOptimize(synopsis);
  }
}
BENCHMARK(BM_BuildSynopsis)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Persistent storage: cold vs. warm recovery-on-open (storage/
// storage_engine.h). A scratch database is checkpointed once — xmark
// docs plus one materialized path index — then every iteration opens it
// into a fresh Database/Catalog. "Cold" gives each iteration its own
// BufferPool, so every checkpoint page is a physical miss; "warm"
// shares one pool across iterations, so after the priming open every
// page is a hit. The counters are deterministic page/record counts the
// CI regression gate tracks (bench/check_regression.py).

const std::string& PersistedDbDir() {
  static const std::string* dir = [] {
    std::filesystem::path path =
        std::filesystem::temp_directory_path() / "xia_bench_open_from_disk";
    std::filesystem::remove_all(path);
    Database db;
    Catalog catalog;
    XIA_CHECK(PopulateXMark(&db, "xmark", 6, XMarkParams(), 42).ok());
    storage::StorageOptions options;
    options.sync = false;  // tmpfs scratch: measure the read path.
    auto engine = storage::StorageEngine::Open(
        path.string(), &db, &catalog, nullptr, CostModel().storage, options);
    XIA_CHECK(engine.ok());
    XIA_CHECK((*engine)
                  ->CreateIndex(
                      "CREATE INDEX q_idx ON xmark(doc) GENERATE KEY USING "
                      "XMLPATTERN '/site/regions/*/item/quantity' "
                      "AS SQL DOUBLE")
                  .ok());
    XIA_CHECK((*engine)->Close().ok());
    return new std::string(path.string());
  }();
  return *dir;
}

void BM_OpenFromDiskCold(benchmark::State& state) {
  const std::string& dir = PersistedDbDir();
  storage::StorageOptions options;
  options.sync = false;
  uint64_t pages = 0;
  uint64_t wal_records = 0;
  uint64_t pool_misses = 0;
  for (auto _ : state) {
    Database db;
    Catalog catalog;
    BufferPool pool(1 << 16);
    auto engine = storage::StorageEngine::Open(
        dir, &db, &catalog, &pool, CostModel().storage, options);
    XIA_CHECK(engine.ok());
    pages = (*engine)->recovery().pages_read;
    wal_records = (*engine)->recovery().wal_records_replayed;
    pool_misses = pool.misses();
    benchmark::DoNotOptimize(db);
  }
  state.counters["pages"] = static_cast<double>(pages);
  state.counters["wal_records"] = static_cast<double>(wal_records);
  state.counters["pool_misses"] = static_cast<double>(pool_misses);
}
BENCHMARK(BM_OpenFromDiskCold);

void BM_OpenFromDiskWarm(benchmark::State& state) {
  const std::string& dir = PersistedDbDir();
  storage::StorageOptions options;
  options.sync = false;
  BufferPool pool(1 << 16);
  {
    // Priming open fills the shared pool.
    Database db;
    Catalog catalog;
    XIA_CHECK(storage::StorageEngine::Open(dir, &db, &catalog, &pool,
                                           CostModel().storage, options)
                  .ok());
  }
  uint64_t pages = 0;
  uint64_t pool_hits = 0;
  for (auto _ : state) {
    Database db;
    Catalog catalog;
    uint64_t hits_before = pool.hits();
    auto engine = storage::StorageEngine::Open(
        dir, &db, &catalog, &pool, CostModel().storage, options);
    XIA_CHECK(engine.ok());
    pages = (*engine)->recovery().pages_read;
    pool_hits = pool.hits() - hits_before;
    benchmark::DoNotOptimize(db);
  }
  state.counters["pages"] = static_cast<double>(pages);
  state.counters["pool_hits"] = static_cast<double>(pool_hits);
}
BENCHMARK(BM_OpenFromDiskWarm);

}  // namespace
}  // namespace xia

#include "bench_main.h"  // Custom main: BENCHMARK_MAIN + --stats-json.
