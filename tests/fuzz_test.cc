// Robustness "mini-fuzz": the parsers must return clean errors — never
// crash, hang, or corrupt state — on mutated and truncated inputs, and
// randomly *built* documents must round-trip through serialize/parse.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/random.h"
#include "index/catalog.h"
#include "query/parser.h"
#include "random_document.h"
#include "storage/collection_io.h"
#include "storage/database.h"
#include "storage/page.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "wlm/wlm_io.h"
#include "workload/workload_io.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace xia {
namespace {

/// Random printable mutation of one character.
std::string Mutate(const std::string& input, Random* rng) {
  if (input.empty()) return input;
  std::string out = input;
  size_t pos = static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(input.size()) - 1));
  switch (rng->Uniform(0, 2)) {
    case 0:  // Replace with a random printable char.
      out[pos] = static_cast<char>(rng->Uniform(32, 126));
      break;
    case 1:  // Delete.
      out.erase(pos, 1);
      break;
    default:  // Duplicate.
      out.insert(pos, 1, out[pos]);
      break;
  }
  return out;
}

constexpr const char* kSeedQueries[] = {
    "for $i in doc(\"xmark\")/site/regions/africa/item "
    "where $i/quantity > 5 and $i/payment = \"Cash\" return $i/name",
    "select xmlquery('$d/a/b') from t where xmlexists('$d/a[x = 1]')",
    "for $x in doc(\"c\")/a let $p := $x/b order by $p return $p",
};

TEST(FuzzTest, QueryParserSurvivesMutations) {
  Random rng(31337);
  for (const char* seed : kSeedQueries) {
    std::string current = seed;
    for (int round = 0; round < 400; ++round) {
      current = Mutate(current, &rng);
      // Must not crash; result is either ok or a clean error.
      Result<Query> q = ParseQuery(current);
      if (!q.ok()) {
        EXPECT_FALSE(q.status().message().empty());
      }
      if (round % 40 == 0) current = seed;  // Re-seed to stay near-valid.
    }
  }
}

TEST(FuzzTest, QueryParserSurvivesTruncations) {
  for (const char* seed : kSeedQueries) {
    std::string text = seed;
    for (size_t len = 0; len <= text.size(); ++len) {
      Result<Query> q = ParseQuery(text.substr(0, len));
      (void)q;  // Any outcome is fine; crashing is not.
    }
  }
}

TEST(FuzzTest, PathParserSurvivesMutations) {
  Random rng(99);
  std::string seed = "/site/regions/*/item[quantity > 5]/@id";
  std::string current = seed;
  for (int round = 0; round < 600; ++round) {
    current = Mutate(current, &rng);
    (void)ParsePathExpr(current);
    (void)ParsePathPattern(current);
    if (round % 50 == 0) current = seed;
  }
}

TEST(FuzzTest, XmlParserSurvivesMutations) {
  Random rng(7);
  NameTable names;
  XmlParser parser(&names);
  std::string seed =
      "<site><item id=\"i&amp;1\"><price>42</price>"
      "<!-- c --><![CDATA[x<y]]></item></site>";
  std::string current = seed;
  for (int round = 0; round < 600; ++round) {
    current = Mutate(current, &rng);
    (void)parser.Parse(current);
    if (round % 50 == 0) current = seed;
  }
}

TEST(FuzzTest, WorkloadParserSurvivesMutations) {
  Random rng(5);
  std::string seed =
      "query Q1 2 for $i in doc(\"x\")/a where $i/b > 1 return $i\n"
      "update insert x 3 /a/b\n";
  std::string current = seed;
  for (int round = 0; round < 400; ++round) {
    current = Mutate(current, &rng);
    (void)ParseWorkloadText(current);
    if (round % 40 == 0) current = seed;
  }
}

namespace fs = std::filesystem;

/// Scratch directory for on-disk loader fuzzing, wiped on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

void WriteFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST(FuzzTest, WorkloadFileLoaderSurvivesMutatedFiles) {
  ScratchDir dir("xia_fuzz_workload_io");
  const std::string seed =
      "# training workload\n"
      "query Q1 2 for $i in doc(\"x\")/a where $i/b > 1 return $i\n"
      "update insert x 3 /a/b\n";
  const std::string path = (dir.path() / "w.workload").string();
  Random rng(1234);
  std::string current = seed;
  for (int round = 0; round < 120; ++round) {
    current = Mutate(current, &rng);
    WriteFile(path, current);
    // Must not crash; result is either ok or a clean error.
    Result<Workload> loaded = LoadWorkloadFile(path);
    if (!loaded.ok()) {
      EXPECT_FALSE(loaded.status().message().empty());
    }
    if (round % 30 == 0) current = seed;
  }
  // Truncations of the pristine seed, byte by byte.
  for (size_t len = 0; len <= seed.size(); ++len) {
    WriteFile(path, seed.substr(0, len));
    (void)LoadWorkloadFile(path);  // Any outcome is fine; crashing is not.
  }
  // A missing file is a clean NotFound-style error, not a crash.
  EXPECT_FALSE(LoadWorkloadFile((dir.path() / "absent").string()).ok());
}

TEST(FuzzTest, CaptureLogLoaderSurvivesMutatedFiles) {
  ScratchDir dir("xia_fuzz_wlm_io");
  // A real serialized log as the seed: saved through the temp-file+rename
  // writer, so the fuzz loop starts from exactly what SaveCaptureLogFile
  // produces in the field.
  std::vector<wlm::CaptureRecord> records;
  for (int i = 0; i < 3; ++i) {
    wlm::CaptureRecord r;
    r.seq = static_cast<uint64_t>(i);
    r.timestamp_micros = 1700000000000000 + i;
    r.est_cost = 1.5 * (i + 1);
    r.text = "for $i in doc(\"x\")/a where $i/b > " + std::to_string(i) +
             " return $i";
    records.push_back(std::move(r));
  }
  // Version-2 format: DML records interleave with query records.
  for (wlm::CaptureKind kind :
       {wlm::CaptureKind::kInsert, wlm::CaptureKind::kDelete,
        wlm::CaptureKind::kUpdate}) {
    wlm::CaptureRecord r;
    r.kind = kind;
    r.seq = records.size();
    r.timestamp_micros = 1700000000000000 + records.size();
    r.est_cost = 7.5;
    r.text = "docs /site";
    r.fingerprint = "dml:" + std::string(wlm::CaptureKindName(kind)) +
                    ":docs:/site";
    records.push_back(std::move(r));
  }
  const std::string path = (dir.path() / "log.wlm").string();
  ASSERT_TRUE(wlm::SaveCaptureLogFile(records, path).ok());
  std::string seed = wlm::SerializeCaptureLog(records);
  {
    Result<std::vector<wlm::CaptureRecord>> pristine =
        wlm::LoadCaptureLogFile(path);
    ASSERT_TRUE(pristine.ok());
    ASSERT_EQ(pristine->size(), records.size());
  }
  Random rng(97531);
  std::string current = seed;
  for (int round = 0; round < 120; ++round) {
    current = Mutate(current, &rng);
    WriteFile(path, current);
    // Must not crash; result is either ok or a clean error.
    Result<std::vector<wlm::CaptureRecord>> loaded =
        wlm::LoadCaptureLogFile(path);
    if (!loaded.ok()) {
      EXPECT_FALSE(loaded.status().message().empty());
    } else {
      // Whatever survived mutation must carry recomputed fingerprints
      // that re-parse cleanly — the loader never trusts file bytes.
      for (const wlm::CaptureRecord& r : *loaded) {
        if (r.kind == wlm::CaptureKind::kQuery) {
          EXPECT_TRUE(ParseQuery(r.text).ok());
        }
        EXPECT_FALSE(r.fingerprint.empty());
      }
    }
    if (round % 30 == 0) current = seed;
  }
  // Truncations of the pristine seed, byte by byte (torn reads).
  for (size_t len = 0; len <= seed.size(); ++len) {
    WriteFile(path, seed.substr(0, len));
    (void)wlm::LoadCaptureLogFile(path);  // Any outcome but a crash.
  }
  // A missing file is a clean error, not a crash.
  EXPECT_FALSE(
      wlm::LoadCaptureLogFile((dir.path() / "absent").string()).ok());
}

TEST(FuzzTest, CollectionLoaderSurvivesMutatedFiles) {
  ScratchDir dir("xia_fuzz_collection_io");
  const std::string seed =
      "<site><item id=\"i1\"><price>42</price><name>x&amp;y</name>"
      "</item></site>";
  const std::string path = (dir.path() / "doc_0.xml").string();
  // Sanity: the pristine seed loads, so the loop below exercises the
  // loader proper and not some setup failure.
  WriteFile(path, seed);
  {
    Database db;
    ASSERT_TRUE(LoadCollectionFromDirectory(&db, "c", dir.path().string())
                    .ok());
  }
  Random rng(4321);
  std::string current = seed;
  for (int round = 0; round < 120; ++round) {
    current = Mutate(current, &rng);
    WriteFile(path, current);
    Database db;
    Result<size_t> loaded =
        LoadCollectionFromDirectory(&db, "c", dir.path().string());
    if (!loaded.ok()) {
      EXPECT_FALSE(loaded.status().message().empty());
    }
    if (round % 30 == 0) current = seed;
  }
  // Truncations: every prefix of the seed document.
  for (size_t len = 0; len <= seed.size(); ++len) {
    WriteFile(path, seed.substr(0, len));
    Database db;
    (void)LoadCollectionFromDirectory(&db, "c", dir.path().string());
  }
}

// ------------------------------------------- Persistent-storage loaders.

/// A well-formed three-record WAL image for the scanner fuzz loops.
std::string SeedWalImage() {
  std::string image;
  for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
    storage::WalRecord record;
    record.lsn = lsn;
    record.type = storage::WalRecordType::kCreateCollection;
    record.payload = std::string("\x05\0\0\0", 4) + "coll" +
                     std::to_string(lsn);
    image += storage::EncodeWalRecord(record);
  }
  return image;
}

TEST(FuzzTest, WalScannerSurvivesTruncations) {
  const std::string seed = SeedWalImage();
  for (size_t len = 0; len <= seed.size(); ++len) {
    storage::WalReadResult result =
        storage::ScanWal(std::string_view(seed.data(), len));
    // The valid prefix is all the scanner may return; a cut anywhere
    // inside record k must yield exactly the records before k.
    EXPECT_LE(result.valid_bytes, len);
    for (size_t i = 0; i < result.records.size(); ++i) {
      EXPECT_EQ(result.records[i].lsn, i + 1);
    }
    EXPECT_EQ(result.clean, result.valid_bytes == len);
  }
}

TEST(FuzzTest, WalScannerSurvivesBitFlips) {
  const std::string seed = SeedWalImage();
  Random rng(60221);
  for (int round = 0; round < 300; ++round) {
    std::string image = seed;
    size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(image.size()) - 1));
    image[pos] = static_cast<char>(
        image[pos] ^ static_cast<char>(1 << rng.Uniform(0, 7)));
    storage::WalReadResult result = storage::ScanWal(image);
    // A single bit flip may only drop records from the flipped one on;
    // every surviving record must be byte-identical to its original.
    EXPECT_LE(result.records.size(), 3u);
    for (size_t i = 0; i < result.records.size(); ++i) {
      EXPECT_EQ(result.records[i].type,
                storage::WalRecordType::kCreateCollection);
    }
  }
}

/// A WAL image exercising the DML record types (insert/delete/update),
/// payload-encoded exactly as StorageEngine logs them.
std::string SeedDmlWalImage() {
  std::string image;
  auto append = [&image](uint64_t lsn, storage::WalRecordType type,
                         std::string payload) {
    storage::WalRecord record;
    record.lsn = lsn;
    record.type = type;
    record.payload = std::move(payload);
    image += storage::EncodeWalRecord(record);
  };
  {
    storage::BinWriter w;
    w.Str("docs");
    w.Str("<site><item><price>1</price></item></site>");
    append(1, storage::WalRecordType::kInsertDocument, w.Take());
  }
  {
    storage::BinWriter w;
    w.Str("docs");
    w.I32(0);
    append(2, storage::WalRecordType::kDeleteDocument, w.Take());
  }
  {
    storage::BinWriter w;
    w.Str("docs");
    w.I32(1);
    w.Str("<site><item><price>2</price></item></site>");
    append(3, storage::WalRecordType::kUpdateDocument, w.Take());
  }
  return image;
}

TEST(FuzzTest, WalScannerSurvivesDmlRecordTruncations) {
  const std::string seed = SeedDmlWalImage();
  for (size_t len = 0; len <= seed.size(); ++len) {
    storage::WalReadResult result =
        storage::ScanWal(std::string_view(seed.data(), len));
    EXPECT_LE(result.valid_bytes, len);
    for (size_t i = 0; i < result.records.size(); ++i) {
      EXPECT_EQ(result.records[i].lsn, i + 1);
    }
    EXPECT_EQ(result.clean, result.valid_bytes == len);
  }
}

TEST(FuzzTest, WalScannerSurvivesDmlRecordBitFlips) {
  const std::string seed = SeedDmlWalImage();
  Random rng(80442);
  for (int round = 0; round < 300; ++round) {
    std::string image = seed;
    size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(image.size()) - 1));
    image[pos] = static_cast<char>(
        image[pos] ^ static_cast<char>(1 << rng.Uniform(0, 7)));
    storage::WalReadResult result = storage::ScanWal(image);
    // A flip may only drop records from the damaged one on; whatever
    // survives must still carry one of the three DML types it was
    // written with (a flipped type byte fails the record checksum).
    EXPECT_LE(result.records.size(), 3u);
    for (const storage::WalRecord& record : result.records) {
      EXPECT_TRUE(
          record.type == storage::WalRecordType::kInsertDocument ||
          record.type == storage::WalRecordType::kDeleteDocument ||
          record.type == storage::WalRecordType::kUpdateDocument);
    }
  }
}

TEST(FuzzTest, PageReaderSurvivesTruncationsAndBitFlips) {
  std::string image;
  storage::BinWriter payload;
  payload.Str("some page payload");
  storage::AppendPage(&image, 0, storage::PageType::kMeta, payload.bytes());
  storage::AppendPage(&image, 1, storage::PageType::kNodes, "abc");
  // Truncations: reading past the cut is a clean error.
  for (size_t len = 0; len < image.size(); len += 257) {
    std::string_view cut(image.data(), len);
    for (uint64_t page = 0; page < 2; ++page) {
      Result<storage::PageView> view = storage::ReadPage(cut, page);
      if (!view.ok()) {
        EXPECT_FALSE(view.status().message().empty());
      }
    }
  }
  // Bit flips: either the checksum catches it or the page is untouched
  // in the fields that matter (flips inside the padding still flag,
  // since the CRC covers the whole page).
  Random rng(8086);
  for (int round = 0; round < 300; ++round) {
    std::string mutated = image;
    size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1 << rng.Uniform(0, 7)));
    uint64_t flipped_page = pos / storage::kPageSize;
    bool checksum_failed = false;
    Result<storage::PageView> view =
        storage::ReadPage(mutated, flipped_page, &checksum_failed);
    EXPECT_FALSE(view.ok());  // CRC covers every byte of the page.
    uint64_t other_page = 1 - flipped_page;
    EXPECT_TRUE(storage::ReadPage(mutated, other_page).ok());
  }
}

TEST(FuzzTest, CheckpointLoaderSurvivesMutatedPageFiles) {
  ScratchDir dir("xia_fuzz_checkpoint");
  const std::string db_dir = (dir.path() / "db").string();
  {
    Database db;
    Catalog catalog;
    Result<std::unique_ptr<storage::StorageEngine>> engine =
        storage::StorageEngine::Open(db_dir, &db, &catalog, nullptr,
                                     StorageConstants{});
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->CreateCollection("docs").ok());
    ASSERT_TRUE(
        (*engine)
            ->InsertDocument("docs",
                             "<site><item><price>9</price></item></site>")
            .ok());
    ASSERT_TRUE((*engine)->Analyze("docs").ok());
    ASSERT_TRUE((*engine)->Close().ok());
  }
  const std::string pages = (fs::path(db_dir) / "pages.2.xdb").string();
  std::string seed;
  {
    std::ifstream in(pages, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    seed = buf.str();
  }
  ASSERT_FALSE(seed.empty());
  Random rng(777);
  auto reopen = [&]() -> Status {
    Database db;
    Catalog catalog;
    Result<std::unique_ptr<storage::StorageEngine>> engine =
        storage::StorageEngine::Open(db_dir, &db, &catalog, nullptr,
                                     StorageConstants{});
    return engine.ok() ? Status::Ok() : engine.status();
  };
  // Bit flips anywhere in the page file: recovery must either succeed
  // (flip restored by double-flip rounds is impossible here — any flip
  // lands in a CRC-covered page) or fail with a clean message. Never
  // crash, never load half a database.
  for (int round = 0; round < 60; ++round) {
    std::string mutated = seed;
    size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1 << rng.Uniform(0, 7)));
    WriteFile(pages, mutated);
    Status status = reopen();
    EXPECT_FALSE(status.ok());
    EXPECT_FALSE(status.message().empty());
  }
  // Truncations at page granularity and ragged cuts.
  for (size_t len : {size_t{0}, size_t{100}, storage::kPageSize + size_t{0},
                     seed.size() - storage::kPageSize, seed.size() - 1}) {
    WriteFile(pages, seed.substr(0, len));
    Status status = reopen();
    EXPECT_FALSE(status.ok());
  }
  // The pristine file still loads after all that.
  WriteFile(pages, seed);
  EXPECT_TRUE(reopen().ok());
}

TEST(FuzzTest, RandomDocumentsRoundTripThroughSerializer) {
  Random rng(2718);
  NameTable names;
  XmlParser parser(&names);
  for (int trial = 0; trial < 50; ++trial) {
    Document original = RandomDocument(&names, &rng);
    std::string xml = SerializeDocument(original, names);
    Result<Document> reparsed = parser.Parse(xml);
    ASSERT_TRUE(reparsed.ok()) << xml;
    EXPECT_EQ(reparsed->num_nodes(), original.num_nodes()) << xml;
    // Second round trip is a fixpoint.
    EXPECT_EQ(SerializeDocument(*reparsed, names), xml);
  }
}

}  // namespace
}  // namespace xia
