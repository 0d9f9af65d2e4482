#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "storage/collection_io.h"
#include "xml/parser.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace {

namespace fs = std::filesystem;

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

class CollectionIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "xia_collection_io";
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(CollectionIoTest, SaveThenLoadRoundTrips) {
  Database original;
  XMarkParams params;
  params.items_per_region = 2;
  ASSERT_TRUE(PopulateXMark(&original, "xmark", 4, params, 42).ok());
  ASSERT_TRUE(
      SaveCollectionToDirectory(original, "xmark", dir_.string()).ok());
  // One file per document.
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".xml");
    ++files;
  }
  EXPECT_EQ(files, 4u);

  Database reloaded;
  Result<size_t> loaded =
      LoadCollectionFromDirectory(&reloaded, "xmark", dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 4u);
  EXPECT_EQ(reloaded.GetCollection("xmark")->num_docs(), 4u);
  EXPECT_EQ(reloaded.GetCollection("xmark")->num_nodes(),
            original.GetCollection("xmark")->num_nodes());
  // Statistics come back identical for any pattern.
  for (const std::string pattern :
       {"/site/regions/*/item", "//quantity", "//@id"}) {
    EXPECT_EQ(reloaded.synopsis("xmark")->EstimateCount(P(pattern)),
              original.synopsis("xmark")->EstimateCount(P(pattern)))
        << pattern;
  }
}

TEST_F(CollectionIoTest, SaveMissingCollectionFails) {
  Database db;
  EXPECT_EQ(SaveCollectionToDirectory(db, "ghost", dir_.string()).code(),
            StatusCode::kNotFound);
}

TEST_F(CollectionIoTest, LoadMissingDirectoryFails) {
  Database db;
  EXPECT_FALSE(
      LoadCollectionFromDirectory(&db, "c", "/nonexistent/nope").ok());
}

TEST_F(CollectionIoTest, LoadRejectsBadXmlWithFilename) {
  fs::create_directories(dir_);
  std::ofstream bad(dir_ / "doc_0.xml");
  bad << "<a><b></a>";
  bad.close();
  Database db;
  Result<size_t> loaded =
      LoadCollectionFromDirectory(&db, "c", dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("doc_0.xml"), std::string::npos);
}

// A file that fails to parse leaves none of its names behind: the name
// table holds what the files before it interned, with the ids a direct
// parse of those files gives.
TEST_F(CollectionIoTest, FailedParseLeavesNoNamesBehind) {
  const std::string good =
      "<site><item id=\"a\"><price>1</price></item></site>";
  fs::create_directories(dir_);
  std::ofstream(dir_ / "doc_0.xml") << good;
  std::ofstream(dir_ / "doc_1.xml")
      << "<brand_new_root><leaked_name>oops</leaked_name><open>"
         "</brand_new_root>";
  Database db;
  ASSERT_FALSE(LoadCollectionFromDirectory(&db, "c", dir_.string()).ok());

  NameTable direct;
  ASSERT_TRUE(XmlParser(&direct).Parse(good).ok());
  ASSERT_EQ(db.names().size(), direct.size());
  for (size_t id = 0; id < direct.size(); ++id) {
    EXPECT_EQ(db.names().NameOf(static_cast<NameId>(id)),
              direct.NameOf(static_cast<NameId>(id)));
  }
  for (const char* leaked : {"brand_new_root", "leaked_name", "open"}) {
    EXPECT_EQ(db.names().Lookup(leaked), kNoName) << leaked;
  }
}

TEST_F(CollectionIoTest, LoadIntoExistingCollectionFails) {
  fs::create_directories(dir_);
  Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  EXPECT_EQ(LoadCollectionFromDirectory(&db, "c", dir_.string())
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace xia
