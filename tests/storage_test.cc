#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "storage/database.h"
#include "storage/node_store.h"
#include "storage/page.h"

namespace xia {
namespace {

TEST(CollectionTest, AddAssignsSequentialIds) {
  Database db;
  Result<Collection*> coll = db.CreateCollection("c");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE(db.LoadXml("c", "<a><b>1</b></a>").ok());
  ASSERT_TRUE(db.LoadXml("c", "<a><b>2</b></a>").ok());
  EXPECT_EQ((*coll)->num_docs(), 2u);
  EXPECT_EQ((*coll)->doc(0).id(), 0);
  EXPECT_EQ((*coll)->doc(1).id(), 1);
  EXPECT_EQ((*coll)->num_nodes(), 6u);
  EXPECT_GT((*coll)->ByteSize(), 0u);
}

TEST(DatabaseTest, DuplicateCollectionRejected) {
  Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  Result<Collection*> dup = db.CreateCollection("c");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(DatabaseTest, LoadIntoMissingCollectionFails) {
  Database db;
  EXPECT_EQ(db.LoadXml("ghost", "<a/>").code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, LoadBadXmlFails) {
  Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  EXPECT_EQ(db.LoadXml("c", "<a><b></a>").code(), StatusCode::kParseError);
}

TEST(DatabaseTest, AnalyzeBuildsSynopsis) {
  Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  ASSERT_TRUE(db.LoadXml("c", "<a><b>1</b><b>2</b></a>").ok());
  EXPECT_EQ(db.synopsis("c"), nullptr);
  ASSERT_TRUE(db.Analyze("c").ok());
  const PathSynopsis* synopsis = db.synopsis("c");
  ASSERT_NE(synopsis, nullptr);
  EXPECT_EQ(synopsis->TotalNodes(), 3u);
  EXPECT_EQ(db.Analyze("ghost").code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, CollectionNamesSorted) {
  Database db;
  ASSERT_TRUE(db.CreateCollection("zeta").ok());
  ASSERT_TRUE(db.CreateCollection("alpha").ok());
  EXPECT_EQ(db.CollectionNames(),
            (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(NodeRefTest, Ordering) {
  NodeRef a{0, 5};
  NodeRef b{0, 6};
  NodeRef c{1, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (NodeRef{0, 5}));
}

// Page files, WAL records and state fingerprints all carry this checksum,
// so it must stay the reflected CRC-32 (polynomial 0xEDB88320) whatever
// the implementation.
TEST(Crc32Test, MatchesTheStandardCheckValue) {
  EXPECT_EQ(storage::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(storage::Crc32(""), 0u);
}

uint32_t BitwiseCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, EqualsABitwiseReferenceAtEveryLengthAndAlignment) {
  Random rng(32);
  std::string buffer(10008, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Uniform(0, 255));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (int round = 0; round < 40; ++round) {
      const size_t length = static_cast<size_t>(rng.Uniform(0, 10000));
      const std::string_view data(buffer.data() + offset, length);
      ASSERT_EQ(storage::Crc32(data), BitwiseCrc32(data))
          << "offset " << offset << " length " << length;
    }
    for (size_t length = 0; length < 24; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      ASSERT_EQ(storage::Crc32(data), BitwiseCrc32(data))
          << "offset " << offset << " length " << length;
    }
  }
}

}  // namespace
}  // namespace xia
