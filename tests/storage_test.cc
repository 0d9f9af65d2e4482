#include <gtest/gtest.h>

#include "storage/database.h"
#include "storage/node_store.h"

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

}  // namespace
}  // namespace xia
