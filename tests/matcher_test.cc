#include <gtest/gtest.h>

#include "advisor/enumeration.h"
#include "advisor/generalize.h"
#include "index/index_matcher.h"
#include "optimizer/whatif_kernel.h"
#include "query/parser.h"
#include "workload/tpox_queries.h"
#include "workload/xmark_queries.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace {

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

class MatcherTest : public ::testing::Test {
 protected:
  /// Registers a virtual index and returns its catalog entry list position.
  void AddIndex(const std::string& name, const std::string& pattern,
                ValueType type, const std::string& collection = "xmark") {
    IndexDefinition def;
    def.name = name;
    def.collection = collection;
    def.pattern = P(pattern);
    def.type = type;
    ASSERT_TRUE(catalog_.AddVirtual(std::move(def), VirtualIndexStats{}).ok());
  }

  std::vector<IndexMatch> Match(const std::string& text) {
    Result<Query> q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    IndexMatcher matcher(&cache_);
    return matcher.Match(q->normalized, catalog_.IndexesFor("xmark"));
  }

  /// Finds a match on the named index, or nullptr.
  static const IndexMatch* Find(const std::vector<IndexMatch>& matches,
                                const std::string& name,
                                int predicate_index) {
    for (const IndexMatch& m : matches) {
      if (m.entry->def.name == name &&
          m.predicate_index == predicate_index) {
        return &m;
      }
    }
    return nullptr;
  }

  Catalog catalog_;
  ContainmentCache cache_;
};

constexpr const char* kQuery =
    "for $i in doc(\"xmark\")/site/regions/africa/item "
    "where $i/quantity > 5 return $i/name";

TEST_F(MatcherTest, ExactDoubleIndexMatchesSargably) {
  AddIndex("exact", "/site/regions/africa/item/quantity",
           ValueType::kDouble);
  std::vector<IndexMatch> matches = Match(kQuery);
  const IndexMatch* m = Find(matches, "exact", 0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->use, MatchUse::kSargableRange);
  EXPECT_TRUE(m->exact);
}

TEST_F(MatcherTest, GeneralIndexMatchesWithVerify) {
  AddIndex("general", "/site/regions/*/item/quantity", ValueType::kDouble);
  AddIndex("universal", "//quantity", ValueType::kDouble);
  std::vector<IndexMatch> matches = Match(kQuery);
  const IndexMatch* general = Find(matches, "general", 0);
  ASSERT_NE(general, nullptr);
  EXPECT_FALSE(general->exact);
  const IndexMatch* universal = Find(matches, "universal", 0);
  ASSERT_NE(universal, nullptr);
  EXPECT_FALSE(universal->exact);
}

TEST_F(MatcherTest, MoreSpecificIndexDoesNotMatch) {
  // An index on a *sibling* region cannot serve africa's pattern.
  AddIndex("wrong", "/site/regions/namerica/item/quantity",
           ValueType::kDouble);
  std::vector<IndexMatch> matches = Match(kQuery);
  EXPECT_EQ(Find(matches, "wrong", 0), nullptr);
}

TEST_F(MatcherTest, TypeMismatchDowngradesOrDrops) {
  // Numeric range predicate + VARCHAR index: structural use only.
  AddIndex("vc", "/site/regions/africa/item/quantity", ValueType::kVarchar);
  std::vector<IndexMatch> matches = Match(kQuery);
  const IndexMatch* m = Find(matches, "vc", 0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->use, MatchUse::kStructural);
}

TEST_F(MatcherTest, DoubleIndexCannotServeStructurally) {
  // Existence predicate needs every node; DOUBLE indexes are lossy.
  AddIndex("d", "/site/regions/africa/item/name", ValueType::kDouble);
  std::vector<IndexMatch> matches = Match(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/name return $i");
  EXPECT_EQ(Find(matches, "d", 0), nullptr);
  // But a VARCHAR index can.
  AddIndex("v", "/site/regions/africa/item/name", ValueType::kVarchar);
  matches = Match(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/name return $i");
  const IndexMatch* m = Find(matches, "v", 0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->use, MatchUse::kStructural);
}

TEST_F(MatcherTest, ForPathMatchedStructurally) {
  AddIndex("items", "/site/regions/*/item", ValueType::kVarchar);
  std::vector<IndexMatch> matches = Match(kQuery);
  const IndexMatch* m = Find(matches, "items", -1);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->use, MatchUse::kStructural);
  EXPECT_FALSE(m->exact);
}

TEST_F(MatcherTest, EqualityPredicateUsesEqProbe) {
  AddIndex("pay", "/site/regions/africa/item/payment", ValueType::kVarchar);
  std::vector<IndexMatch> matches = Match(
      "for $i in doc(\"xmark\")/site/regions/africa/item "
      "where $i/payment = \"Cash\" return $i");
  const IndexMatch* m = Find(matches, "pay", 0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->use, MatchUse::kSargableEq);
}

TEST_F(MatcherTest, WrongCollectionNeverMatches) {
  AddIndex("other", "//*", ValueType::kVarchar, "tpox");
  EXPECT_TRUE(Match(kQuery).empty());
}

TEST_F(MatcherTest, UniversalIndexMatchesEverything) {
  AddIndex("uvi", "//*", ValueType::kVarchar);
  AddIndex("uvi_d", "//*", ValueType::kDouble);
  std::vector<IndexMatch> matches = Match(kQuery);
  // //* VARCHAR: structural on predicate + structural on FOR path.
  EXPECT_NE(Find(matches, "uvi", 0), nullptr);
  EXPECT_NE(Find(matches, "uvi", -1), nullptr);
  // //* DOUBLE: sargable range on the numeric predicate only.
  const IndexMatch* d = Find(matches, "uvi_d", 0);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->use, MatchUse::kSargableRange);
  EXPECT_EQ(Find(matches, "uvi_d", -1), nullptr);
}

TEST_F(MatcherTest, AttributePredicateMatchesAttributeIndex) {
  AddIndex("inc", "/site/people/person/profile/@income",
           ValueType::kDouble);
  AddIndex("all_attrs", "//@*", ValueType::kDouble);
  std::vector<IndexMatch> matches = Match(
      "for $p in doc(\"xmark\")/site/people/person "
      "where $p/profile/@income >= 50000 return $p");
  const IndexMatch* exact = Find(matches, "inc", 0);
  ASSERT_NE(exact, nullptr);
  EXPECT_TRUE(exact->exact);
  EXPECT_EQ(exact->use, MatchUse::kSargableRange);
  EXPECT_NE(Find(matches, "all_attrs", 0), nullptr);
}

TEST_F(MatcherTest, ContainsPredicateOnlyStructural) {
  AddIndex("desc", "/site/regions/africa/item/name", ValueType::kVarchar);
  std::vector<IndexMatch> matches = Match(
      "for $i in doc(\"xmark\")/site/regions/africa/item[contains(name, "
      "\"gold\")] return $i");
  const IndexMatch* m = Find(matches, "desc", 0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->use, MatchUse::kStructural);
}

TEST_F(MatcherTest, ToStringIsReadable) {
  AddIndex("exact", "/site/regions/africa/item/quantity",
           ValueType::kDouble);
  std::vector<IndexMatch> matches = Match(kQuery);
  ASSERT_FALSE(matches.empty());
  std::string s = matches[0].ToString();
  EXPECT_NE(s.find("exact"), std::string::npos);
}

/// The what-if kernel's relevance matrix, over the enumerated and
/// generalized candidates of `workload`, against the relevance predicate's
/// definition: a candidate is relevant to a query iff Match, run on a
/// fresh cache, emits at least one match for it.
void ExpectRelevanceMatchesMatcher(const Database& db,
                                   const Workload& workload) {
  ContainmentCache cache;
  Result<EnumerationResult> enumeration =
      EnumerateBasicCandidates(db, workload, &cache);
  ASSERT_TRUE(enumeration.ok()) << enumeration.status().ToString();
  std::vector<CandidateIndex> candidates =
      GeneralizeCandidates(enumeration->candidates, db, GeneralizeOptions());
  std::vector<CatalogEntry> overlay(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    overlay[i].def = candidates[i].def;
    overlay[i].def.name = "cand" + std::to_string(i);
    overlay[i].stats = candidates[i].stats;
  }
  Optimizer optimizer(&db, CostModel());
  Catalog base;
  WhatIfCostCache plans;
  WhatIfKernel kernel(&optimizer, &workload.queries(), &base, overlay, &cache,
                      &plans);

  ContainmentCache reference_cache;
  IndexMatcher reference(&reference_cache);
  size_t relevant = 0;
  for (size_t q = 0; q < workload.queries().size(); ++q) {
    const NormalizedQuery& nq = workload.queries()[q].normalized;
    for (size_t e = 0; e < overlay.size(); ++e) {
      const bool expected = !reference.Match(nq, {&overlay[e]}).empty();
      EXPECT_EQ(kernel.Relevant(static_cast<int>(e), q), expected)
          << workload.queries()[q].id << " / "
          << overlay[e].def.pattern.ToString();
      relevant += expected ? 1 : 0;
    }
  }
  EXPECT_GT(relevant, 0u);
  EXPECT_GT(candidates.size(), enumeration->candidates.size());
}

TEST(RelevanceParityTest, XMarkKernelRelevanceEqualsMatch) {
  Database db;
  ASSERT_TRUE(PopulateXMark(&db, "xmark", 6, XMarkParams(), 42).ok());
  ExpectRelevanceMatchesMatcher(db, MakeXMarkWorkload("xmark"));
}

TEST(RelevanceParityTest, TpoxKernelRelevanceEqualsMatch) {
  Database db;
  ASSERT_TRUE(PopulateTpox(&db, 20, 40, 10, TpoxParams(), 11).ok());
  ExpectRelevanceMatchesMatcher(db, MakeTpoxWorkload());
}

}  // namespace
}  // namespace xia
