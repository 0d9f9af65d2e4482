#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "advisor/enumeration.h"
#include "advisor/generalize.h"
#include "workload/xmark_queries.h"
#include "xmldata/xmark_gen.h"
#include "xpath/containment.h"
#include "xpath/parser.h"

namespace xia {
namespace {

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

// --------------------------------------------------------------- Unify.

TEST(UnifyTest, SingleDifferingStep) {
  std::optional<PathPattern> u =
      UnifyPatterns(P("/regions/namerica/item/quantity"),
                    P("/regions/africa/item/quantity"));
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->ToString(), "/regions/*/item/quantity");
}

TEST(UnifyTest, WildcardAbsorbsName) {
  // The paper's second step: a generalized pattern plus a third query.
  std::optional<PathPattern> u =
      UnifyPatterns(P("/regions/*/item/quantity"),
                    P("/regions/samerica/item/price"));
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->ToString(), "/regions/*/item/*");
}

TEST(UnifyTest, IdenticalPatternsYieldNothing) {
  EXPECT_FALSE(UnifyPatterns(P("/a/b"), P("/a/b")).has_value());
  EXPECT_FALSE(UnifyPatterns(P("/a/*"), P("/a/*")).has_value());
}

TEST(UnifyTest, DifferentLengthsNotUnifiable) {
  EXPECT_FALSE(UnifyPatterns(P("/a/b"), P("/a/b/c")).has_value());
}

TEST(UnifyTest, DifferentAxesNotUnifiable) {
  EXPECT_FALSE(UnifyPatterns(P("/a/b"), P("/a//b")).has_value());
}

TEST(UnifyTest, AttributeKindMustAgree) {
  EXPECT_FALSE(UnifyPatterns(P("/a/@x"), P("/a/y")).has_value());
  std::optional<PathPattern> u = UnifyPatterns(P("/a/@x"), P("/a/@y"));
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->ToString(), "/a/@*");
}

TEST(UnifyTest, ResultContainsBothInputs) {
  PathPattern a = P("/x/one/y/two");
  PathPattern b = P("/x/uno/y/dos");
  std::optional<PathPattern> u = UnifyPatterns(a, b);
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->ToString(), "/x/*/y/*");
  EXPECT_TRUE(PatternContains(*u, a));
  EXPECT_TRUE(PatternContains(*u, b));
}

// ----------------------------------------------------- GeneralizeCandidates.

class GeneralizeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkParams params;
    ASSERT_TRUE(PopulateXMark(&db_, "xmark", 4, params, 42).ok());
  }

  CandidateIndex Cand(const std::string& pattern, ValueType type,
                      int source_query) {
    CandidateIndex c;
    c.def.collection = "xmark";
    c.def.pattern = P(pattern);
    c.def.type = type;
    c.source_queries = {source_query};
    c.stats = EstimateVirtualIndex(*db_.synopsis("xmark"), c.def,
                                   StorageConstants());
    return c;
  }

  static std::set<std::string> Patterns(
      const std::vector<CandidateIndex>& candidates) {
    std::set<std::string> out;
    for (const CandidateIndex& c : candidates) {
      out.insert(c.def.pattern.ToString() + "|" +
                 ValueTypeName(c.def.type));
    }
    return out;
  }

  Database db_;
};

TEST_F(GeneralizeTest, ReproducesPaperExampleChain) {
  std::vector<CandidateIndex> basics = {
      Cand("/site/regions/namerica/item/quantity", ValueType::kDouble, 0),
      Cand("/site/regions/africa/item/quantity", ValueType::kDouble, 1),
      Cand("/site/regions/samerica/item/price", ValueType::kDouble, 2),
  };
  std::vector<CandidateIndex> expanded =
      GeneralizeCandidates(basics, db_, GeneralizeOptions());
  std::set<std::string> patterns = Patterns(expanded);
  EXPECT_TRUE(patterns.count("/site/regions/*/item/quantity|DOUBLE"));
  EXPECT_TRUE(patterns.count("/site/regions/*/item/*|DOUBLE"));
  // Basics are preserved, in order, at the front.
  EXPECT_EQ(expanded[0].def.pattern.ToString(),
            "/site/regions/namerica/item/quantity");
  EXPECT_GE(expanded.size(), 5u);
}

TEST_F(GeneralizeTest, GeneratedCandidatesInheritSources) {
  std::vector<CandidateIndex> basics = {
      Cand("/site/regions/namerica/item/quantity", ValueType::kDouble, 0),
      Cand("/site/regions/africa/item/quantity", ValueType::kDouble, 1),
  };
  std::vector<CandidateIndex> expanded =
      GeneralizeCandidates(basics, db_, GeneralizeOptions());
  bool found = false;
  for (const CandidateIndex& c : expanded) {
    if (c.def.pattern.ToString() == "/site/regions/*/item/quantity") {
      found = true;
      EXPECT_TRUE(c.from_generalization);
      EXPECT_EQ(c.source_queries, (std::vector<int>{0, 1}));
      EXPECT_GT(c.stats.entries, 0.0);
      // The generalized index is larger than either parent.
      EXPECT_GT(c.stats.size_bytes, basics[0].stats.size_bytes);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(GeneralizeTest, TypesNeverMix) {
  std::vector<CandidateIndex> basics = {
      Cand("/site/regions/namerica/item/quantity", ValueType::kDouble, 0),
      Cand("/site/regions/africa/item/quantity", ValueType::kVarchar, 1),
  };
  std::vector<CandidateIndex> expanded =
      GeneralizeCandidates(basics, db_, GeneralizeOptions());
  // No unification across types: nothing generated.
  EXPECT_EQ(expanded.size(), 2u);
}

TEST_F(GeneralizeTest, CollectionsNeverMix) {
  ASSERT_TRUE(db_.CreateCollection("other").ok());
  ASSERT_TRUE(db_.LoadXml("other", "<site/>").ok());
  ASSERT_TRUE(db_.Analyze("other").ok());
  std::vector<CandidateIndex> basics = {
      Cand("/site/regions/namerica/item/quantity", ValueType::kDouble, 0),
  };
  CandidateIndex foreign =
      Cand("/site/regions/africa/item/quantity", ValueType::kDouble, 1);
  foreign.def.collection = "other";
  foreign.stats = EstimateVirtualIndex(*db_.synopsis("other"), foreign.def,
                                       StorageConstants());
  basics.push_back(foreign);
  std::vector<CandidateIndex> expanded =
      GeneralizeCandidates(basics, db_, GeneralizeOptions());
  EXPECT_EQ(expanded.size(), 2u);
}

TEST_F(GeneralizeTest, GenerationCapRespected) {
  // Many pairwise-unifiable patterns explode combinatorially; the cap
  // bounds the expansion.
  std::vector<CandidateIndex> basics;
  const std::string parts[] = {"a", "b", "c", "d", "e", "f"};
  int qi = 0;
  for (const std::string& x : parts) {
    for (const std::string& y : parts) {
      basics.push_back(
          Cand("/root/" + x + "/mid/" + y, ValueType::kVarchar, qi++));
    }
  }
  GeneralizeOptions options;
  options.max_generated = 10;
  std::vector<CandidateIndex> expanded =
      GeneralizeCandidates(basics, db_, options);
  EXPECT_LE(expanded.size(), basics.size() + 10);
}

TEST_F(GeneralizeTest, FixpointReachedWithinRounds) {
  std::vector<CandidateIndex> basics = {
      Cand("/site/regions/namerica/item/quantity", ValueType::kDouble, 0),
      Cand("/site/regions/africa/item/quantity", ValueType::kDouble, 1),
      Cand("/site/regions/samerica/item/price", ValueType::kDouble, 2),
      Cand("/site/regions/europe/item/payment", ValueType::kDouble, 3),
  };
  GeneralizeOptions many;
  many.max_rounds = 10;
  GeneralizeOptions few;
  few.max_rounds = 3;
  EXPECT_EQ(Patterns(GeneralizeCandidates(basics, db_, many)),
            Patterns(GeneralizeCandidates(basics, db_, few)));
}

TEST_F(GeneralizeTest, DisabledGeneralizationIsIdentity) {
  std::vector<CandidateIndex> basics = {
      Cand("/site/regions/namerica/item/quantity", ValueType::kDouble, 0),
      Cand("/site/regions/africa/item/quantity", ValueType::kDouble, 1),
  };
  GeneralizeOptions zero;
  zero.max_rounds = 0;
  EXPECT_EQ(GeneralizeCandidates(basics, db_, zero).size(), 2u);
}

// ------------------------------------------- One estimate per new candidate.

/// Reference: generalization as it was first written, estimating the
/// statistics of every unified pair and discarding the estimate when the
/// key already exists.
std::vector<CandidateIndex> GeneralizeEstimatingEveryPair(
    std::vector<CandidateIndex> basics, const Database& db,
    const GeneralizeOptions& options) {
  auto make = [&db](const CandidateIndex& a, const CandidateIndex& b,
                    PathPattern pattern) {
    CandidateIndex out;
    out.def.collection = a.def.collection;
    out.def.pattern = std::move(pattern);
    out.def.type = a.def.type;
    out.from_generalization = true;
    out.sargable = a.sargable || b.sargable;
    out.source_queries = a.source_queries;
    MergeCandidate(&out, b);
    out.stats = EstimateVirtualIndex(*db.synopsis(out.def.collection),
                                     out.def, StorageConstants());
    return out;
  };
  std::vector<CandidateIndex> all = std::move(basics);
  std::map<std::string, int> by_key;
  for (size_t i = 0; i < all.size(); ++i) {
    by_key.emplace(all[i].Key(), static_cast<int>(i));
  }
  size_t generated = 0;
  auto add = [&](CandidateIndex cand) {
    auto [it, inserted] =
        by_key.emplace(cand.Key(), static_cast<int>(all.size()));
    if (inserted) {
      all.push_back(std::move(cand));
      ++generated;
    } else {
      MergeCandidate(&all[static_cast<size_t>(it->second)], cand);
    }
  };
  size_t frontier_begin = 0;
  for (size_t round = 0; round < options.max_rounds; ++round) {
    size_t size_before = all.size();
    for (size_t i = 0; i < size_before && generated < options.max_generated;
         ++i) {
      for (size_t j = std::max(i + 1, frontier_begin);
           j < size_before && generated < options.max_generated; ++j) {
        if (all[i].def.collection != all[j].def.collection ||
            all[i].def.type != all[j].def.type) {
          continue;
        }
        std::optional<PathPattern> unified =
            UnifyPatterns(all[i].def.pattern, all[j].def.pattern);
        if (unified.has_value()) add(make(all[i], all[j], *unified));
      }
    }
    if (all.size() == size_before) break;
    frontier_begin = size_before;
  }
  return all;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST_F(GeneralizeTest, EstimatesOnlyNewCandidatesWithIdenticalResult) {
  ContainmentCache cache;
  Result<EnumerationResult> enumeration =
      EnumerateBasicCandidates(db_, MakeXMarkWorkload("xmark"), &cache);
  ASSERT_TRUE(enumeration.ok()) << enumeration.status().ToString();
  const std::vector<CandidateIndex>& basics = enumeration->candidates;
  for (size_t cap : {size_t{500}, size_t{7}}) {
    GeneralizeOptions options;
    options.max_generated = cap;
    SCOPED_TRACE("max_generated " + std::to_string(cap));
    std::vector<CandidateIndex> got =
        GeneralizeCandidates(basics, db_, options);
    std::vector<CandidateIndex> want =
        GeneralizeEstimatingEveryPair(basics, db_, options);
    ASSERT_EQ(got.size(), want.size());
    if (cap == 7) {
      EXPECT_EQ(got.size(), basics.size() + cap);  // Truncated.
    }
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].Key(), want[i].Key()) << i;
      EXPECT_EQ(got[i].from_generalization, want[i].from_generalization);
      EXPECT_EQ(got[i].sargable, want[i].sargable) << got[i].Key();
      EXPECT_EQ(got[i].source_queries, want[i].source_queries) << got[i].Key();
      const VirtualIndexStats& g = got[i].stats;
      const VirtualIndexStats& w = want[i].stats;
      EXPECT_TRUE(BitEqual(g.entries, w.entries) &&
                  BitEqual(g.size_bytes, w.size_bytes) &&
                  BitEqual(g.leaf_pages, w.leaf_pages) &&
                  g.height == w.height && BitEqual(g.distinct, w.distinct) &&
                  BitEqual(g.avg_key_bytes, w.avg_key_bytes))
          << got[i].Key();
    }
  }
}

}  // namespace
}  // namespace xia
