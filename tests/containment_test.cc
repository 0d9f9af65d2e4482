#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "xpath/containment.h"
#include "xpath/nfa.h"
#include "xpath/parser.h"

namespace xia {
namespace {

PathPattern P(const std::string& text) {
  Result<PathPattern> p = ParsePathPattern(text);
  EXPECT_TRUE(p.ok()) << text;
  return std::move(*p);
}

// ------------------------------------------------------------------- NFA.

std::vector<PatternSymbol> Word(
    const std::vector<std::string>& names) {
  std::vector<PatternSymbol> out;
  for (const std::string& n : names) {
    PatternSymbol sym;
    if (!n.empty() && n[0] == '@') {
      sym.is_attr = true;
      sym.name = n.substr(1);
    } else {
      sym.name = n;
    }
    out.push_back(sym);
  }
  return out;
}

TEST(PatternNfaTest, ChildAxisExactMatch) {
  PatternNfa nfa(P("/a/b"));
  EXPECT_TRUE(nfa.MatchesWord(Word({"a", "b"})));
  EXPECT_FALSE(nfa.MatchesWord(Word({"a"})));
  EXPECT_FALSE(nfa.MatchesWord(Word({"a", "b", "c"})));
  EXPECT_FALSE(nfa.MatchesWord(Word({"b", "a"})));
}

TEST(PatternNfaTest, DescendantSkipsElements) {
  PatternNfa nfa(P("//b"));
  EXPECT_TRUE(nfa.MatchesWord(Word({"b"})));
  EXPECT_TRUE(nfa.MatchesWord(Word({"a", "b"})));
  EXPECT_TRUE(nfa.MatchesWord(Word({"a", "x", "y", "b"})));
  EXPECT_FALSE(nfa.MatchesWord(Word({"a", "b", "c"})));
}

TEST(PatternNfaTest, WildcardMatchesAnyName) {
  PatternNfa nfa(P("/a/*/c"));
  EXPECT_TRUE(nfa.MatchesWord(Word({"a", "anything", "c"})));
  EXPECT_FALSE(nfa.MatchesWord(Word({"a", "c"})));
}

TEST(PatternNfaTest, AttributeStepsMatchOnlyAttributes) {
  PatternNfa nfa(P("/a/@id"));
  EXPECT_TRUE(nfa.MatchesWord(Word({"a", "@id"})));
  EXPECT_FALSE(nfa.MatchesWord(Word({"a", "id"})));
  // Descendant self-loops never consume attribute labels.
  PatternNfa desc(P("//@id"));
  EXPECT_TRUE(desc.MatchesWord(Word({"a", "b", "@id"})));
  EXPECT_FALSE(desc.MatchesWord(Word({"a", "@id", "b"})));
}

TEST(PatternNfaTest, UniversalPatterns) {
  PatternNfa elems(PathPattern::AllElements());
  EXPECT_TRUE(elems.MatchesWord(Word({"x"})));
  EXPECT_TRUE(elems.MatchesWord(Word({"a", "b", "c"})));
  EXPECT_FALSE(elems.MatchesWord(Word({"a", "@id"})));
  PatternNfa attrs(PathPattern::AllAttributes());
  EXPECT_TRUE(attrs.MatchesWord(Word({"a", "@id"})));
  EXPECT_FALSE(attrs.MatchesWord(Word({"a", "b"})));
}

// ----------------------------------------------- Parameterized containment.

// (general, specific, general_contains_specific, specific_contains_general)
using ContainmentCase = std::tuple<const char*, const char*, bool, bool>;

class ContainmentParamTest : public ::testing::TestWithParam<ContainmentCase> {
};

TEST_P(ContainmentParamTest, MatchesExpectation) {
  auto [general, specific, forward, backward] = GetParam();
  EXPECT_EQ(PatternContains(P(general), P(specific)), forward)
      << general << " ⊇ " << specific;
  EXPECT_EQ(PatternContains(P(specific), P(general)), backward)
      << specific << " ⊇ " << general;
}

INSTANTIATE_TEST_SUITE_P(
    Containment, ContainmentParamTest,
    ::testing::Values(
        // Identical patterns contain each other.
        ContainmentCase{"/a/b/c", "/a/b/c", true, true},
        // * generalizes a name at the same position.
        ContainmentCase{"/a/*/c", "/a/b/c", true, false},
        // Two wildcards.
        ContainmentCase{"/a/*/*", "/a/b/c", true, false},
        // // generalizes /.
        ContainmentCase{"//c", "/a/b/c", true, false},
        ContainmentCase{"//b/c", "/a/b/c", true, false},
        // //* contains every element path.
        ContainmentCase{"//*", "/a/b/c", true, false},
        ContainmentCase{"//*", "//item/price", true, false},
        // //@* contains attribute paths, not element paths.
        ContainmentCase{"//@*", "/a/@id", true, false},
        ContainmentCase{"//@*", "/a/b", false, false},
        // Same length, different name: incomparable.
        ContainmentCase{"/a/b/c", "/a/b/d", false, false},
        // Different lengths without //: incomparable.
        ContainmentCase{"/a/b", "/a/b/c", false, false},
        // The paper's generalization chain.
        ContainmentCase{"/regions/*/item/quantity",
                        "/regions/namerica/item/quantity", true, false},
        ContainmentCase{"/regions/*/item/*",
                        "/regions/*/item/quantity", true, false},
        ContainmentCase{"/regions/*/item/*",
                        "/regions/samerica/item/price", true, false},
        // // vs * interplay: //b ⊉ /a/*: wildcard may be a non-b name.
        ContainmentCase{"//b", "/a/*", false, false},
        ContainmentCase{"//*", "/a/*", true, false},
        // /a//c vs /a/b/c: the former skips arbitrarily.
        ContainmentCase{"/a//c", "/a/b/c", true, false},
        ContainmentCase{"/a//c", "/a/c", true, false},
        ContainmentCase{"/a//c", "/a/b/b/c", true, false},
        // //a//b contains /a/x/b and /a/b.
        ContainmentCase{"//a//b", "/a/x/b", true, false},
        ContainmentCase{"//a//b", "/a/b", true, false},
        ContainmentCase{"//a//b", "/b/a", false, false},
        // Equivalent spellings: /a//b vs /a//*/b? No: //b requires b;
        // //*/b requires at least one element between. Not equivalent.
        ContainmentCase{"/a//b", "/a//*/b", true, false},
        // Attribute flavor must match.
        ContainmentCase{"/a/*", "/a/@id", false, false},
        ContainmentCase{"/a/@*", "/a/@id", true, false},
        // Descendant attribute.
        ContainmentCase{"//item/@id", "/site/regions/africa/item/@id", true,
                        false}));

TEST(ContainmentTest, EquivalentDistinctSpellings) {
  // //a//* and //a/*? Not equivalent. But //*//* ≡ //*/* : both mean
  // "depth >= 2".
  EXPECT_TRUE(PatternsEquivalent(P("//*//*"), P("//*/*")));
  EXPECT_FALSE(PatternsEquivalent(P("//a//*"), P("//a/*")));
  EXPECT_TRUE(PatternContains(P("//a//*"), P("//a/*")));
}

// ---------------------------------------------------------- Intersection.

TEST(IntersectionTest, OverlappingPatterns) {
  EXPECT_TRUE(PatternsIntersect(P("/a/b"), P("/a/*")));
  EXPECT_TRUE(PatternsIntersect(P("//item"), P("/site/regions/*/item")));
  EXPECT_TRUE(PatternsIntersect(P("//*"), P("/x/y/z")));
}

TEST(IntersectionTest, DisjointPatterns) {
  EXPECT_FALSE(PatternsIntersect(P("/a/b"), P("/a/c")));
  EXPECT_FALSE(PatternsIntersect(P("/a"), P("/a/b")));
  EXPECT_FALSE(PatternsIntersect(P("//@id"), P("//id")));
}

TEST(IntersectionTest, IncomparableButOverlapping) {
  // /a/*/c and /a/b/* are incomparable yet share /a/b/c.
  EXPECT_FALSE(PatternContains(P("/a/*/c"), P("/a/b/*")));
  EXPECT_FALSE(PatternContains(P("/a/b/*"), P("/a/*/c")));
  EXPECT_TRUE(PatternsIntersect(P("/a/*/c"), P("/a/b/*")));
}

// ------------------------------------------------------- Cache behaviour.

TEST(ContainmentCacheTest, CachesAndStaysCorrect) {
  ContainmentCache cache;
  PathPattern g = P("/regions/*/item/*");
  PathPattern s = P("/regions/africa/item/quantity");
  EXPECT_TRUE(cache.Contains(g, s));
  EXPECT_TRUE(cache.Contains(g, s));  // Cached path.
  EXPECT_FALSE(cache.Contains(s, g));
  EXPECT_EQ(cache.size(), 2u);
}

// ------------------------------------------------- Interned containment.

/// A seeded universe of random patterns: 1-4 steps over the names a, b,
/// c; each step `/` or `//`, a name or `*`; the last step may be an
/// attribute. Small alphabets make containment (and duplicates) common.
std::vector<PathPattern> RandomUniverse(uint64_t seed, size_t count) {
  Random rng(seed);
  const std::vector<std::string> names = {"a", "b", "c"};
  std::vector<PathPattern> out;
  for (size_t i = 0; i < count; ++i) {
    PathPattern p;
    const int64_t length = rng.Uniform(1, 4);
    for (int64_t k = 0; k < length; ++k) {
      Step step;
      step.axis = rng.Bernoulli(0.3) ? Axis::kDescendant : Axis::kChild;
      step.is_attribute = k + 1 == length && rng.Bernoulli(0.2);
      step.wildcard = rng.Bernoulli(0.3);
      if (!step.wildcard) step.name = rng.Choice(names);
      p.Add(step);
    }
    out.push_back(std::move(p));
  }
  return out;
}

TEST(InternedContainmentTest, IdKeyedLookupsMatchUncachedContainment) {
  const std::vector<PathPattern> universe = RandomUniverse(7, 80);
  ContainmentCache cache;
  std::vector<PatternId> ids;
  for (const PathPattern& p : universe) ids.push_back(cache.Intern(p));
  // Ids are dense, and equal patterns (only they) share one.
  std::set<PatternId> distinct(ids.begin(), ids.end());
  ASSERT_FALSE(distinct.empty());
  EXPECT_EQ(*distinct.rbegin() + 1, distinct.size());
  for (size_t i = 0; i < universe.size(); ++i) {
    for (size_t j = 0; j < universe.size(); ++j) {
      EXPECT_EQ(ids[i] == ids[j], universe[i] == universe[j]);
      const bool expected = PatternContains(universe[i], universe[j]);
      EXPECT_EQ(cache.Contains(ids[i], ids[j]), expected)
          << universe[i].ToString() << " ⊇ " << universe[j].ToString();
      EXPECT_EQ(cache.Contains(universe[i], universe[j]), expected);
    }
  }
  EXPECT_EQ(cache.stats().entries, distinct.size() * distinct.size());
}

TEST(InternedContainmentTest, StaleWildcardNameSharesId) {
  // A wildcard step keeps whatever name it had when edited through
  // mutable_steps(); operator== and Hash() ignore it, and so does Intern.
  PathPattern clean = P("/a/*/c");
  PathPattern stale = P("/a/b/c");
  stale.mutable_steps()[1].wildcard = true;
  ASSERT_EQ(stale.steps()[1].name, "b");
  ASSERT_EQ(stale, clean);
  ASSERT_EQ(stale.Hash(), clean.Hash());
  ContainmentCache cache;
  const PatternId id = cache.Intern(stale);
  EXPECT_EQ(cache.Intern(clean), id);
  const PatternId specific = cache.Intern(P("/a/x/c"));
  EXPECT_TRUE(cache.Contains(id, specific));
  EXPECT_TRUE(cache.Contains(clean, P("/a/x/c")));
  EXPECT_TRUE(cache.Contains(stale, P("/a/y/c")));
  EXPECT_EQ(cache.stats().entries, 2u);  // (id, /a/x/c), (id, /a/y/c).
}

TEST(InternedContainmentTest, ConcurrentInternAndLookupAgree) {
  const std::vector<PathPattern> universe = RandomUniverse(11, 40);
  std::set<std::string> distinct;
  for (const PathPattern& p : universe) distinct.insert(p.ToString());
  ContainmentCache cache;
  constexpr int kThreads = 4;
  std::vector<std::vector<PatternId>> ids(kThreads);
  std::vector<std::vector<bool>> answers(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the universe from a different offset, so the
      // threads race to intern and to decide different pairs first.
      const size_t n = universe.size();
      ids[t].resize(n);
      for (size_t k = 0; k < n; ++k) {
        const size_t i = (k + static_cast<size_t>(t) * n / kThreads) % n;
        ids[t][i] = cache.Intern(universe[i]);
      }
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          answers[t].push_back(cache.Contains(ids[t][i], ids[t][j]));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
    EXPECT_EQ(answers[t], answers[0]);
  }
  for (size_t i = 0; i < universe.size(); ++i) {
    for (size_t j = 0; j < universe.size(); ++j) {
      EXPECT_EQ(answers[0][i * universe.size() + j],
                PatternContains(universe[i], universe[j]));
    }
  }
  const ContainmentCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, distinct.size() * distinct.size());
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * universe.size() *
                universe.size());
}

// ----------------------------------------- Property sweep over a universe.

class ContainmentPropertyTest
    : public ::testing::TestWithParam<const char*> {};

const char* kUniverse[] = {
    "/a/b/c",  "/a/*/c",   "/a/b/*", "//c",     "//*",
    "/a//c",   "//b/c",    "/a/b",   "/a/@id",  "//@*",
    "//a//c",  "/a/*/*",   "//b//c", "/c",      "//a/*/c",
};

TEST_P(ContainmentPropertyTest, Reflexive) {
  PathPattern p = P(GetParam());
  EXPECT_TRUE(PatternContains(p, p));
  EXPECT_TRUE(PatternsIntersect(p, p));
}

TEST_P(ContainmentPropertyTest, UniversalContainsElementsPatterns) {
  PathPattern p = P(GetParam());
  bool is_attr = p.EndsWithAttribute();
  if (is_attr) {
    EXPECT_TRUE(PatternContains(PathPattern::AllAttributes(), p));
  } else {
    EXPECT_TRUE(PatternContains(PathPattern::AllElements(), p));
  }
}

TEST_P(ContainmentPropertyTest, ContainmentImpliesIntersection) {
  PathPattern p = P(GetParam());
  for (const char* other_text : kUniverse) {
    PathPattern other = P(other_text);
    if (PatternContains(p, other)) {
      EXPECT_TRUE(PatternsIntersect(p, other))
          << p.ToString() << " contains " << other.ToString();
    }
  }
}

TEST_P(ContainmentPropertyTest, Transitive) {
  PathPattern a = P(GetParam());
  for (const char* b_text : kUniverse) {
    PathPattern b = P(b_text);
    if (!PatternContains(a, b)) continue;
    for (const char* c_text : kUniverse) {
      PathPattern c = P(c_text);
      if (PatternContains(b, c)) {
        EXPECT_TRUE(PatternContains(a, c))
            << a.ToString() << " ⊇ " << b.ToString() << " ⊇ "
            << c.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Universe, ContainmentPropertyTest,
                         ::testing::ValuesIn(kUniverse));

}  // namespace
}  // namespace xia
