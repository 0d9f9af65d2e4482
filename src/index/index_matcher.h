#ifndef XIA_INDEX_INDEX_MATCHER_H_
#define XIA_INDEX_INDEX_MATCHER_H_

#include <string>
#include <vector>

#include "index/catalog.h"
#include "query/query.h"
#include "xpath/containment.h"

namespace xia {

/// How a matched index can be used for a query pattern.
enum class MatchUse {
  kSargableEq,     // Equality probe on the key.
  kSargableRange,  // Range scan on the key.
  kStructural,     // Fetch all indexed nodes; value predicate re-checked.
};

const char* MatchUseName(MatchUse use);

/// One (index, query pattern) match produced by index matching.
struct IndexMatch {
  const CatalogEntry* entry = nullptr;
  /// Which normalized-query predicate this match serves; -1 means it serves
  /// the driving FOR path structurally.
  int predicate_index = -1;
  MatchUse use = MatchUse::kStructural;
  /// True when the index pattern is *equivalent* to the query pattern, so
  /// fetched nodes need no structural re-verification. A strictly more
  /// general index (e.g. //quantity answering /site/.../quantity) requires
  /// verifying each fetched node's root path.
  bool exact = false;

  std::string ToString() const;
};

/// A normalized query's patterns interned in one ContainmentCache.
struct QueryPatternIds {
  std::vector<PatternId> predicates;  // Aligned with query.predicates.
  PatternId for_path = 0;
};

/// Index matching: decides which catalog indexes can serve which patterns
/// of a normalized query. The core rule is containment — an index whose
/// pattern contains the query pattern reaches a superset of the needed
/// nodes. Type compatibility gates sargable use; VARCHAR completeness
/// gates structural use (DOUBLE indexes silently drop non-numeric values,
/// so they can never prove existence).
///
/// The paper's Enumerate Indexes mode is this matcher run against a
/// catalog overlay holding only the universal virtual indexes //* and
/// //@* — whatever patterns match are the query's basic candidates.
class IndexMatcher {
 public:
  /// `cache` may be shared across queries; must outlive the matcher.
  explicit IndexMatcher(ContainmentCache* cache) : cache_(cache) {}

  std::vector<IndexMatch> Match(
      const NormalizedQuery& query,
      const std::vector<const CatalogEntry*>& indexes);

  /// Interns `query`'s predicate and FOR-path patterns in the cache.
  QueryPatternIds Intern(const NormalizedQuery& query);

  /// True iff an index with definition `def` would produce at least one
  /// match for `query` — i.e. its presence in a catalog can influence the
  /// optimizer's plan at all. This is the relevance predicate behind the
  /// what-if cost-cache keys (optimizer/cost_cache.h). It runs Match's
  /// own per-index core, so it can never drift from the matching
  /// semantics above. `ids` is Intern(query) and `pattern` the cache's
  /// id of def.pattern, so a caller testing one fixed pattern set over
  /// and over interns it once.
  bool CanServe(const NormalizedQuery& query, const QueryPatternIds& ids,
                const IndexDefinition& def, PatternId pattern);

 private:
  /// The matching core: appends to `out` the matches of one index
  /// (definition `def`, pattern interned as `pattern`, reported as
  /// `entry`) for `query`, whose patterns are interned as `ids`.
  void MatchIndex(const NormalizedQuery& query, const QueryPatternIds& ids,
                  const IndexDefinition& def, PatternId pattern,
                  const CatalogEntry* entry, std::vector<IndexMatch>* out);

  ContainmentCache* cache_;
};

}  // namespace xia

#endif  // XIA_INDEX_INDEX_MATCHER_H_
