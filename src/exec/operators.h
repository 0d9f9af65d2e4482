#ifndef XIA_EXEC_OPERATORS_H_
#define XIA_EXEC_OPERATORS_H_

#include <vector>

#include "index/index_matcher.h"
#include "index/path_index.h"
#include "query/query.h"
#include "storage/database.h"
#include "xpath/nfa.h"

namespace xia {

/// Structural verification: true iff `node`'s root-to-node label path is
/// matched by `pattern`. Used after probing an index whose pattern is
/// strictly more general than the query pattern (the `+verify` plans).
bool VerifyNodePath(const Document& doc, const NameTable& names,
                    NodeIndex node, const PathPattern& pattern);

/// Same check against a pre-built NFA — build the NFA once per probe and
/// use this in per-entry verification loops.
bool VerifyNodePathNfa(const Document& doc, const NameTable& names,
                       NodeIndex node, const PatternNfa& nfa);

/// Document-level predicate check: some node reached by `pred.pattern`
/// in `doc` satisfies the comparison.
bool DocSatisfiesPredicate(const Document& doc, const NameTable& names,
                           const QueryPredicate& pred);

/// Executes one probe (sargable or structural) against a physical index:
/// `served_predicate` selects the query predicate driving the probe; -1 or
/// structural `use` fetches all indexed nodes.
std::vector<NodeRef> ProbeIndexForPredicate(const PathIndex& index,
                                            const NormalizedQuery& query,
                                            MatchUse use,
                                            int served_predicate);

}  // namespace xia

#endif  // XIA_EXEC_OPERATORS_H_
