#include "exec/operators.h"

#include <algorithm>

#include "xpath/evaluator.h"
#include "xpath/nfa.h"

namespace xia {

bool VerifyNodePath(const Document& doc, const NameTable& names,
                    NodeIndex node, const PathPattern& pattern) {
  PatternNfa nfa(pattern);
  return VerifyNodePathNfa(doc, names, node, nfa);
}

bool VerifyNodePathNfa(const Document& doc, const NameTable& names,
                       NodeIndex node, const PatternNfa& nfa) {
  // Collect the label word from root to node.
  std::vector<PatternSymbol> word;
  for (NodeIndex cur = node; cur != kNullNode; cur = doc.node(cur).parent) {
    const XmlNode& n = doc.node(cur);
    if (n.kind == NodeKind::kText) return false;
    PatternSymbol sym;
    sym.is_attr = n.kind == NodeKind::kAttribute;
    sym.name = n.name == kNoName ? "" : names.NameOf(n.name);
    word.push_back(sym);
  }
  std::reverse(word.begin(), word.end());
  return nfa.MatchesWord(word);
}

bool DocSatisfiesPredicate(const Document& doc, const NameTable& names,
                           const QueryPredicate& pred) {
  for (NodeIndex n : EvaluatePattern(doc, names, pred.pattern)) {
    if (pred.op == CompareOp::kExists) return true;
    if (CompareValues(pred.op, doc.TextValue(n), pred.literal)) return true;
  }
  return false;
}

std::vector<NodeRef> ProbeIndexForPredicate(const PathIndex& index,
                                            const NormalizedQuery& query,
                                            MatchUse use,
                                            int served_predicate) {
  if (use == MatchUse::kStructural || served_predicate < 0) {
    return index.AllNodes();
  }
  const QueryPredicate& pred =
      query.predicates[static_cast<size_t>(served_predicate)];
  std::optional<TypedValue> key =
      TypedValue::Make(index.def().type, pred.literal);
  if (!key.has_value()) return {};  // Literal not castable: empty probe.
  switch (pred.op) {
    case CompareOp::kEq:
      return index.LookupEq(*key);
    case CompareOp::kLt:
      return index.LookupRange(std::nullopt, false, key, false);
    case CompareOp::kLe:
      return index.LookupRange(std::nullopt, false, key, true);
    case CompareOp::kGt:
      return index.LookupRange(key, false, std::nullopt, false);
    case CompareOp::kGe:
      return index.LookupRange(key, true, std::nullopt, false);
    default:
      return index.AllNodes();
  }
}

}  // namespace xia
