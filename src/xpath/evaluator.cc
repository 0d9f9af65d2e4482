#include "xpath/evaluator.h"

#include <algorithm>

namespace xia {

namespace {

/// A step's node test with its name resolved to an interned id once per
/// step application, so testing a node is an integer compare instead of a
/// string compare.
struct NodeTest {
  bool is_attribute = false;
  bool wildcard = false;
  NameId name = kNoName;  // kNoName when never interned: matches nothing.

  NodeTest(const Step& step, const NameTable& names)
      : is_attribute(step.is_attribute),
        wildcard(step.wildcard),
        name(step.wildcard ? kNoName : names.Lookup(step.name)) {}

  bool Satisfiable() const { return wildcard || name != kNoName; }

  bool Accepts(const XmlNode& node) const {
    if (node.kind == NodeKind::kText) return false;
    if (is_attribute != (node.kind == NodeKind::kAttribute)) return false;
    return wildcard || node.name == name;
  }
};

/// Appends the accepted nodes among indexes [first, last]. Node index ==
/// region begin, so a subtree is one contiguous index range.
void ScanRegion(const Document& doc, size_t first, size_t last,
                const NodeTest& test, std::vector<NodeIndex>* out) {
  const std::vector<XmlNode>& nodes = doc.nodes();
  for (size_t i = first; i <= last; ++i) {
    if (test.Accepts(nodes[i])) out->push_back(static_cast<NodeIndex>(i));
  }
}

/// Applies one step to a document-ordered, duplicate-free node set and
/// returns one in the same form. `from_document_node` distinguishes the
/// first step (whose context is the virtual document node above the root).
std::vector<NodeIndex> ApplyStep(const Document& doc, const NameTable& names,
                                 const std::vector<NodeIndex>& context,
                                 const Step& step, bool from_document_node) {
  std::vector<NodeIndex> out;
  NodeTest test(step, names);
  if (doc.empty() || !test.Satisfiable()) return out;
  if (from_document_node) {
    NodeIndex root = doc.root();
    if (step.axis == Axis::kChild) {
      if (test.Accepts(doc.node(root))) out.push_back(root);
    } else {
      ScanRegion(doc, 0, doc.node(root).end, test, &out);
    }
    return out;
  }
  // Descendant steps: a context inside the region already scanned adds
  // nothing new, so each region is scanned once and `out` stays sorted.
  bool scanned = false;
  uint32_t scanned_end = 0;
  for (NodeIndex n : context) {
    const XmlNode& ctx = doc.node(n);
    if (ctx.kind != NodeKind::kElement) continue;
    if (step.axis == Axis::kChild) {
      for (NodeIndex c = ctx.first_child; c != kNullNode;
           c = doc.node(c).next_sibling) {
        if (test.Accepts(doc.node(c))) out.push_back(c);
      }
    } else if (!scanned || ctx.begin > scanned_end) {
      ScanRegion(doc, ctx.begin + 1, ctx.end, test, &out);
      scanned = true;
      scanned_end = ctx.end;
    }
  }
  // Children of nested contexts interleave in document order.
  if (!std::is_sorted(out.begin(), out.end())) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

/// Evaluates `pattern` step by step, filtering the node set after step i
/// by the predicates attached to it.
std::vector<NodeIndex> EvaluateSteps(
    const Document& doc, const NameTable& names, const PathPattern& pattern,
    const std::vector<PathPredicate>& predicates) {
  std::vector<NodeIndex> context;
  for (size_t i = 0; i < pattern.steps().size(); ++i) {
    context = ApplyStep(doc, names, context, pattern.steps()[i],
                        /*from_document_node=*/i == 0);
    if (context.empty()) return context;
    for (const PathPredicate& pred : predicates) {
      if (pred.step_index != i) continue;
      std::vector<NodeIndex> filtered;
      for (NodeIndex n : context) {
        if (NodeSatisfiesPredicate(doc, names, n, pred)) {
          filtered.push_back(n);
        }
      }
      context = std::move(filtered);
      if (context.empty()) return context;
    }
  }
  return context;
}

}  // namespace

std::vector<NodeIndex> EvaluatePattern(const Document& doc,
                                       const NameTable& names,
                                       const PathPattern& pattern) {
  return EvaluateSteps(doc, names, pattern, {});
}

std::vector<NodeIndex> EvaluateParsedPath(const Document& doc,
                                          const NameTable& names,
                                          const ParsedPath& path) {
  return EvaluateSteps(doc, names, path.pattern, path.predicates);
}

std::vector<NodeIndex> EvaluateRelative(const Document& doc,
                                        const NameTable& names,
                                        NodeIndex context,
                                        const PathPattern& rel) {
  std::vector<NodeIndex> nodes = {context};
  for (const Step& step : rel.steps()) {
    nodes = ApplyStep(doc, names, nodes, step, /*from_document_node=*/false);
    if (nodes.empty()) break;
  }
  return nodes;
}

bool NodeSatisfiesPredicate(const Document& doc, const NameTable& names,
                            NodeIndex node, const PathPredicate& pred) {
  std::vector<NodeIndex> targets =
      EvaluateRelative(doc, names, node, pred.rel);
  if (pred.op == CompareOp::kExists) return !targets.empty();
  for (NodeIndex t : targets) {
    if (CompareValues(pred.op, doc.TextValue(t), pred.literal)) return true;
  }
  return false;
}

}  // namespace xia
