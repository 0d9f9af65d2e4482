#ifndef XIA_XML_NODE_H_
#define XIA_XML_NODE_H_

#include <cstdint>
#include <string>

#include "xml/name_table.h"

namespace xia {

/// Kind of a stored XML node.
enum class NodeKind : uint8_t {
  kElement = 0,
  kAttribute = 1,
  kText = 2,
};

/// Index of a node within its document's node array; -1 means "none".
using NodeIndex = int32_t;
inline constexpr NodeIndex kNullNode = -1;

/// One XML node in flattened document-order storage.
///
/// Region encoding: every node carries (begin, end, level) where `begin` is
/// its document-order position, `end` is the largest `begin` in its subtree,
/// and `level` is its depth (root = 0). Node a is an ancestor of b iff
/// a.begin < b.begin && b.end <= a.end. This is the standard interval scheme
/// native XML stores (including DB2's) use to answer structural predicates,
/// and what our structural-verification operator relies on.
struct XmlNode {
  NodeKind kind = NodeKind::kElement;
  NameId name = kNoName;       // Element/attribute name; kNoName for text.
  NodeIndex parent = kNullNode;
  NodeIndex first_child = kNullNode;   // First child (attributes first).
  NodeIndex next_sibling = kNullNode;
  uint32_t begin = 0;
  uint32_t end = 0;
  uint16_t level = 0;
  std::string value;  // Text content / attribute value; empty for elements.

  bool IsAncestorOf(const XmlNode& other) const {
    return begin < other.begin && other.end <= end;
  }
};

}  // namespace xia

#endif  // XIA_XML_NODE_H_
