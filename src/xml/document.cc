#include "xml/document.h"

namespace xia {

namespace {

/// True when `link` is kNullNode or a node after `i` in the array (child
/// and sibling links only ever point forward in document order).
bool ForwardLink(NodeIndex link, size_t i, size_t count) {
  return link == kNullNode || (link > static_cast<NodeIndex>(i) &&
                               static_cast<size_t>(link) < count);
}

}  // namespace

Result<Document> Document::FromNodes(std::vector<XmlNode> nodes) {
  const size_t count = nodes.size();
  auto broken = [](size_t i, const std::string& what) {
    return Status::InvalidArgument("node " + std::to_string(i) + ": " + what);
  };
  for (size_t i = 0; i < count; ++i) {
    const XmlNode& n = nodes[i];
    if (n.begin != i) {
      return broken(i, "region begin " + std::to_string(n.begin) +
                           " is not the node's index");
    }
    if (n.end < n.begin || n.end >= count) {
      return broken(i, "region end " + std::to_string(n.end) +
                           " out of range");
    }
    bool parent_ok = i == 0 ? n.parent == kNullNode
                            : n.parent >= 0 &&
                                  static_cast<size_t>(n.parent) < i;
    if (!parent_ok) {
      return broken(i, "parent " + std::to_string(n.parent) +
                           " out of range");
    }
    if (!ForwardLink(n.first_child, i, count)) {
      return broken(i, "first_child " + std::to_string(n.first_child) +
                           " out of range");
    }
    if (!ForwardLink(n.next_sibling, i, count)) {
      return broken(i, "next_sibling " + std::to_string(n.next_sibling) +
                           " out of range");
    }
  }
  Document doc;
  doc.nodes_ = std::move(nodes);
  doc.SealByteSize();
  return doc;
}

void Document::RemapNames(const std::vector<NameId>& ids) {
  for (XmlNode& n : nodes_) {
    if (n.name != kNoName) n.name = ids[static_cast<size_t>(n.name)];
  }
}

void Document::SealByteSize() {
  byte_size_ = 0;
  for (const XmlNode& n : nodes_) {
    byte_size_ += sizeof(XmlNode) + n.value.size();
  }
}

std::string Document::TextValue(NodeIndex i) const {
  const XmlNode& n = node(i);
  if (n.kind != NodeKind::kElement) return n.value;
  std::string out;
  for (NodeIndex c = n.first_child; c != kNullNode;
       c = node(c).next_sibling) {
    if (node(c).kind == NodeKind::kText) out += node(c).value;
  }
  return out;
}

}  // namespace xia
