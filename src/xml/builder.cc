#include "xml/builder.h"

#include <utility>

#include "common/logging.h"

namespace xia {

DocumentBuilder::DocumentBuilder(NameTable* names) : names_(names) {
  XIA_CHECK(names_ != nullptr);
}

void DocumentBuilder::Reserve(size_t nodes) { doc_.nodes_.reserve(nodes); }

XmlNode& DocumentBuilder::Append(NodeKind kind, NameId name) {
  const NodeIndex idx = static_cast<NodeIndex>(doc_.nodes_.size());
  XmlNode& node = doc_.nodes_.emplace_back();
  node.kind = kind;
  node.name = name;
  if (!stack_.empty()) {
    const NodeIndex parent = stack_.back();
    XmlNode& parent_node = doc_.nodes_[static_cast<size_t>(parent)];
    node.parent = parent;
    node.level = static_cast<uint16_t>(parent_node.level + 1);
    NodeIndex& prev = last_child_.back();
    if (prev == kNullNode) {
      parent_node.first_child = idx;
    } else {
      doc_.nodes_[static_cast<size_t>(prev)].next_sibling = idx;
    }
    prev = idx;
  }
  node.begin = next_begin_++;
  node.end = node.begin;
  return node;
}

void DocumentBuilder::StartElement(std::string_view name) {
  const NodeIndex idx = static_cast<NodeIndex>(doc_.nodes_.size());
  Append(NodeKind::kElement, names_->Intern(name));
  stack_.push_back(idx);
  last_child_.push_back(kNullNode);
}

void DocumentBuilder::AddAttribute(std::string_view name,
                                   std::string_view value) {
  XIA_CHECK(!stack_.empty());
  Append(NodeKind::kAttribute, names_->Intern(name)).value.assign(value);
}

void DocumentBuilder::AddText(std::string_view text) {
  XIA_CHECK(!stack_.empty());
  Append(NodeKind::kText, kNoName).value.assign(text);
}

void DocumentBuilder::EndElement() {
  XIA_CHECK(!stack_.empty());
  NodeIndex idx = stack_.back();
  stack_.pop_back();
  last_child_.pop_back();
  // Subtree is complete: end = largest begin assigned so far.
  doc_.nodes_[static_cast<size_t>(idx)].end = next_begin_ - 1;
}

Result<Document> DocumentBuilder::Finish() {
  if (!stack_.empty()) {
    return Status::InvalidArgument("Finish() with unclosed elements");
  }
  if (doc_.nodes_.empty()) {
    return Status::InvalidArgument("Finish() on empty document");
  }
  Document out = std::move(doc_);
  // Growth by doubling leaves at most twice the nodes; keep no more than
  // that of a reservation that overshot.
  if (out.nodes_.capacity() > 2 * out.nodes_.size()) {
    out.nodes_.shrink_to_fit();
  }
  out.SealByteSize();
  doc_ = Document();
  next_begin_ = 0;
  return out;
}

}  // namespace xia
