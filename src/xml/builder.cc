#include "xml/builder.h"

#include <utility>

#include "common/logging.h"

namespace xia {

DocumentBuilder::DocumentBuilder(NameTable* names) : names_(names) {
  XIA_CHECK(names_ != nullptr);
}

NodeIndex DocumentBuilder::Append(XmlNode node) {
  NodeIndex idx = static_cast<NodeIndex>(doc_.nodes_.size());
  if (!stack_.empty()) {
    NodeIndex parent = stack_.back();
    node.parent = parent;
    node.level = static_cast<uint16_t>(doc_.nodes_[static_cast<size_t>(parent)].level + 1);
    NodeIndex prev = last_child_.back();
    if (prev == kNullNode) {
      doc_.nodes_[static_cast<size_t>(parent)].first_child = idx;
    } else {
      doc_.nodes_[static_cast<size_t>(prev)].next_sibling = idx;
    }
    last_child_.back() = idx;
  } else {
    node.parent = kNullNode;
    node.level = 0;
  }
  node.begin = next_begin_++;
  node.end = node.begin;
  doc_.nodes_.push_back(std::move(node));
  return idx;
}

void DocumentBuilder::StartElement(std::string_view name) {
  XmlNode node;
  node.kind = NodeKind::kElement;
  node.name = names_->Intern(name);
  NodeIndex idx = Append(std::move(node));
  stack_.push_back(idx);
  last_child_.push_back(kNullNode);
}

void DocumentBuilder::AddAttribute(std::string_view name,
                                   std::string_view value) {
  XIA_CHECK(!stack_.empty());
  XmlNode node;
  node.kind = NodeKind::kAttribute;
  node.name = names_->Intern(name);
  node.value = std::string(value);
  Append(std::move(node));
}

void DocumentBuilder::AddText(std::string_view text) {
  XIA_CHECK(!stack_.empty());
  XmlNode node;
  node.kind = NodeKind::kText;
  node.value = std::string(text);
  Append(std::move(node));
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
  out.SealByteSize();
  doc_ = Document();
  next_begin_ = 0;
  return out;
}

}  // namespace xia
