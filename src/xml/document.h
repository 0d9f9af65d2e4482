#ifndef XIA_XML_DOCUMENT_H_
#define XIA_XML_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "xml/node.h"

namespace xia {

/// Identifier of a document within a collection.
using DocId = int32_t;

/// One XML document stored as a flat, document-ordered node array.
/// Documents are built by DocumentBuilder (programmatic) or XmlParser
/// (from text); both assign region encodings at construction time.
///
/// Invariants the read path relies on (checked by FromNodes): node i has
/// region begin == i, so a subtree is the contiguous index range
/// [i, node(i).end]; and the byte size is fixed when the document is
/// built — nodes cannot be edited afterwards.
class Document {
 public:
  Document() = default;

  Document(Document&&) = default;
  Document& operator=(Document&&) = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  /// Rebuilds a document from an already-flattened node array (the
  /// persistent checkpoint loader, storage/storage_engine.cc). The nodes
  /// are stored verbatim, which is what makes a reloaded document
  /// bit-identical to the original. Fails with InvalidArgument when the
  /// array breaks the region encoding: node i must have begin == i and
  /// begin <= end < num_nodes; parent < i (-1 only for the root); and
  /// first_child / next_sibling are -1 or point forward within the array.
  static Result<Document> FromNodes(std::vector<XmlNode> nodes);

  /// Moves the document onto another name table: each node's name id `n`
  /// becomes `ids[n]` (text nodes keep kNoName), in one pass. `ids` is
  /// what NameTable::Adopt returned for the table the document was built
  /// against. The byte size does not depend on names and is kept.
  void RemapNames(const std::vector<NameId>& ids);

  /// Document id within its collection; set when added to a Collection.
  DocId id() const { return id_; }
  void set_id(DocId id) { id_ = id; }

  bool empty() const { return nodes_.empty(); }
  size_t num_nodes() const { return nodes_.size(); }

  const XmlNode& node(NodeIndex i) const { return nodes_[static_cast<size_t>(i)]; }
  const std::vector<XmlNode>& nodes() const { return nodes_; }

  /// Root element index (0 for non-empty documents).
  NodeIndex root() const { return nodes_.empty() ? kNullNode : 0; }

  /// Concatenated text of the direct text children of `i` (the node's
  /// "typed value" for indexing); for attributes and text nodes, the stored
  /// value itself.
  std::string TextValue(NodeIndex i) const;

  /// Approximate in-memory/storage footprint in bytes (sizeof(XmlNode)
  /// plus the value length, summed over nodes), used by the cost model
  /// and the executor's page accounting. Computed once at construction.
  size_t ByteSize() const { return byte_size_; }

 private:
  friend class DocumentBuilder;

  /// Sums the per-node footprint into byte_size_.
  void SealByteSize();

  DocId id_ = -1;
  std::vector<XmlNode> nodes_;
  size_t byte_size_ = 0;
};

}  // namespace xia

#endif  // XIA_XML_DOCUMENT_H_
