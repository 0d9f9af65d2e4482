#ifndef XIA_XML_BUILDER_H_
#define XIA_XML_BUILDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/document.h"
#include "xml/name_table.h"

namespace xia {

/// Streaming builder for documents: StartElement / AddAttribute / AddText /
/// EndElement. Assigns region encodings (begin, end, level) as the tree is
/// produced. Used by both the programmatic data generators and the parser.
class DocumentBuilder {
 public:
  /// `names` must outlive the builder. Interned ids are shared across all
  /// documents built against the same table.
  explicit DocumentBuilder(NameTable* names);

  DocumentBuilder(const DocumentBuilder&) = delete;
  DocumentBuilder& operator=(const DocumentBuilder&) = delete;

  /// Reserves room for `nodes` nodes in the document under construction,
  /// so a caller that can bound its size fills the array without
  /// regrowing it (the parser sizes it once from its input). An
  /// overestimate is not kept: Finish() trims the array to its nodes when
  /// it holds more than twice as many slots.
  void Reserve(size_t nodes);

  /// Opens a child element of the current element (or the root).
  void StartElement(std::string_view name);

  /// Adds an attribute to the most recently opened element. Must be called
  /// before any child element or text is added to it.
  void AddAttribute(std::string_view name, std::string_view value);

  /// Adds a text node under the current element.
  void AddText(std::string_view text);

  /// Closes the current element.
  void EndElement();

  /// Finishes the document. Fails if elements remain open or nothing was
  /// built. The builder can then be reused for another document.
  Result<Document> Finish();

 private:
  NameTable* names_;
  Document doc_;
  std::vector<NodeIndex> stack_;  // Open elements.
  std::vector<NodeIndex> last_child_;  // Last child appended per open elem.
  uint32_t next_begin_ = 0;

  /// Constructs the next node in place, linked under the current element
  /// (or as the root), and returns it for its value to be filled in.
  XmlNode& Append(NodeKind kind, NameId name);
};

}  // namespace xia

#endif  // XIA_XML_BUILDER_H_
