#ifndef XIA_XML_PARSER_H_
#define XIA_XML_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "xml/document.h"
#include "xml/name_table.h"

namespace xia {

/// Parses an XML 1.0 subset sufficient for the benchmark documents and for
/// user-supplied test documents: elements, attributes, character data, the
/// five predefined entities, comments, CDATA sections, processing
/// instructions and an XML declaration (the latter three are skipped).
/// Namespaces are not expanded; prefixed names are kept verbatim.
class XmlParser {
 public:
  explicit XmlParser(NameTable* names) : names_(names) {}

  /// Parses one document from `input`. Trailing whitespace is allowed;
  /// any other trailing content is an error. Names are interned into the
  /// parser's table as they are read, so a parse that fails part-way
  /// leaves the names it reached interned: parse against a private
  /// table when that table must not change on failure. Every call counts
  /// one `xml.parse.documents`.
  Result<Document> Parse(std::string_view input);

 private:
  NameTable* names_;
};

}  // namespace xia

#endif  // XIA_XML_PARSER_H_
