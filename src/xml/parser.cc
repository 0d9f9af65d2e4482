#include "xml/parser.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "xml/builder.h"

namespace xia {

namespace {

obs::Counter& ParseCounter() {
  static obs::Counter& counter =
      obs::Registry().GetCounter("xml.parse.documents");
  return counter;
}

// Character classes of the "C" locale, the only one the accepted subset
// knows (names are ASCII). Inlined here: <cctype>'s out-of-line lookups
// made BM_XmlParse about 1.4x slower (x86-64, GCC 12, -O3).
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsNameStart(char c) { return IsAlpha(c) || c == '_' || c == ':'; }
bool IsNameChar(char c) {
  return IsAlpha(c) || (c >= '0' && c <= '9') || c == '_' || c == ':' ||
         c == '-' || c == '.';
}

/// Internal cursor-based scanner; reports errors with byte offsets.
///
/// Names, attribute values and text reach the builder as views into the
/// input; only a run holding an entity reference, or text split by a
/// comment, PI or CDATA section, is assembled in a buffer first. Open
/// elements live on an explicit stack, so nesting depth costs heap, not
/// call stack, and is capped at XmlParser::kMaxDepth.
class Scanner {
 public:
  Scanner(std::string_view input, NameTable* names)
      : input_(input), builder_(names) {
    // A '<' per element start and end tag and a '=' per attribute bound
    // the nodes of a document without mixed content, so the array
    // usually fills without regrowing; Finish() gives back any excess.
    builder_.Reserve(
        static_cast<size_t>(std::count(input.begin(), input.end(), '<') +
                            std::count(input.begin(), input.end(), '=')));
  }

  Result<Document> Run() {
    SkipProlog();
    XIA_RETURN_IF_ERROR(ParseRootElement());
    SkipMisc();
    if (pos_ != input_.size()) {
      return Error("trailing content after root element");
    }
    return builder_.Finish();
  }

 private:
  std::string_view input_;
  size_t pos_ = 0;
  DocumentBuilder builder_;
  std::vector<std::string_view> open_;  // Open elements' names.
  // The innermost open element's text since its last child: a view of
  // one undecoded run, or (text_in_buf_) assembled in text_buf_.
  std::string_view text_;
  bool text_in_buf_ = false;
  std::string text_buf_;
  std::string value_buf_;  // A decoded attribute value.

  Status Error(const std::string& what) const {
    return Status::ParseError("XML parse error at offset " +
                              std::to_string(pos_) + ": " + what);
  }

  bool Eof() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Match(std::string_view token) {
    if (input_.substr(pos_).starts_with(token)) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void SkipWhitespace() {
    while (!Eof() && IsSpace(Peek())) ++pos_;
  }

  /// Skips XML declaration, comments, PIs, and DOCTYPE before the root.
  void SkipProlog() {
    while (true) {
      SkipWhitespace();
      if (Match("<?")) {
        SkipUntil("?>");
      } else if (Match("<!--")) {
        SkipUntil("-->");
      } else if (Match("<!DOCTYPE")) {
        SkipUntil(">");
      } else {
        return;
      }
    }
  }

  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (Match("<!--")) {
        SkipUntil("-->");
      } else if (Match("<?")) {
        SkipUntil("?>");
      } else {
        return;
      }
    }
  }

  void SkipUntil(std::string_view token) {
    size_t found = input_.find(token, pos_);
    pos_ = (found == std::string_view::npos) ? input_.size()
                                             : found + token.size();
  }

  /// Reads a name at the cursor into `*name`; false if none starts here.
  bool ReadName(std::string_view* name) {
    if (Eof() || !IsNameStart(Peek())) return false;
    size_t start = pos_;
    ++pos_;
    while (!Eof() && IsNameChar(Peek())) ++pos_;
    *name = input_.substr(start, pos_ - start);
    return true;
  }

  /// Appends `raw` to `*out`, decoding the five predefined entities plus
  /// numeric character references.
  Status DecodeInto(std::string_view raw, std::string* out) const {
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        size_t amp = raw.find('&', i);
        if (amp == std::string_view::npos) amp = raw.size();
        out->append(raw.substr(i, amp - i));
        i = amp;
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "lt") {
        out->push_back('<');
      } else if (ent == "gt") {
        out->push_back('>');
      } else if (ent == "amp") {
        out->push_back('&');
      } else if (ent == "quot") {
        out->push_back('"');
      } else if (ent == "apos") {
        out->push_back('\'');
      } else if (!ent.empty() && ent[0] == '#') {
        int base = 10;
        std::string_view digits = ent.substr(1);
        if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
          base = 16;
          digits = digits.substr(1);
        }
        // Saturates past the largest code point, so any longer run of
        // digits reads as out of range.
        long code = 0;
        for (char c : digits) {
          int d;
          if (c >= '0' && c <= '9') {
            d = c - '0';
          } else if (base == 16 && c >= 'a' && c <= 'f') {
            d = c - 'a' + 10;
          } else if (base == 16 && c >= 'A' && c <= 'F') {
            d = c - 'A' + 10;
          } else {
            return Error("bad character reference");
          }
          if (code <= 0x10FFFF) code = code * base + d;
        }
        if (code <= 0 || code > 0x10FFFF) {
          return Error("character reference out of range");
        }
        // Encode as UTF-8.
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xF0 | (code >> 18)));
          out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
      } else {
        return Error("unknown entity &" + std::string(ent) + ";");
      }
      i = semi + 1;
    }
    return Status::Ok();
  }

  Status ParseAttributes() {
    while (true) {
      SkipWhitespace();
      if (Eof()) return Error("unexpected end in tag");
      if (Peek() == '>' || Peek() == '/') return Status::Ok();
      std::string_view name;
      if (!ReadName(&name)) return Error("expected name");
      SkipWhitespace();
      if (!Match("=")) return Error("expected '=' after attribute name");
      SkipWhitespace();
      if (Eof() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      const char quote = Peek();
      ++pos_;
      const size_t start = pos_;
      const size_t close = input_.find(quote, pos_);
      if (close == std::string_view::npos) {
        pos_ = input_.size();
        return Error("unterminated attribute value");
      }
      pos_ = close;
      std::string_view value = input_.substr(start, close - start);
      if (value.find('&') != std::string_view::npos) {
        value_buf_.clear();
        XIA_RETURN_IF_ERROR(DecodeInto(value, &value_buf_));
        value = value_buf_;
      }
      ++pos_;  // Closing quote.
      builder_.AddAttribute(name, value);
    }
  }

  /// Adds one run to the pending text: character data (decoded) or a
  /// CDATA section (verbatim).
  Status AddRun(std::string_view raw, bool decode) {
    const bool has_entity =
        decode && raw.find('&') != std::string_view::npos;
    if (!text_in_buf_) {
      if (!has_entity && text_.empty()) {
        text_ = raw;
        return Status::Ok();
      }
      text_buf_.assign(text_);
      text_in_buf_ = true;
    }
    if (has_entity) return DecodeInto(raw, &text_buf_);
    text_buf_.append(raw);
    return Status::Ok();
  }

  /// Hands the pending text to the builder. Whitespace-only runs between
  /// elements are ignored; mixed content keeps its text verbatim.
  void FlushText() {
    std::string_view text = text_in_buf_ ? std::string_view(text_buf_) : text_;
    if (!Trim(text).empty()) builder_.AddText(text);
    text_ = {};
    text_in_buf_ = false;
  }

  /// `<name attributes>` opens an element; `<name attributes/>` opens
  /// and closes it.
  Status ParseStartTag() {
    if (!Match("<")) return Error("expected '<'");
    std::string_view name;
    if (!ReadName(&name)) return Error("expected name");
    if (open_.size() >= XmlParser::kMaxDepth) {
      return Error("elements nest deeper than the limit of " +
                   std::to_string(XmlParser::kMaxDepth) + " levels");
    }
    builder_.StartElement(name);
    XIA_RETURN_IF_ERROR(ParseAttributes());
    if (Match("/>")) {
      builder_.EndElement();
      return Status::Ok();
    }
    if (!Match(">")) return Error("expected '>' to close start tag");
    open_.push_back(name);
    return Status::Ok();
  }

  /// `</name>` closing the innermost open element.
  Status ParseEndTag() {
    pos_ += 2;  // "</"
    std::string_view name;
    if (!ReadName(&name)) return Error("expected name");
    if (name != open_.back()) {
      return Error("mismatched end tag </" + std::string(name) + "> for <" +
                   std::string(open_.back()) + ">");
    }
    SkipWhitespace();
    if (!Match(">")) return Error("expected '>' after end tag name");
    builder_.EndElement();
    open_.pop_back();
    return Status::Ok();
  }

  /// The root element and everything inside it.
  Status ParseRootElement() {
    XIA_RETURN_IF_ERROR(ParseStartTag());
    while (!open_.empty()) {
      if (Eof()) return Error("unexpected end inside element");
      if (Peek() != '<') {
        size_t lt = input_.find('<', pos_);
        if (lt == std::string_view::npos) {
          return Error("unexpected end inside element content");
        }
        XIA_RETURN_IF_ERROR(AddRun(input_.substr(pos_, lt - pos_), true));
        pos_ = lt;
        continue;
      }
      if (Match("<!--")) {
        SkipUntil("-->");
        continue;
      }
      if (Match("<![CDATA[")) {
        size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) {
          return Error("unterminated CDATA");
        }
        XIA_RETURN_IF_ERROR(AddRun(input_.substr(pos_, end - pos_), false));
        pos_ = end + 3;
        continue;
      }
      if (Match("<?")) {
        SkipUntil("?>");
        continue;
      }
      FlushText();
      if (input_.substr(pos_).starts_with("</")) {
        XIA_RETURN_IF_ERROR(ParseEndTag());
      } else {
        XIA_RETURN_IF_ERROR(ParseStartTag());
      }
    }
    return Status::Ok();
  }
};

}  // namespace

Result<Document> XmlParser::Parse(std::string_view input) {
  ParseCounter().Increment();
  Scanner scanner(input, names_);
  return scanner.Run();
}

}  // namespace xia
