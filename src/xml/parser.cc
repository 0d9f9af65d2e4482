#include "xml/parser.h"

#include <cctype>
#include <string>

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

/// Internal cursor-based scanner; reports errors with byte offsets.
class Scanner {
 public:
  Scanner(std::string_view input, NameTable* names)
      : input_(input), builder_(names) {}

  Result<Document> Run() {
    SkipProlog();
    XIA_RETURN_IF_ERROR(ParseElement());
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

  Status Error(const std::string& what) const {
    return Status::ParseError("XML parse error at offset " +
                              std::to_string(pos_) + ": " + what);
  }

  bool Eof() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Match(std::string_view token) {
    if (input_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void SkipWhitespace() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
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

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '-' || c == '.';
  }

  Result<std::string> ParseName() {
    if (Eof() || !IsNameStart(Peek())) {
      return Error("expected name");
    }
    size_t start = pos_;
    ++pos_;
    while (!Eof() && IsNameChar(Peek())) ++pos_;
    return std::string(input_.substr(start, pos_ - start));
  }

  /// Decodes the five predefined entities plus numeric character refs.
  Result<std::string> DecodeText(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out.push_back(raw[i++]);
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "lt") {
        out.push_back('<');
      } else if (ent == "gt") {
        out.push_back('>');
      } else if (ent == "amp") {
        out.push_back('&');
      } else if (ent == "quot") {
        out.push_back('"');
      } else if (ent == "apos") {
        out.push_back('\'');
      } else if (!ent.empty() && ent[0] == '#') {
        int base = 10;
        std::string_view digits = ent.substr(1);
        if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
          base = 16;
          digits = digits.substr(1);
        }
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
          code = code * base + d;
        }
        if (code <= 0 || code > 0x10FFFF) {
          return Error("character reference out of range");
        }
        // Encode as UTF-8.
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xF0 | (code >> 18)));
          out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
      } else {
        return Error("unknown entity &" + std::string(ent) + ";");
      }
      i = semi + 1;
    }
    return out;
  }

  Status ParseAttributes() {
    while (true) {
      SkipWhitespace();
      if (Eof()) return Error("unexpected end in tag");
      if (Peek() == '>' || Peek() == '/') return Status::Ok();
      XIA_ASSIGN_OR_RETURN(std::string name, ParseName());
      SkipWhitespace();
      if (!Match("=")) return Error("expected '=' after attribute name");
      SkipWhitespace();
      if (Eof() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      char quote = Peek();
      ++pos_;
      size_t start = pos_;
      while (!Eof() && Peek() != quote) ++pos_;
      if (Eof()) return Error("unterminated attribute value");
      XIA_ASSIGN_OR_RETURN(std::string value,
                           DecodeText(input_.substr(start, pos_ - start)));
      ++pos_;  // Closing quote.
      builder_.AddAttribute(name, value);
    }
  }

  Status ParseContent() {
    std::string pending_text;
    auto flush_text = [&]() {
      // Whitespace-only runs between elements are ignored; mixed content
      // keeps its text verbatim.
      if (!Trim(pending_text).empty()) {
        builder_.AddText(pending_text);
      }
      pending_text.clear();
    };
    while (true) {
      if (Eof()) return Error("unexpected end inside element");
      if (Peek() == '<') {
        if (Match("<!--")) {
          SkipUntil("-->");
          continue;
        }
        if (Match("<![CDATA[")) {
          size_t end = input_.find("]]>", pos_);
          if (end == std::string_view::npos) {
            return Error("unterminated CDATA");
          }
          pending_text += std::string(input_.substr(pos_, end - pos_));
          pos_ = end + 3;
          continue;
        }
        if (Match("<?")) {
          SkipUntil("?>");
          continue;
        }
        if (input_.substr(pos_, 2) == "</") {
          flush_text();
          return Status::Ok();  // Caller consumes the end tag.
        }
        flush_text();
        XIA_RETURN_IF_ERROR(ParseElement());
        continue;
      }
      size_t lt = input_.find('<', pos_);
      if (lt == std::string_view::npos) {
        return Error("unexpected end inside element content");
      }
      XIA_ASSIGN_OR_RETURN(std::string text,
                           DecodeText(input_.substr(pos_, lt - pos_)));
      pending_text += text;
      pos_ = lt;
    }
  }

  Status ParseElement() {
    if (!Match("<")) return Error("expected '<'");
    XIA_ASSIGN_OR_RETURN(std::string name, ParseName());
    builder_.StartElement(name);
    XIA_RETURN_IF_ERROR(ParseAttributes());
    if (Match("/>")) {
      builder_.EndElement();
      return Status::Ok();
    }
    if (!Match(">")) return Error("expected '>' to close start tag");
    XIA_RETURN_IF_ERROR(ParseContent());
    if (!Match("</")) return Error("expected end tag");
    XIA_ASSIGN_OR_RETURN(std::string end_name, ParseName());
    if (end_name != name) {
      return Error("mismatched end tag </" + end_name + "> for <" + name +
                   ">");
    }
    SkipWhitespace();
    if (!Match(">")) return Error("expected '>' after end tag name");
    builder_.EndElement();
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
