#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "xml/builder.h"
#include "xml/document.h"
#include "xml/name_table.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace {

// ------------------------------------------------------------- NameTable.

TEST(NameTableTest, InternIsIdempotent) {
  NameTable names;
  NameId a = names.Intern("item");
  NameId b = names.Intern("item");
  EXPECT_EQ(a, b);
  EXPECT_EQ(names.NameOf(a), "item");
  EXPECT_EQ(names.size(), 1u);
}

TEST(NameTableTest, LookupMissReturnsNoName) {
  NameTable names;
  EXPECT_EQ(names.Lookup("ghost"), kNoName);
  NameId id = names.Intern("ghost");
  EXPECT_NE(id, kNoName);
  EXPECT_EQ(names.Lookup("ghost"), id);
  // Views into a longer buffer (not NUL-terminated) match by their bytes.
  const std::string buffer = "ghosts";
  EXPECT_EQ(names.Lookup(std::string_view(buffer).substr(0, 5)), id);
  EXPECT_EQ(names.Intern(std::string_view(buffer).substr(0, 5)), id);
  EXPECT_EQ(names.Lookup(buffer), kNoName);
}

// --------------------------------------------------------------- Builder.

TEST(BuilderTest, RegionEncodingIsConsistent) {
  NameTable names;
  DocumentBuilder b(&names);
  b.StartElement("a");        // begin 0
  b.StartElement("b");        // begin 1
  b.AddText("x");             // begin 2
  b.EndElement();             // b: end 2
  b.StartElement("c");        // begin 3
  b.EndElement();             // c: end 3
  b.EndElement();             // a: end 3
  Result<Document> doc = b.Finish();
  ASSERT_TRUE(doc.ok());
  const XmlNode& a = doc->node(0);
  const XmlNode& bb = doc->node(1);
  const XmlNode& c = doc->node(3);
  EXPECT_EQ(a.begin, 0u);
  EXPECT_EQ(a.end, 3u);
  EXPECT_EQ(bb.begin, 1u);
  EXPECT_EQ(bb.end, 2u);
  EXPECT_TRUE(a.IsAncestorOf(bb));
  EXPECT_TRUE(a.IsAncestorOf(c));
  EXPECT_FALSE(bb.IsAncestorOf(c));
  EXPECT_EQ(a.level, 0);
  EXPECT_EQ(bb.level, 1);
}

TEST(BuilderTest, AttributesLinkToParent) {
  NameTable names;
  DocumentBuilder b(&names);
  b.StartElement("item");
  b.AddAttribute("id", "item7");
  b.AddText("hello");
  b.EndElement();
  Result<Document> doc = b.Finish();
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->num_nodes(), 3u);
  const XmlNode& attr = doc->node(1);
  EXPECT_EQ(attr.kind, NodeKind::kAttribute);
  EXPECT_EQ(attr.value, "item7");
  EXPECT_EQ(attr.parent, 0);
  EXPECT_EQ(doc->TextValue(1), "item7");
}

TEST(BuilderTest, TextValueConcatenatesDirectTextChildren) {
  NameTable names;
  DocumentBuilder b(&names);
  b.StartElement("p");
  b.AddText("hello ");
  b.StartElement("b");
  b.AddText("IGNORED");
  b.EndElement();
  b.AddText("world");
  b.EndElement();
  Result<Document> doc = b.Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->TextValue(0), "hello world");
}

TEST(BuilderTest, FinishFailsWithOpenElements) {
  NameTable names;
  DocumentBuilder b(&names);
  b.StartElement("a");
  Result<Document> doc = b.Finish();
  EXPECT_FALSE(doc.ok());
}

TEST(BuilderTest, FinishFailsOnEmpty) {
  NameTable names;
  DocumentBuilder b(&names);
  EXPECT_FALSE(b.Finish().ok());
}

TEST(BuilderTest, ReusableAfterFinish) {
  NameTable names;
  DocumentBuilder b(&names);
  b.StartElement("one");
  b.EndElement();
  ASSERT_TRUE(b.Finish().ok());
  b.StartElement("two");
  b.EndElement();
  Result<Document> doc = b.Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(names.NameOf(doc->node(0).name), "two");
  EXPECT_EQ(doc->node(0).begin, 0u);
}

// ---------------------------------------------------------------- Parser.

TEST(ParserTest, SimpleDocument) {
  NameTable names;
  XmlParser parser(&names);
  Result<Document> doc =
      parser.Parse("<site><item id=\"i1\"><price>42</price></item></site>");
  ASSERT_TRUE(doc.ok());
  // site, item, @id, price, "42".
  EXPECT_EQ(doc->num_nodes(), 5u);
  EXPECT_EQ(names.NameOf(doc->node(0).name), "site");
  EXPECT_EQ(doc->node(2).kind, NodeKind::kAttribute);
  const XmlNode& text = doc->node(4);
  EXPECT_EQ(text.kind, NodeKind::kText);
  EXPECT_EQ(text.value, "42");
  EXPECT_EQ(doc->TextValue(3), "42");  // price element's typed value.
}

TEST(ParserTest, SelfClosingAndAttributes) {
  NameTable names;
  XmlParser parser(&names);
  Result<Document> doc = parser.Parse("<a x=\"1\" y='2'/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_nodes(), 3u);
  EXPECT_EQ(doc->node(1).value, "1");
  EXPECT_EQ(doc->node(2).value, "2");
}

TEST(ParserTest, EntitiesDecoded) {
  NameTable names;
  XmlParser parser(&names);
  Result<Document> doc =
      parser.Parse("<t a=\"&lt;x&gt;\">&amp;&quot;&apos;&#65;&#x42;</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->node(1).value, "<x>");
  EXPECT_EQ(doc->node(2).value, "&\"'AB");
}

TEST(ParserTest, SkipsPrologCommentsPi) {
  NameTable names;
  XmlParser parser(&names);
  Result<Document> doc = parser.Parse(
      "<?xml version=\"1.0\"?><!-- c --><!DOCTYPE site>\n"
      "<site><!-- inner --><?pi data?><a/></site> <!-- trailing -->");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_nodes(), 2u);
}

TEST(ParserTest, CdataPreserved) {
  NameTable names;
  XmlParser parser(&names);
  Result<Document> doc = parser.Parse("<t><![CDATA[a < b & c]]></t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->TextValue(0), "a < b & c");
}

TEST(ParserTest, WhitespaceOnlyTextDropped) {
  NameTable names;
  XmlParser parser(&names);
  Result<Document> doc = parser.Parse("<a>\n  <b/>\n  <c/>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_nodes(), 3u);  // No text nodes.
}

TEST(ParserTest, MismatchedTagFails) {
  NameTable names;
  XmlParser parser(&names);
  EXPECT_FALSE(parser.Parse("<a><b></a></b>").ok());
}

TEST(ParserTest, TrailingGarbageFails) {
  NameTable names;
  XmlParser parser(&names);
  EXPECT_FALSE(parser.Parse("<a/><b/>").ok());
}

TEST(ParserTest, UnterminatedFails) {
  NameTable names;
  XmlParser parser(&names);
  EXPECT_FALSE(parser.Parse("<a><b>").ok());
  EXPECT_FALSE(parser.Parse("<a x=\"1>").ok());
  EXPECT_FALSE(parser.Parse("<a>&bogus;</a>").ok());
}

/// `depth` nested <a> elements around `innermost`.
std::string Nested(size_t depth, const std::string& innermost = "") {
  std::string xml;
  for (size_t i = 0; i < depth; ++i) xml += "<a>";
  xml += innermost;
  for (size_t i = 0; i < depth; ++i) xml += "</a>";
  return xml;
}

// Open elements live on the scanner's own stack, capped at kMaxDepth: the
// limit parses and serializes, one level more is a ParseError naming the
// limit, and depths that once overflowed the call stack (20,000) or
// wrapped XmlNode::level (70,000) fail the same way.
TEST(ParserTest, NestingIsCappedAtTheDepthLimit) {
  constexpr size_t kLimit = XmlParser::kMaxDepth;
  NameTable names;
  XmlParser parser(&names);
  Result<Document> at_limit = parser.Parse(Nested(kLimit, "t"));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  ASSERT_EQ(at_limit->num_nodes(), kLimit + 1);
  EXPECT_EQ(at_limit->node(static_cast<NodeIndex>(kLimit - 1)).level,
            kLimit - 1);
  EXPECT_EQ(at_limit->TextValue(static_cast<NodeIndex>(kLimit - 1)), "t");
  EXPECT_EQ(SerializeDocument(*at_limit, names), Nested(kLimit, "t"));

  for (const std::string& deeper :
       {Nested(kLimit + 1), Nested(kLimit, "<b/>"), Nested(20000),
        Nested(70000)}) {
    Result<Document> over = parser.Parse(deeper);
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), StatusCode::kParseError);
    EXPECT_NE(over.status().message().find("limit of 4096 levels"),
              std::string::npos)
        << over.status().ToString();
  }
}

// The parser sizes the node array once, from the input: one slot per '<'
// and per '=', which bounds a document without mixed content, so the
// array never regrows.
TEST(ParserTest, NodeArrayIsReservedOnceFromTheInput) {
  NameTable names;
  Random rng(9);
  std::vector<std::string> texts = {
      "<a x=\"1\"><b>t</b><c/></a>",
      SerializeDocument(GenerateXMarkDocument(&names, XMarkParams(), &rng),
                        names)};
  TpoxParams tpox;
  for (int i = 0; i < 3; ++i) {
    texts.push_back(SerializeDocument(
        GenerateTpoxOrder(&names, tpox, &rng, i), names));
  }
  for (const std::string& text : texts) {
    const size_t marks = static_cast<size_t>(
        std::count(text.begin(), text.end(), '<') +
        std::count(text.begin(), text.end(), '='));
    Result<Document> doc = XmlParser(&names).Parse(text);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_LE(doc->num_nodes(), marks);
    EXPECT_EQ(doc->nodes().capacity(), marks) << text.substr(0, 60);
  }
}

// '=' in text and attribute values and '<' in CDATA sections and comments
// inflate the reservation without adding nodes. The array kept is trimmed
// to at most twice its nodes, the most that growth by doubling leaves.
TEST(ParserTest, NodeArrayKeepsAtMostTwiceItsNodes) {
  const std::string eqs(100000, '=');
  const std::string lts(100000, '<');
  NameTable names;
  struct Case {
    std::string text;
    size_t nodes;
    const std::string& last_value;
  };
  for (const Case& c : std::vector<Case>{
           {"<a>" + eqs + "</a>", 2, eqs},
           {"<a x=\"" + eqs + "\"/>", 2, eqs},
           {"<a><![CDATA[" + lts + "]]></a>", 2, lts},
           {"<a><!--" + lts + "--><b x=\"" + eqs + "\">" + eqs + "</b></a>",
            4, eqs}}) {
    Result<Document> doc = XmlParser(&names).Parse(c.text);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    ASSERT_EQ(doc->num_nodes(), c.nodes) << c.text.substr(0, 16);
    EXPECT_EQ(doc->nodes().back().value, c.last_value);
    EXPECT_LE(doc->nodes().capacity(), 2 * doc->num_nodes())
        << c.text.substr(0, 16);
  }
}

// ------------------------------------------------- Pinned parse outcomes.
//
// The parser's observable behaviour, pinned: every outcome below is hashed
// and compared against a constant recorded from a known-good build, so a
// rewrite of the scanner must reproduce each document, each interned name
// order and each error text byte for byte.

/// 64-bit FNV-1a, local to the test so a pinned constant cannot move with
/// a library hash.
class Fnv {
 public:
  void Byte(uint8_t b) {
    hash_ ^= b;
    hash_ *= 1099511628211ull;
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Str(std::string_view s) {
    U64(s.size());
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// One parse into a fresh name table. The outcome is the serialized
/// document with its node array, or the error text (which carries the
/// offset); either way followed by the names in the order they were
/// interned. Returns whether the parse succeeded.
bool HashParseOutcome(std::string_view input, Fnv* fnv) {
  NameTable names;
  Result<Document> doc = XmlParser(&names).Parse(input);
  if (doc.ok()) {
    fnv->U64(1);
    fnv->Str(SerializeDocument(*doc, names));
    fnv->U64(doc->ByteSize());
    for (const XmlNode& n : doc->nodes()) {
      fnv->U64(static_cast<uint64_t>(n.kind));
      fnv->U64(static_cast<uint64_t>(n.name));
      fnv->U64(static_cast<uint64_t>(n.parent));
      fnv->U64(static_cast<uint64_t>(n.first_child));
      fnv->U64(static_cast<uint64_t>(n.next_sibling));
      fnv->U64(n.begin);
      fnv->U64(n.end);
      fnv->U64(n.level);
      fnv->Str(n.value);
    }
  } else {
    fnv->U64(0);
    fnv->Str(doc.status().ToString());
  }
  fnv->U64(names.size());
  for (NameId id = 0; id < static_cast<NameId>(names.size()); ++id) {
    fnv->Str(names.NameOf(id));
  }
  return doc.ok();
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

/// Generated XMark and TPoX documents, compact and indented.
std::vector<std::string> PinnedSeedDocuments() {
  NameTable names;
  Random rng(2008);
  SerializeOptions pretty;
  pretty.pretty = true;
  std::vector<std::string> docs;
  XMarkParams small;
  small.items_per_region = 1;
  small.categories = 2;
  small.people = 3;
  small.open_auctions = 2;
  small.closed_auctions = 2;
  for (int i = 0; i < 3; ++i) {
    const SerializeOptions& options = i == 1 ? pretty : SerializeOptions{};
    docs.push_back(SerializeDocument(
        GenerateXMarkDocument(&names, small, &rng), names, options));
  }
  docs.push_back(SerializeDocument(
      GenerateXMarkDocument(&names, XMarkParams(), &rng), names));
  TpoxParams tpox;
  for (int i = 0; i < 2; ++i) {
    const SerializeOptions& options = i == 0 ? pretty : SerializeOptions{};
    docs.push_back(SerializeDocument(
        GenerateTpoxCustomer(&names, tpox, &rng, i), names, options));
    docs.push_back(SerializeDocument(GenerateTpoxOrder(&names, tpox, &rng, i),
                                     names, options));
    docs.push_back(SerializeDocument(
        GenerateTpoxSecurity(&names, tpox, &rng, i), names, options));
  }
  return docs;
}

/// One seeded edit: a printable byte replaced, a byte deleted or doubled,
/// a markup fragment spliced in, or a short range cut out.
std::string MutateOnce(const std::string& input, Random* rng) {
  static const std::vector<std::string> kFragments = {
      "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x4E2D;",
      "&#128512;", "&#0;", "&#x110000;", "&#;", "&#xZ;", "&bogus;", "&",
      ";", "<", ">", "</", "/>", "=", "\"", "'", " ", "\n",
      "<![CDATA[a<b&c]]>", "<![CDATA[", "]]>", "<!--c-->", "<!--",
      "-->", "<?pi x?>", "<?", "<x/>", "<x>", "</x>", "<x a='1'>t</x>",
      " a=\"v\"", "<!DOCTYPE d>"};
  if (input.empty()) return kFragments[static_cast<size_t>(rng->Uniform(
      0, static_cast<int64_t>(kFragments.size()) - 1))];
  std::string out = input;
  size_t pos = static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(out.size()) - 1));
  switch (rng->Uniform(0, 4)) {
    case 0:
      out[pos] = static_cast<char>(rng->Uniform(32, 126));
      break;
    case 1:
      out.erase(pos, 1);
      break;
    case 2:
      out.insert(pos, 1, out[pos]);
      break;
    case 3:
      out.insert(pos, rng->Choice(kFragments));
      break;
    default:
      out.erase(pos, static_cast<size_t>(rng->Uniform(1, 40)));
      break;
  }
  return out;
}

TEST(ParserPinTest, MutatedAndTruncatedCorpusParsesAsRecorded) {
  const std::vector<std::string> seeds = PinnedSeedDocuments();
  Random rng(22);
  Fnv fnv;
  size_t outcomes = 0;
  size_t errors = 0;
  auto hash = [&](const std::string& input) {
    errors += HashParseOutcome(input, &fnv) ? 0 : 1;
    ++outcomes;
  };
  for (const std::string& seed : seeds) {
    hash(seed);
    for (int round = 0; round < 220; ++round) {
      std::string text = seed;
      const int64_t edits = rng.Uniform(1, 3);
      for (int64_t e = 0; e < edits; ++e) text = MutateOnce(text, &rng);
      hash(text);
    }
    for (int cut = 0; cut < 30; ++cut) {
      hash(seed.substr(0, static_cast<size_t>(rng.Uniform(
                              0, static_cast<int64_t>(seed.size()) - 1))));
    }
  }
  EXPECT_GE(outcomes, 2000u);
  EXPECT_GE(errors, 1000u);
  EXPECT_EQ(Hex(fnv.value()), "0xcdd653e69e453abf")
      << outcomes << " outcomes, " << errors << " errors";
}

TEST(ParserPinTest, HandWrittenCasesParseAsRecorded) {
  const std::vector<std::string> cases = {
      // Entities and numeric references, in text and in attributes.
      "<a x=\"&lt;&amp;&gt;&quot;&apos;\">t &lt;b&gt; &amp; &quot;q&apos;</a>",
      "<a x='&#65;&#x42;&#X43;'>&#97;&#x62;&#xE9;&#x800;&#x263A;&#128512;"
      "&#x10FFFF;</a>",
      "<a>&#32;&#x20;&#10;</a>",
      "<a>x&#32;</a>",
      "<a>&#0;</a>",
      "<a>&#x110000;</a>",
      "<a>&#;</a>",
      "<a>&#x;</a>",
      "<a>&#12a;</a>",
      "<a>&#xG1;</a>",
      "<a>&bogus;</a>",
      "<a>&;</a>",
      "<a>&amp</a>",
      "<a>&amp <b/></a>",
      "<a x=\"&amp\"/>",
      "<a x=\"&nope;\"/>",
      "<a x=\"&#xFFFFFFFFF;\"/>",
      "<a b=\"1\" c='&apos;\"' d=\"'&quot;\"/>",
      // CDATA, and comments or PIs between text runs.
      "<a>x<!--c-->y<?p q?>z<![CDATA[<&>]]>w</a>",
      "<a><![CDATA[]]></a>",
      "<a> <![CDATA[ ]]> </a>",
      "<a><![CDATA[&amp;]]>&amp;</a>",
      "<a>x<![CDATA[never closed</a>",
      "<a>x<!-- never closed</a>",
      "<a>x<?pi never closed</a>",
      "<a><!----><?p?>t</a>",
      // Mixed content, whitespace-only runs and self-closing tags.
      "<p>hello <b>bold</b> world<br/>!</p>",
      "<a>\n  <b/>\n\t<c x='1'/>  \r\n</a>",
      "<a> lead<b/>trail </a>",
      "<a/>",
      "<a />",
      "<a x=\"1\"/>",
      "<a x = '1'\ny=\"2\" />",
      "<a x=\"1\" x=\"2\"/>",
      "<r><a><b><c/></b></a><a/></r>",
      "<ns:a xmlns:ns=\"u\"><ns:b ns:c=\"1\">v</ns:b></ns:a>",
      "<a_1 b-2.c=\"v\"><_x/></a_1>",
      // Prologue and trailing material.
      "<?xml version=\"1.0\"?>\n<!DOCTYPE a>\n<!-- c --><a/>\n<!-- t -->\n",
      "<?xml version=\"1.0\"?><a/><?pi?>  ",
      "\n\t <a/>\n",
      "<?xml never closed",
      "<!-- never closed",
      "<!DOCTYPE never closed",
      // Mismatched and unterminated tags.
      "<a><b></a></b>",
      "<a></b>",
      "<a></a >",
      "<a></ a>",
      "<a></a",
      "<a>",
      "<a><b>",
      "<a",
      "<a x",
      "<a x=",
      "<a x=\"1",
      "<a x=1/>",
      "<a x/>",
      "<a x=\"1\"y=\"2\"/>",
      "<a/",
      "<a>text",
      "</a>",
      "<a/><b/>",
      "<a/>junk",
      "",
      "   ",
      "text",
      "<1a/>",
      "<a><1b/></a>",
      "<a><!DOCTYPE x></a>",
      "<a>&lt;</b></a>",
  };
  Fnv fnv;
  for (const std::string& text : cases) HashParseOutcome(text, &fnv);
  EXPECT_EQ(Hex(fnv.value()), "0xe80fd4d8370c6315");
}

// ------------------------------------------------------------ Serializer.

TEST(SerializerTest, RoundTrip) {
  NameTable names;
  XmlParser parser(&names);
  const std::string xml =
      "<site><item id=\"i&amp;1\"><price>42</price>"
      "<name>a &lt;gold&gt; ring</name></item><empty/></site>";
  Result<Document> doc = parser.Parse(xml);
  ASSERT_TRUE(doc.ok());
  std::string serialized = SerializeDocument(*doc, names);
  Result<Document> doc2 = parser.Parse(serialized);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(SerializeDocument(*doc2, names), serialized);
  EXPECT_EQ(doc->num_nodes(), doc2->num_nodes());
}

TEST(SerializerTest, EscapesSpecials) {
  EXPECT_EQ(EscapeXml("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
}

TEST(SerializerTest, PrettyPrintsIndented) {
  NameTable names;
  XmlParser parser(&names);
  Result<Document> doc = parser.Parse("<a><b/></a>");
  ASSERT_TRUE(doc.ok());
  SerializeOptions opts;
  opts.pretty = true;
  std::string out = SerializeDocument(*doc, names, opts);
  EXPECT_NE(out.find("  <b/>"), std::string::npos);
}

TEST(DocumentTest, ByteSizeGrowsWithContent) {
  NameTable names;
  XmlParser parser(&names);
  Result<Document> small = parser.Parse("<a/>");
  Result<Document> large =
      parser.Parse("<a><b>some longer text content here</b></a>");
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LT(small->ByteSize(), large->ByteSize());
}


// TextView is TextValue without the copy: a view of the node's own value
// unless more than one direct text child has to be concatenated.
TEST(DocumentTest, TextViewMatchesTextValueAndBorrowsSingleValues) {
  NameTable names;
  XmlParser parser(&names);
  // 0:<p> 1:@x 2:"one" 3:<b> 4:"two" 5:"three" 6:<c> 7:"four" 8:<d>
  Result<Document> doc = parser.Parse(
      "<p x=\"v\">one<b>two</b>three<c>four</c><d/></p>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->num_nodes(), 9u);
  std::string scratch;
  for (NodeIndex i = 0; i < static_cast<NodeIndex>(doc->num_nodes()); ++i) {
    EXPECT_EQ(doc->TextView(i, &scratch), doc->TextValue(i)) << i;
  }
  EXPECT_EQ(doc->TextView(0, &scratch).data(), scratch.data());  // Joined.
  EXPECT_EQ(doc->TextView(1, &scratch).data(), doc->node(1).value.data());
  EXPECT_EQ(doc->TextView(6, &scratch).data(), doc->node(7).value.data());
  EXPECT_TRUE(doc->TextView(8, &scratch).empty());
}

// Checkpoint-loaded node arrays must keep the region encoding the
// evaluator indexes raw arrays by; each rule broken once is refused.
TEST(DocumentTest, FromNodesRejectsBrokenRegionEncoding) {
  NameTable names;
  XmlParser parser(&names);
  // 0:<a> 1:@x 2:<b> 3:"t" 4:<c>
  Result<Document> doc = parser.Parse("<a x=\"1\"><b>t</b><c/></a>");
  ASSERT_TRUE(doc.ok());
  const std::vector<XmlNode>& valid = doc->nodes();
  ASSERT_EQ(valid.size(), 5u);
  Result<Document> copy = Document::FromNodes(valid);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  EXPECT_EQ(copy->ByteSize(), doc->ByteSize());

  struct Case {
    const char* rule;
    std::function<void(std::vector<XmlNode>*)> corrupt;
  };
  const std::vector<Case> cases = {
      {"begin", [](auto* n) { (*n)[2].begin = 3; }},
      {"end", [](auto* n) { (*n)[2].end = 1; }},            // end < begin.
      {"end", [](auto* n) { (*n)[0].end = 5; }},            // Past the array.
      {"parent", [](auto* n) { (*n)[3].parent = 3; }},      // Not before i.
      {"parent", [](auto* n) { (*n)[4].parent = kNullNode; }},  // Non-root.
      {"parent", [](auto* n) { (*n)[0].parent = 0; }},      // Root has one.
      {"first_child", [](auto* n) { (*n)[2].first_child = 9; }},
      {"first_child", [](auto* n) { (*n)[2].first_child = 1; }},  // Back.
      {"next_sibling", [](auto* n) { (*n)[2].next_sibling = -7; }},
      {"next_sibling", [](auto* n) { (*n)[4].next_sibling = 2; }},  // Cycle.
  };
  for (const Case& c : cases) {
    std::vector<XmlNode> nodes = valid;
    c.corrupt(&nodes);
    Result<Document> broken = Document::FromNodes(std::move(nodes));
    ASSERT_FALSE(broken.ok()) << c.rule;
    EXPECT_EQ(broken.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(broken.status().message().find(c.rule), std::string::npos)
        << broken.status().ToString();
  }
  Result<Document> empty = Document::FromNodes({});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->ByteSize(), 0u);
}

}  // namespace
}  // namespace xia
