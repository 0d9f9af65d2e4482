#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "xml/builder.h"
#include "xml/document.h"
#include "xml/name_table.h"
#include "xml/parser.h"
#include "xml/serializer.h"

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
