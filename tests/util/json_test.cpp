// util::json — the escape helper and the small DOM parser the admin
// endpoints' consumers (cachetop, endpoint tests) rely on.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wsc::util::json {
namespace {

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("a\\b"), "a\\\\b");
  EXPECT_EQ(escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonParseTest, Primitives) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").type, Value::Type::Bool);
  EXPECT_TRUE(parse("true").boolean);
  EXPECT_FALSE(parse("false").boolean);
  EXPECT_DOUBLE_EQ(parse("42").number, 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.5e2").number, -350.0);
  EXPECT_EQ(parse("\"hi\"").string, "hi");
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(parse("\"a\\\"b\"").string, "a\"b");
  EXPECT_EQ(parse("\"line1\\nline2\"").string, "line1\nline2");
  EXPECT_EQ(parse("\"\\u0041\"").string, "A");
  EXPECT_EQ(parse("\"\\u00e9\"").string, "\xc3\xa9");  // é as UTF-8
}

TEST(JsonParseTest, NestedStructures) {
  Value doc = parse(R"({
    "name": "cache",
    "ratio": 0.75,
    "tags": [1, 2, 3],
    "inner": {"deep": true}
  })");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.string_or("name"), "cache");
  EXPECT_DOUBLE_EQ(doc.number_or("ratio"), 0.75);
  const Value* tags = doc.find("tags");
  ASSERT_NE(tags, nullptr);
  ASSERT_TRUE(tags->is_array());
  ASSERT_EQ(tags->array.size(), 3u);
  EXPECT_DOUBLE_EQ(tags->array[2].number, 3.0);
  const Value* inner = doc.find("inner");
  ASSERT_NE(inner, nullptr);
  const Value* deep = inner->find("deep");
  ASSERT_NE(deep, nullptr);
  EXPECT_TRUE(deep->boolean);
}

TEST(JsonParseTest, AccessorsHaveSafeFallbacks) {
  Value doc = parse(R"({"n": 1, "s": "x"})");
  EXPECT_DOUBLE_EQ(doc.number_or("missing", -1), -1.0);
  EXPECT_EQ(doc.string_or("missing", "fb"), "fb");
  EXPECT_DOUBLE_EQ(doc.number_or("s", -1), -1.0);  // mistyped -> fallback
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(parse("[1]").find("anything"), nullptr);  // non-object
}

TEST(JsonParseTest, MalformedInputThrows) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{"), ParseError);
  EXPECT_THROW(parse("[1,]"), ParseError);
  EXPECT_THROW(parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(parse("\"unterminated"), ParseError);
  EXPECT_THROW(parse("nul"), ParseError);
  EXPECT_THROW(parse("1 2"), ParseError);  // trailing garbage
}

TEST(JsonParseTest, DepthLimitGuardsRecursion) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_THROW(parse(deep), ParseError);
  // 32 levels is comfortably inside the limit.
  std::string ok;
  for (int i = 0; i < 32; ++i) ok += "[";
  ok += "1";
  for (int i = 0; i < 32; ++i) ok += "]";
  EXPECT_NO_THROW(parse(ok));
}

TEST(JsonRoundTripTest, EscapedStringsSurviveParsing) {
  const std::string nasty = "quote\" slash\\ newline\n tab\t ctrl\x02";
  Value parsed = parse(std::string("\"").append(escape(nasty)).append("\""));
  EXPECT_EQ(parsed.string, nasty);
}

}  // namespace
}  // namespace wsc::util::json
