#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace so {
namespace {

TEST(JsonWriter, EmptyObject)
{
    JsonWriter json;
    json.beginObject().endObject();
    EXPECT_EQ(json.str(), "{}");
}

TEST(JsonWriter, EmptyArray)
{
    JsonWriter json;
    json.beginArray().endArray();
    EXPECT_EQ(json.str(), "[]");
}

TEST(JsonWriter, FlatObject)
{
    JsonWriter json;
    json.beginObject()
        .field("name", "SuperOffload")
        .field("tflops", 238.92)
        .field("buckets", std::uint32_t{128})
        .field("feasible", true)
        .endObject();
    EXPECT_EQ(json.str(), "{\"name\":\"SuperOffload\","
                          "\"tflops\":238.92,"
                          "\"buckets\":128,"
                          "\"feasible\":true}");
}

TEST(JsonWriter, NestedStructures)
{
    JsonWriter json;
    json.beginObject();
    json.key("memory").beginObject().field("gpu", 96.0).endObject();
    json.key("sizes").beginArray().value(1.0).value(2.0).endArray();
    json.endObject();
    EXPECT_EQ(json.str(),
              "{\"memory\":{\"gpu\":96},\"sizes\":[1,2]}");
}

TEST(JsonWriter, ArrayOfObjects)
{
    JsonWriter json;
    json.beginArray();
    json.beginObject().field("id", std::int64_t{1}).endObject();
    json.beginObject().field("id", std::int64_t{2}).endObject();
    json.endArray();
    EXPECT_EQ(json.str(), "[{\"id\":1},{\"id\":2}]");
}

TEST(JsonWriter, EscapesSpecialCharacters)
{
    JsonWriter json;
    json.beginObject()
        .field("text", "line1\nline2\t\"quoted\" \\slash")
        .endObject();
    EXPECT_EQ(json.str(), "{\"text\":\"line1\\nline2\\t\\\"quoted\\\" "
                          "\\\\slash\"}");
}

TEST(JsonWriter, ControlCharactersBecomeUnicodeEscapes)
{
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    JsonWriter json;
    json.beginArray()
        .value(std::nan(""))
        .value(std::numeric_limits<double>::infinity())
        .endArray();
    EXPECT_EQ(json.str(), "[null,null]");
}

TEST(JsonWriter, NullValue)
{
    JsonWriter json;
    json.beginObject();
    json.key("missing");
    json.null();
    json.endObject();
    EXPECT_EQ(json.str(), "{\"missing\":null}");
}

TEST(JsonWriter, TopLevelScalar)
{
    JsonWriter json;
    json.value(42.0);
    EXPECT_EQ(json.str(), "42");
}

TEST(JsonValue, ParsesScalars)
{
    JsonValue v;
    ASSERT_TRUE(JsonValue::parse("null", v));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(JsonValue::parse("true", v));
    EXPECT_TRUE(v.boolean());
    ASSERT_TRUE(JsonValue::parse("false", v));
    EXPECT_FALSE(v.boolean());
    ASSERT_TRUE(JsonValue::parse("-12.5e2", v));
    EXPECT_DOUBLE_EQ(v.number(), -1250.0);
    ASSERT_TRUE(JsonValue::parse("\"hi\"", v));
    EXPECT_EQ(v.text(), "hi");
}

TEST(JsonValue, ParsesNestedContainers)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(
        "{\"a\":[1,2,{\"b\":true}],\"c\":{\"d\":null}} \n", v, &error))
        << error;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.members().size(), 2u);
    const JsonValue &a = v.at("a");
    ASSERT_EQ(a.items().size(), 3u);
    EXPECT_DOUBLE_EQ(a.items()[1].number(), 2.0);
    EXPECT_TRUE(a.items()[2].at("b").boolean());
    EXPECT_TRUE(v.at("c").at("d").isNull());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValue, UnescapesStrings)
{
    JsonValue v;
    ASSERT_TRUE(JsonValue::parse(
        "\"tab\\tquote\\\"back\\\\slash\\/nl\\nu\\u0041\"", v));
    EXPECT_EQ(v.text(), "tab\tquote\"back\\slash/nl\nuA");
}

TEST(JsonValue, RejectsNonFiniteNumbers)
{
    // strtod turns "1e999" into Inf; JSON has no non-finite numbers
    // (the writer emits null for them), so the parser must refuse
    // rather than smuggle an Inf into numeric consumers.
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(JsonValue::parse("1e999", doc, &error));
    EXPECT_NE(error.find("overflows"), std::string::npos);
    EXPECT_FALSE(JsonValue::parse("-1e999", doc, &error));
    EXPECT_FALSE(JsonValue::parse(R"({"watts": 1e400})", doc, &error));
    // The writer's null for a non-finite value parses back as null:
    // the round trip degrades gracefully instead of erroring.
    JsonWriter json;
    json.beginObject();
    json.field("watts", std::numeric_limits<double>::infinity());
    json.endObject();
    ASSERT_TRUE(JsonValue::parse(json.str(), doc, &error)) << error;
    EXPECT_TRUE(doc.find("watts")->isNull());
    // Large-but-finite values still parse.
    ASSERT_TRUE(JsonValue::parse("1e308", doc, &error)) << error;
    EXPECT_DOUBLE_EQ(doc.number(), 1e308);
}

TEST(JsonValue, AsIntegerRejectsOutOfRangeNumbers)
{
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(
        "[7.9, -7.9, -1, 1e300, -9223372036854775808, "
        "9223372036854775808, 18446744073709551616, \"7\"]",
        doc));
    const std::vector<JsonValue> &v = doc.items();
    std::int64_t i = 42;
    std::uint64_t u = 42;
    // In range: truncated toward zero, like a cast.
    ASSERT_TRUE(v[0].asInteger(i));
    EXPECT_EQ(i, 7);
    ASSERT_TRUE(v[1].asInteger(i));
    EXPECT_EQ(i, -7);
    ASSERT_TRUE(v[0].asInteger(u));
    EXPECT_EQ(u, 7u);
    ASSERT_TRUE(v[4].asInteger(i));
    EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
    ASSERT_TRUE(v[5].asInteger(u));
    EXPECT_EQ(u, std::uint64_t{1} << 63);
    // Out of range or not a number: false, and the target keeps its
    // value.
    i = 42;
    u = 42;
    EXPECT_FALSE(v[2].asInteger(u));
    EXPECT_FALSE(v[3].asInteger(i));
    EXPECT_FALSE(v[3].asInteger(u));
    EXPECT_FALSE(v[5].asInteger(i));
    EXPECT_FALSE(v[6].asInteger(u));
    EXPECT_FALSE(v[7].asInteger(i));
    EXPECT_EQ(i, 42);
    EXPECT_EQ(u, 42u);
}

TEST(JsonValue, RejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(JsonValue::parse("", v, &error));
    EXPECT_FALSE(JsonValue::parse("{", v, &error));
    EXPECT_FALSE(JsonValue::parse("[1,]", v, &error));
    EXPECT_FALSE(JsonValue::parse("{\"a\" 1}", v, &error));
    EXPECT_FALSE(JsonValue::parse("nul", v, &error));
    // Trailing garbage after a complete document is rejected too.
    EXPECT_FALSE(JsonValue::parse("{} x", v, &error));
    EXPECT_NE(error.find("offset"), std::string::npos);
}

TEST(JsonValue, RoundTripsWriterOutput)
{
    JsonWriter json;
    json.beginObject()
        .field("name", "line1\nline2 \"q\"")
        .field("value", 0.125)
        .key("list");
    json.beginArray().value(true).null().endArray();
    json.endObject();

    JsonValue v;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(json.str(), v, &error)) << error;
    EXPECT_EQ(v.at("name").text(), "line1\nline2 \"q\"");
    EXPECT_DOUBLE_EQ(v.at("value").number(), 0.125);
    EXPECT_TRUE(v.at("list").items()[0].boolean());
    EXPECT_TRUE(v.at("list").items()[1].isNull());
}

TEST(JsonValueDeath, KindMismatchPanics)
{
    JsonValue v;
    ASSERT_TRUE(JsonValue::parse("42", v));
    EXPECT_DEATH({ const auto &t = v.text(); (void)t; }, "");
}

TEST(JsonWriterDeath, MismatchedEndPanics)
{
    JsonWriter json;
    json.beginObject();
    EXPECT_DEATH(json.endArray(), "endArray mismatch");
}

TEST(JsonWriterDeath, UnterminatedDocumentPanics)
{
    JsonWriter json;
    json.beginObject();
    EXPECT_DEATH({ const auto s = json.str(); (void)s; },
                 "unterminated");
}

TEST(JsonWriterDeath, KeyOutsideObjectPanics)
{
    JsonWriter json;
    json.beginArray();
    EXPECT_DEATH(json.key("oops"), "outside an object");
}

} // namespace
} // namespace so
