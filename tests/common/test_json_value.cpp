#include "dds/common/json_value.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "dds/common/error.hpp"
#include "dds/common/json.hpp"

namespace dds {
namespace {

TEST(JsonValueTest, ParsesScalars) {
  EXPECT_TRUE(parseJson("null").isNull());
  ASSERT_NE(parseJson("true").asBool(), nullptr);
  EXPECT_TRUE(*parseJson("true").asBool());
  EXPECT_FALSE(*parseJson("false").asBool());
  EXPECT_DOUBLE_EQ(*parseJson("42").asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(*parseJson("-1.5e3").asNumber(), -1500.0);
  EXPECT_EQ(*parseJson("\"hi\"").asString(), "hi");
}

TEST(JsonValueTest, ParsesNestedContainers) {
  const JsonValue root = parseJson(R"({"a": [1, 2, {"b": "x"}], "c": null})");
  const JsonObject* obj = root.asObject();
  ASSERT_NE(obj, nullptr);
  ASSERT_EQ(obj->size(), 2u);
  const JsonValue* a = jsonFind(*obj, "a");
  ASSERT_NE(a, nullptr);
  const JsonArray* arr = a->asArray();
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->size(), 3u);
  EXPECT_DOUBLE_EQ(*(*arr)[0].asNumber(), 1.0);
  const JsonObject* inner = (*arr)[2].asObject();
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(*jsonFind(*inner, "b")->asString(), "x");
  EXPECT_TRUE(jsonFind(*obj, "c")->isNull());
  EXPECT_EQ(jsonFind(*obj, "missing"), nullptr);
}

TEST(JsonValueTest, PreservesKeyOrder) {
  const JsonValue root = parseJson(R"({"z": 1, "a": 2, "m": 3})");
  const JsonObject& obj = *root.asObject();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_EQ(obj[1].first, "a");
  EXPECT_EQ(obj[2].first, "m");
}

TEST(JsonValueTest, DecodesEscapes) {
  EXPECT_EQ(*parseJson(R"("a\"b\\c\/d\n\t")").asString(), "a\"b\\c/d\n\t");
  EXPECT_EQ(*parseJson(R"("A")").asString(), "A");
}

TEST(JsonValueTest, RejectsMalformedInput) {
  EXPECT_THROW((void)parseJson(""), IoError);
  EXPECT_THROW((void)parseJson("{"), IoError);
  EXPECT_THROW((void)parseJson("[1,]"), IoError);
  EXPECT_THROW((void)parseJson("{\"a\" 1}"), IoError);
  EXPECT_THROW((void)parseJson("tru"), IoError);
  EXPECT_THROW((void)parseJson("\"unterminated"), IoError);
  EXPECT_THROW((void)parseJson("1 2"), IoError);
  EXPECT_THROW((void)parseJson("1.2.3"), IoError);
  EXPECT_THROW((void)parseJson("\"bad \\q escape\""), IoError);
}

TEST(JsonValueTest, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(*parseJson(R"("\u0041\u001f")").asString(), "A\x1f");
  EXPECT_EQ(*parseJson(R"("\u00e9")").asString(), "\xc3\xa9");      // é
  EXPECT_EQ(*parseJson(R"("\u20AC")").asString(), "\xe2\x82\xac");  // €
  EXPECT_EQ(*parseJson(R"("\uFFFF")").asString(), "\xef\xbf\xbf");
  // A surrogate pair combines into one supplementary code point.
  EXPECT_EQ(*parseJson(R"("\ud83d\ude00")").asString(),
            "\xf0\x9f\x98\x80");  // U+1F600
  EXPECT_EQ(*parseJson(R"("\uDBFF\uDFFF")").asString(),
            "\xf4\x8f\xbf\xbf");  // U+10FFFF
}

TEST(JsonValueTest, RejectsMalformedUnicodeEscapes) {
  for (const char* bad : {
           R"("\uzzzz")",         // not hex
           R"("\u12")",           // short, then end of string
           R"("\u12g4")",         // a non-hex digit inside
           R"("\u 123")",         // whitespace is not a digit
           R"("\u+123")",         // nor is a sign
           R"("\ud83d")",         // lone high surrogate
           R"("\ud83dx")",        // high surrogate then a plain char
           R"("\ud83d\u0041")",  // high surrogate then a non-surrogate
           R"("\ud83d\ud83d")",  // two high surrogates
           R"("\ude00")",         // lone low surrogate
           R"("\ude00\ud83d")",  // pair in the wrong order
       }) {
    EXPECT_THROW((void)parseJson(bad), IoError) << bad;
  }
}

TEST(JsonValueTest, EnforcesTheNumberGrammar) {
  for (const char* good : {"0", "-0", "7", "-12", "0.5", "-0.5", "10.25",
                           "1e3", "1E3", "1e+3", "1e-3", "0e0", "2.5E-7"}) {
    EXPECT_NO_THROW((void)parseJson(good)) << good;
  }
  EXPECT_EQ(*parseJson("-0.5").asNumber(), -0.5);
  EXPECT_EQ(*parseJson("2.5E-7").asNumber(), 2.5e-7);
  for (const char* bad :
       {"+1", "+0.5", "01", "-01", "00", "007", ".5", "-.5", "1.", "-1.",
        "1.e3", "1e", "1e+", "-", "--1", "1-", "0x10", "inf", "NaN",
        "[+1]", "{\"sigma\":+0.5}", "{\"a\":.5}", "[01]", "[1.]"}) {
    EXPECT_THROW((void)parseJson(bad), IoError) << bad;
  }
}

TEST(JsonValueTest, ErrorsCarryByteOffset) {
  try {
    (void)parseJson("[1, ?]");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("offset 4"), std::string::npos)
        << e.what();
  }
}

// The reader must accept everything JsonWriter emits — the two halves
// form the round-trip used by job specs and trace records.
TEST(JsonValueTest, RoundTripsWriterOutput) {
  JsonWriter w(JsonWriter::Options{JsonWriter::Style::Compact,
                                   JsonWriter::NonFinitePolicy::Null});
  {
    w.beginObject();
    w.key("name");
    w.value("grid \"q\" \\ check");
    w.key("seed");
    w.value(static_cast<std::int64_t>(123456789));
    w.key("ratio");
    w.value(0.1);
    w.key("flags");
    w.beginArray();
    w.value(true);
    w.value(false);
    w.null();
    w.endArray();
    w.endObject();
  }
  const JsonValue root = parseJson(w.str());
  const JsonObject& obj = *root.asObject();
  EXPECT_EQ(*jsonFind(obj, "name")->asString(), "grid \"q\" \\ check");
  EXPECT_DOUBLE_EQ(*jsonFind(obj, "seed")->asNumber(), 123456789.0);
  EXPECT_DOUBLE_EQ(*jsonFind(obj, "ratio")->asNumber(), 0.1);
  const JsonArray& flags = *jsonFind(obj, "flags")->asArray();
  ASSERT_EQ(flags.size(), 3u);
  EXPECT_TRUE(*flags[0].asBool());
  EXPECT_FALSE(*flags[1].asBool());
  EXPECT_TRUE(flags[2].isNull());
}

// jsonNumber's shortest-round-trip doubles must survive parse exactly.
TEST(JsonValueTest, ExactDoubleRoundTrip) {
  for (const double d : {0.1, 1.0 / 3.0, 6.02e23, 5e-324, 1e308, -0.0}) {
    const JsonValue v = parseJson(jsonNumber(d));
    ASSERT_NE(v.asNumber(), nullptr);
    EXPECT_EQ(*v.asNumber(), d) << jsonNumber(d);
  }
}

// Integers read from the literal, so values past 2^53 stay exact.
TEST(JsonValueTest, IntegersReadExactlyFromTheLiteral) {
  const JsonValue big = parseJson("9007199254740993");
  EXPECT_EQ(*big.numberLiteral(), "9007199254740993");
  EXPECT_EQ(*big.asNumber(), 9007199254740992.0);  // the double rounds
  EXPECT_EQ(jsonInteger<std::int64_t>(big), 9007199254740993);
  EXPECT_EQ(jsonInteger<std::uint64_t>(parseJson("18446744073709551615")),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(jsonInteger<std::int64_t>(parseJson("-9223372036854775808")),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(jsonInteger<std::uint32_t>(parseJson("4294967295")),
            std::numeric_limits<std::uint32_t>::max());
  // Fractions, exponent forms, out-of-range values and non-numbers fail.
  for (const char* bad : {"2.7", "1.0", "1e3", "1e300", "9223372036854775808",
                          "\"7\"", "null", "[7]"}) {
    EXPECT_FALSE(jsonInteger<std::int64_t>(parseJson(bad)).has_value())
        << bad;
  }
  EXPECT_FALSE(jsonInteger<std::uint32_t>(parseJson("-1")).has_value());
  EXPECT_FALSE(
      jsonInteger<std::uint32_t>(parseJson("4294967296")).has_value());
  EXPECT_EQ(parseJson("\"7\"").numberLiteral(), nullptr);
}

}  // namespace
}  // namespace dds
