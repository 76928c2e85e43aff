// util/json.hpp parser: the exact grammar the report emitter writes —
// object member order, the emitter's escape set, 17-digit number
// round-trips — plus strictness (trailing garbage, bad escapes, typed
// accessor errors with useful messages).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

TEST(Json, ParsesScalarsAndContainers) {
  const JsonValue doc = JsonValue::parse(
      "{\"b\":true,\"f\":false,\"z\":null,\"n\":-2.5e2,\"s\":\"hi\","
      "\"a\":[1,2,3],\"o\":{\"k\":7}}");
  EXPECT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.at("b").as_bool());
  EXPECT_FALSE(doc.at("f").as_bool());
  EXPECT_TRUE(doc.at("z").is_null());
  EXPECT_EQ(doc.at("n").as_double(), -250.0);
  EXPECT_EQ(doc.at("s").as_string(), "hi");
  ASSERT_EQ(doc.at("a").as_array().size(), 3u);
  EXPECT_EQ(doc.at("a").as_array()[2].as_int(), 3);
  EXPECT_EQ(doc.at("o").at("k").as_int(), 7);
  EXPECT_TRUE(doc.has("o"));
  EXPECT_FALSE(doc.has("missing"));
}

TEST(Json, PreservesObjectMemberOrder) {
  const JsonValue doc = JsonValue::parse("{\"z\":1,\"a\":2,\"m\":3}");
  const auto& members = doc.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(Json, RoundTripsSeventeenDigitDoubles) {
  const double value = 8998826629.0417175;
  const JsonValue doc =
      JsonValue::parse("{\"v\":" + format_number(value) + "}");
  EXPECT_EQ(doc.at("v").as_double(), value);
}

TEST(Json, NumbersRenderedByAppendNumberParseBackToTheSameBits) {
  std::vector<double> values = {0.0,
                                -0.0,
                                0.1,
                                1.0 / 3.0,
                                -2.5e-7,
                                6.02214076e23,
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::epsilon()};
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    // Random bit patterns: every exponent, subnormals included.
    const std::uint64_t bits = rng.next_u64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    if (std::isfinite(value)) values.push_back(value);
  }
  for (const double value : values) {
    std::string text = "[";
    append_number(text, value);
    text += ']';
    const double parsed = JsonValue::parse(text).as_array()[0].as_double();
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    std::memcpy(&want, &value, sizeof want);
    std::memcpy(&got, &parsed, sizeof got);
    EXPECT_EQ(got, want) << text;
  }
}

TEST(Json, OutOfRangeAndSignedNumbersThrow) {
  EXPECT_THROW(JsonValue::parse("1e999"), Error);
  EXPECT_THROW(JsonValue::parse("-1e999"), Error);
  EXPECT_THROW(JsonValue::parse("{\"v\":1e999}"), Error);
  // Underflow is refused too: a non-zero literal below half the smallest
  // subnormal would round to 0.
  EXPECT_THROW(JsonValue::parse("1e-400"), Error);
  EXPECT_THROW(JsonValue::parse("-1e-400"), Error);
  EXPECT_THROW(JsonValue::parse("2e-324"), Error);
  EXPECT_EQ(JsonValue::parse("3e-324").as_double(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(JsonValue::parse("0e-400").as_double(), 0.0);
  EXPECT_THROW(JsonValue::parse("+1"), Error);  // RFC 8259 has no '+'
  EXPECT_THROW(JsonValue::parse("-"), Error);
  EXPECT_THROW(JsonValue::parse("1e"), Error);
  EXPECT_EQ(JsonValue::parse("1e+2").as_double(), 100.0);
  EXPECT_EQ(JsonValue::parse("-0.5E-1").as_double(), -0.05);
}

TEST(Json, DecodesTheEmitterEscapeSet) {
  const JsonValue doc = JsonValue::parse(
      "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0041\\u0009\"}");
  EXPECT_EQ(doc.at("s").as_string(), "a\"b\\c\nd\teA\t");
}

TEST(Json, EscapesOnlyTheEmitterSet) {
  EXPECT_EQ(json_escaped("plain-name_1"), "plain-name_1");
  EXPECT_EQ(json_escaped("q\"b\\n\nr\rt\t\x01z"),
            "q\\\"b\\\\n\\nr\\rt\\t\\u0001z");
  EXPECT_EQ(json_escaped("\x1f\xc3\xa9"), "\\u001f\xc3\xa9");  // UTF-8 passes
  EXPECT_EQ(json_escaped(""), "");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\":}"), Error);
  EXPECT_THROW(JsonValue::parse("[1,2"), Error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\":1,}"), Error);
  EXPECT_THROW(JsonValue::parse("nulx"), Error);
  EXPECT_THROW(JsonValue::parse("\"bad \\q escape\""), Error);
  EXPECT_THROW(JsonValue::parse("\"\\u00fe\""), Error);  // non-ASCII
  EXPECT_THROW(JsonValue::parse("1.2.3"), Error);
}

TEST(Json, ErrorsCarryTheByteOffset) {
  try {
    JsonValue::parse("{\"a\":1,\"b\":!}");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(Json, TypedAccessorsThrowWithKindNames) {
  const JsonValue doc = JsonValue::parse("{\"n\":1.5,\"s\":\"x\"}");
  EXPECT_THROW(doc.at("n").as_string(), Error);
  EXPECT_THROW(doc.at("s").as_double(), Error);
  EXPECT_THROW(doc.at("n").as_int(), Error);  // not an exact integer
  EXPECT_THROW(doc.at("missing"), Error);
  EXPECT_THROW(doc.at("n").at("nested"), Error);  // not an object
}

}  // namespace
}  // namespace coopcr
