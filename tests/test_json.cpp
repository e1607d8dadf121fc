// hvc::Json parser/writer tests.
#include <gtest/gtest.h>

#include <string>

#include "hvc/common/error.hpp"
#include "hvc/common/json.hpp"

namespace hvc {
namespace {

TEST(Json, ParsesPrimitives) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-1.5e-3").as_number(), -1.5e-3);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNested) {
  const Json doc = Json::parse(R"({
    "name": "sweep",
    "axes": {"vcc": [0.3, 0.35], "scenario": ["A", "B"]},
    "flag": true
  })");
  EXPECT_EQ(doc.at("name").as_string(), "sweep");
  const Json& vcc = doc.at("axes").at("vcc");
  ASSERT_EQ(vcc.as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(vcc.as_array()[1].as_number(), 0.35);
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_FALSE(doc.contains("missing"));
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, ParsesEscapes) {
  const Json doc = Json::parse(R"("a\"b\\c\n\tA")");
  EXPECT_EQ(doc.as_string(), "a\"b\\c\n\tA");
}

TEST(Json, RoundTripsThroughDump) {
  const char* text =
      R"({"name": "x", "list": [1, 2.5, "s", null, true], "obj": {"k": -3}})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(Json::parse(doc.dump()), doc);
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

TEST(Json, DumpPreservesKeyOrder) {
  const Json doc = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  const std::string out = doc.dump();
  EXPECT_LT(out.find("\"z\""), out.find("\"a\""));
  EXPECT_LT(out.find("\"a\""), out.find("\"m\""));
}

TEST(Json, DumpNumbersIntegralAndReal) {
  EXPECT_EQ(Json(3.0).dump(), "3");
  EXPECT_EQ(Json(-17.0).dump(), "-17");
  const double pi = 3.141592653589793;
  EXPECT_DOUBLE_EQ(Json::parse(Json(pi).dump()).as_number(), pi);
  const double tiny = 1.22e-6;
  EXPECT_DOUBLE_EQ(Json::parse(Json(tiny).dump()).as_number(), tiny);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), ConfigError);
  EXPECT_THROW(Json::parse("{"), ConfigError);
  EXPECT_THROW(Json::parse("[1,]"), ConfigError);
  EXPECT_THROW(Json::parse("{\"a\": 1,}"), ConfigError);
  EXPECT_THROW(Json::parse("nul"), ConfigError);
  EXPECT_THROW(Json::parse("\"unterminated"), ConfigError);
  EXPECT_THROW(Json::parse("\"bad\\q\""), ConfigError);
  EXPECT_THROW(Json::parse("1 2"), ConfigError);
  EXPECT_THROW(Json::parse("{\"a\": 1} x"), ConfigError);
  EXPECT_THROW(Json::parse("{1: 2}"), ConfigError);
}

TEST(Json, NestingDepthIsCapped) {
  // Exactly at the cap parses, arrays and objects alike.
  const std::string at_cap = std::string(kJsonMaxDepth, '[') +
                             std::string(kJsonMaxDepth, ']');
  EXPECT_TRUE(Json::parse(at_cap).is_array());
  std::string objects;
  for (std::size_t i = 0; i < kJsonMaxDepth; ++i) {
    objects += "{\"k\": ";
  }
  objects += "0" + std::string(kJsonMaxDepth, '}');
  EXPECT_TRUE(Json::parse(objects).is_object());

  // One level deeper, mixed nesting, and a hostile 2M-deep document all
  // get a typed error instead of overflowing the stack.
  EXPECT_THROW(Json::parse(std::string(kJsonMaxDepth + 1, '[') +
                           std::string(kJsonMaxDepth + 1, ']')),
               ConfigError);
  std::string mixed;
  for (std::size_t i = 0; i <= kJsonMaxDepth; ++i) {
    mixed += i % 2 == 0 ? "[" : "{\"k\": ";
  }
  EXPECT_THROW(Json::parse(mixed), ConfigError);
  try {
    (void)Json::parse(std::string(2'000'000, '['));
    ADD_FAILURE() << "2M-deep document parsed";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("nesting deeper than"),
              std::string::npos)
        << error.what();
  }
}

TEST(Json, RejectsDuplicateKeys) {
  EXPECT_THROW(Json::parse(R"({"a": 1, "a": 2})"), ConfigError);
}

TEST(Json, TypeMismatchThrows) {
  const Json doc = Json::parse("[1]");
  EXPECT_THROW((void)doc.as_object(), ConfigError);
  EXPECT_THROW((void)doc.as_string(), ConfigError);
  EXPECT_THROW((void)doc.at("k"), ConfigError);
}

TEST(Json, SetBuildsObjects) {
  Json doc;
  doc.set("b", Json(1.0));
  doc.set("a", Json("x"));
  doc.set("b", Json(2.0));  // overwrite keeps position
  EXPECT_EQ(doc.as_object().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.at("b").as_number(), 2.0);
  EXPECT_EQ(doc.dump(), R"({"b": 2, "a": "x"})");
}

}  // namespace
}  // namespace hvc
