// Canonical JSON: the streaming writer every document is formatted
// through, the JsonValue tree that dump()s via the writer, and the
// pull reader that reads documents back (JsonValue::parse walks it).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

#include "campaign/json.hpp"

namespace dq::campaign {
namespace {

TEST(Json, DumpIsCanonical) {
  JsonValue o = JsonValue::object();
  o.set("b", JsonValue::integer(2));
  o.set("a", JsonValue::number(0.5));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::boolean(true));
  arr.push_back(JsonValue());
  arr.push_back(JsonValue::str("x\n\"y\""));
  o.set("list", std::move(arr));
  // Insertion order, no whitespace, shortest round-trip numbers,
  // escaped control characters.
  EXPECT_EQ(o.dump(), "{\"b\":2,\"a\":0.5,\"list\":[true,null,"
                      "\"x\\n\\\"y\\\"\"]}");
}

TEST(Json, ParseRoundTripsDump) {
  const std::string text =
      "{\"schema\":1,\"x\":-2.25,\"big\":18446744073709551615,"
      "\"s\":\"a\\u0041\\t\",\"v\":[1,2.5,false,null,{}]}";
  const JsonValue parsed = JsonValue::parse(text);
  EXPECT_EQ(parsed.at("big").as_uint(), 18446744073709551615ULL);
  EXPECT_EQ(parsed.at("s").as_string(), "aA\t");
  // dump∘parse is idempotent on canonical text (modulo the A
  // escape collapsing to its character).
  EXPECT_EQ(JsonValue::parse(parsed.dump()).dump(), parsed.dump());
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_THROW(JsonValue::parse("{"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("nul"), std::invalid_argument);
  for (const char* text : {"{\"a\" 1}", "{\"a\":1,}", "{1:2}", "[1 2]",
                           "[,1]", "[1]]", "\"open", "tru", "-", ""})
    EXPECT_THROW(JsonValue::parse(text), std::invalid_argument) << text;
}

std::string written(void (*fill)(JsonWriter&)) {
  std::string out;
  JsonWriter w(out);
  fill(w);
  return out;
}

TEST(JsonWriter, PlacesCommasAtEveryDepth) {
  EXPECT_EQ(written([](JsonWriter& w) {
              w.begin_object().key("a").begin_array().integer(1);
              w.begin_array().integer(2).integer(3).end_array();
              w.begin_object().key("x").null().key("y").boolean(false);
              w.end_object().end_array();
              w.key("b").begin_object().key("c").begin_array();
              w.begin_array().end_array().str("s").end_array();
              w.end_object().key("d").number(0.25).end_object();
            }),
            "{\"a\":[1,[2,3],{\"x\":null,\"y\":false}],"
            "\"b\":{\"c\":[[],\"s\"]},\"d\":0.25}");
  // Top-level values in sequence are comma-separated too.
  EXPECT_EQ(written([](JsonWriter& w) { w.integer(1).integer(2); }), "1,2");
}

TEST(JsonWriter, WritesEmptyContainers) {
  EXPECT_EQ(written([](JsonWriter& w) { w.begin_array().end_array(); }),
            "[]");
  EXPECT_EQ(written([](JsonWriter& w) { w.begin_object().end_object(); }),
            "{}");
  EXPECT_EQ(written([](JsonWriter& w) {
              w.begin_array().begin_array().end_array();
              w.begin_object().end_object().end_array();
            }),
            "[[],{}]");
  EXPECT_EQ(written([](JsonWriter& w) {
              w.begin_object().key("").begin_object().end_object();
              w.key("e").begin_array().end_array().end_object();
            }),
            "{\"\":{},\"e\":[]}");
}

TEST(JsonWriter, EscapesKeysLikeStrings) {
  const std::string out = written([](JsonWriter& w) {
    w.begin_object().key("a\"b\\c\n\x01").str("t\tr\r\x1f").end_object();
  });
  EXPECT_EQ(out, "{\"a\\\"b\\\\c\\n\\u0001\":\"t\\tr\\r\\u001f\"}");
  const JsonValue back = JsonValue::parse(out);
  EXPECT_EQ(back.members()[0].first, "a\"b\\c\n\x01");
  EXPECT_EQ(back.members()[0].second.as_string(), "t\tr\r\x1f");
}

TEST(JsonWriter, RejectsNonFiniteNumbers) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::string out;
    JsonWriter w(out);
    EXPECT_THROW(w.number(bad), std::invalid_argument);
    EXPECT_THROW(JsonValue::number(bad).dump(), std::invalid_argument);
    EXPECT_THROW(format_double(bad), std::invalid_argument);
  }
}

TEST(JsonWriter, FormatsNumbersCanonically) {
  EXPECT_EQ(written([](JsonWriter& w) {
              w.begin_array().integer(0).integer(18446744073709551615ULL);
              w.number(-1.0).number(0.1).number(1e30).number(2.5e-7);
              w.end_array();
            }),
            "[0,18446744073709551615,-1,0.1,1e+30,2.5e-07]");
  EXPECT_EQ(format_double(0.1), "0.1");
}

/// Random document tree: every kind, nested up to `depth`, strings
/// with control, quote, backslash and non-ASCII bytes.
JsonValue random_tree(std::mt19937_64& rng, int depth) {
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  const auto random_string = [&] {
    static constexpr char kAlphabet[] = "ab\"\\\n\t\x01\x1f \xc3\xa9z/";
    std::string s(pick(6), ' ');
    for (char& c : s) c = kAlphabet[pick(sizeof(kAlphabet) - 1)];
    return s;
  };
  switch (pick(depth > 0 ? 8 : 6)) {
    case 0: return JsonValue();
    case 1: return JsonValue::boolean(pick(2) == 1);
    case 2: return JsonValue::integer(rng() >> pick(64));
    case 3: {
      double d;
      do {
        const std::uint64_t bits = rng();
        std::memcpy(&d, &bits, sizeof d);
      } while (!std::isfinite(d));
      return JsonValue::number(d);
    }
    case 4: return JsonValue::number(static_cast<double>(pick(2001)) / 8.0 -
                                     125.0);
    case 5: return JsonValue::str(random_string());
    case 6: {
      JsonValue a = JsonValue::array();
      for (std::uint64_t i = pick(5); i > 0; --i)
        a.push_back(random_tree(rng, depth - 1));
      return a;
    }
    default: {
      JsonValue o = JsonValue::object();
      for (std::uint64_t i = pick(5); i > 0; --i)
        o.set(random_string(), random_tree(rng, depth - 1));
      return o;
    }
  }
}

TEST(JsonWriter, ValueOfATreeEqualsItsDump) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 200; ++i) {
    const JsonValue tree = random_tree(rng, 4);
    std::string out;
    JsonWriter w(out);
    w.begin_array().value(tree).value(tree).end_array();
    EXPECT_EQ(out, "[" + tree.dump() + "," + tree.dump() + "]");
  }
}

TEST(JsonWriter, RandomTreesSurviveParseOfDump) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::string text = random_tree(rng, 5).dump();
    EXPECT_EQ(JsonValue::parse(text).dump(), text) << "tree " << i;
  }
}

TEST(JsonReader, PullsTokensWithAnyWhitespace) {
  using Token = JsonReader::Token;
  const std::string text =
      " {\"n\" :\t18446744073709551615 ,\n\"s\":\"x\\ny\",\r\"v\":[ ]} ";
  JsonReader in(text);
  EXPECT_EQ(in.next(), Token::kBeginObject);
  EXPECT_EQ(in.next(), Token::kKey);
  EXPECT_EQ(in.as_string(), "n");
  EXPECT_EQ(in.next(), Token::kNumber);
  EXPECT_EQ(in.as_uint(), 18446744073709551615ULL);
  EXPECT_THROW(in.as_string(), std::invalid_argument);
  EXPECT_EQ(in.next(), Token::kKey);
  EXPECT_EQ(in.next(), Token::kString);
  EXPECT_EQ(in.as_string(), "x\ny");
  EXPECT_THROW(in.as_number(), std::invalid_argument);
  EXPECT_EQ(in.next(), Token::kKey);
  EXPECT_EQ(in.next(), Token::kBeginArray);
  EXPECT_EQ(in.next(), Token::kEndArray);
  EXPECT_EQ(in.next(), Token::kEndObject);
  EXPECT_EQ(in.next(), Token::kEnd);
}

TEST(JsonReader, SkipLandsOnTheNextSibling) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 500; ++i) {
    const std::string text = "[" + random_tree(rng, 5).dump() + ",7]";
    JsonReader in(text);
    ASSERT_EQ(in.next(), JsonReader::Token::kBeginArray);
    in.skip(in.next());
    ASSERT_EQ(in.next(), JsonReader::Token::kNumber) << text;
    EXPECT_EQ(in.as_uint(), 7u);
    EXPECT_EQ(in.next(), JsonReader::Token::kEndArray);
    EXPECT_EQ(in.next(), JsonReader::Token::kEnd);
  }
}

TEST(JsonReader, CapsNestingAndCountsFromTheInput) {
  const std::string deep(JsonValue::kMaxParseDepth + 1, '[');
  JsonReader in(deep);
  for (std::size_t i = 0; i < JsonValue::kMaxParseDepth; ++i)
    ASSERT_EQ(in.next(), JsonReader::Token::kBeginArray);
  EXPECT_THROW(in.next(), std::invalid_argument);
  // Five unread bytes hold at most three entries, whatever count a
  // document claims.
  const std::string small = "[1,2]";
  EXPECT_EQ(JsonReader(small).room_for(std::uint64_t{1} << 40), 3u);
  EXPECT_EQ(JsonReader(small).room_for(2), 2u);
}

}  // namespace
}  // namespace dq::campaign
