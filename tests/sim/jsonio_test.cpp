// sim::jsonio: the number grammar, the unsigned parser's range checks, the
// walkers' error messages and the whole-document wrapper.
#include "sim/jsonio.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace puno::sim::jsonio {
namespace {

/// True iff `text` is exactly one JSON value (surrounding whitespace
/// allowed).
bool one_value(std::string_view text) {
  std::string_view s = text;
  if (!skip_value(s)) return false;
  skip_ws(s);
  return s.empty();
}

bool u64_of(std::string_view text, std::uint64_t& v) {
  std::string_view s = text;
  if (!parse_u64(s, v)) return false;
  skip_ws(s);
  return s.empty();
}

TEST(JsonioNumber, FollowsTheJsonGrammar) {
  for (const char* ok : {"0", "-1", "01", "1.5", "1e3", "1E-2", "1.5e+3",
                         "-0.25E-2", "12345678901234567890"}) {
    EXPECT_TRUE(one_value(ok)) << ok;
  }
  for (const char* bad : {"-", "e", "+", "..", "1.2.3", "1.", "1e", "1e+",
                          ".5", "+5", "1-2", "0x10", "--1"}) {
    EXPECT_FALSE(one_value(bad)) << bad;
  }
}

TEST(JsonioNumber, DoublesRoundTripTheWriterSpelling) {
  for (const double v : {0.0, -1.5, 0.1, 1e-300, 123456.789, 1.7e308}) {
    std::ostringstream os;
    write_value(os, v);
    const std::string text = os.str();
    std::string_view s = text;
    double back = 0;
    ASSERT_TRUE(parse_double(s, back)) << text;
    EXPECT_EQ(back, v) << text;
    EXPECT_TRUE(s.empty());
  }
}

TEST(JsonioNumber, U64RejectsSignsAndOverflow) {
  std::uint64_t v = 0;
  EXPECT_FALSE(u64_of("-1", v));
  EXPECT_FALSE(u64_of("-0", v));
  EXPECT_FALSE(u64_of("-18446744073709551615", v));
  EXPECT_FALSE(u64_of("18446744073709551616", v));
  EXPECT_FALSE(u64_of("99999999999999999999", v));
  EXPECT_FALSE(u64_of("1e20", v));
  EXPECT_FALSE(u64_of("1.8446744073709552e19", v));  // == 2^64

  ASSERT_TRUE(u64_of("18446744073709551615", v));
  EXPECT_EQ(v, 18446744073709551615ull);
  ASSERT_TRUE(u64_of("0", v));
  EXPECT_EQ(v, 0u);
}

TEST(JsonioNumber, U64ToleratesAFloatSpellingBelow2To64) {
  std::uint64_t v = 0;
  ASSERT_TRUE(u64_of("1e3", v));
  EXPECT_EQ(v, 1000u);
  ASSERT_TRUE(u64_of("1.8e19", v));
  EXPECT_EQ(v, 18000000000000000000ull);
}

TEST(JsonioValue, LiteralsStringsAndNesting) {
  EXPECT_TRUE(one_value("true"));
  EXPECT_TRUE(one_value("false"));
  EXPECT_TRUE(one_value("null"));
  EXPECT_FALSE(one_value("nul"));
  EXPECT_FALSE(one_value("tru"));
  EXPECT_TRUE(one_value(R"({"a":[1,{"b":null}],"c":"x\"\\\/\b\f\n\r\t"})"));
  EXPECT_FALSE(one_value(R"("bad \x escape")"));
  EXPECT_FALSE(one_value(R"("\u12g4")"));
  EXPECT_FALSE(one_value(R"("unterminated)"));
  EXPECT_FALSE(one_value("[1,]"));
  EXPECT_FALSE(one_value(R"({"a":1,})"));
  EXPECT_TRUE(one_value(" [ ] "));
  EXPECT_TRUE(one_value(" { } "));
}

TEST(JsonioValue, EscapeRoundTripsThroughParseString) {
  const std::string raw = "q\"b\\n\nt\tr\rc\x01/";
  const std::string quoted = "\"" + escape(raw) + "\"";
  std::string_view s = quoted;
  std::string back;
  ASSERT_TRUE(parse_string(s, back));
  EXPECT_EQ(back, raw);
  EXPECT_TRUE(s.empty());
}

TEST(JsonioValue, ArraysParseAndWrite) {
  std::vector<std::uint64_t> v;
  std::string_view s = " [1, 2 ,3] ";
  ASSERT_TRUE(parse_value(s, v));
  EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2, 3}));
  std::ostringstream os;
  write_value(os, v);
  EXPECT_EQ(os.str(), "[1,2,3]");
  std::ostringstream empty;
  write_value(empty, std::vector<std::uint64_t>{});
  EXPECT_EQ(empty.str(), "[]");
  s = "[1,-2]";
  EXPECT_FALSE(parse_value(s, v));
}

TEST(JsonioWalker, QuotesTheFailingValueFromItsStart) {
  std::string err;
  EXPECT_FALSE(parse_document(
      R"({"ts":1.})",
      [](const std::string&, std::string_view& s) { return skip_value(s); },
      &err));
  EXPECT_EQ(err, "bad value for \"ts\" near '1.}'");
}

TEST(JsonioWalker, InnermostFailureWins) {
  std::string err;
  const auto inner = [&](const std::string& key, std::string_view& s) {
    if (key != "outer") return skip_value(s);
    return parse_array(
        s,
        [&](std::string_view& e) {
          return parse_object(
              e,
              [](const std::string&, std::string_view& v) {
                std::uint64_t n = 0;
                return parse_u64(v, n);
              },
              &err);
        },
        &err);
  };
  EXPECT_FALSE(
      parse_document(R"({"outer":[{"n":1},{"n":oops}]})", inner, &err));
  EXPECT_EQ(err, "bad value for \"n\" near 'oops}]}'");
}

TEST(JsonioWalker, TokenStopsAtNewlineAndLength) {
  EXPECT_EQ(offending_token("  abc\ndef"), "abc");
  EXPECT_EQ(offending_token(""), "<end of input>");
  EXPECT_EQ(offending_token(std::string(40, 'x')), std::string(24, 'x'));
}

TEST(JsonioDocument, ClearsErrAndRejectsTrailingContent) {
  const auto any = [](const std::string&, std::string_view& s) {
    return skip_value(s);
  };
  std::string err = "stale message";
  EXPECT_TRUE(parse_document(R"( {"a":1} )", any, &err));
  EXPECT_TRUE(err.empty()) << err;

  err = "stale message";
  EXPECT_FALSE(parse_document(R"({"a":1} tail)", any, &err));
  EXPECT_EQ(err, "trailing garbage near 'tail'");

  EXPECT_FALSE(parse_document("", any, &err));
  EXPECT_EQ(err, "expected '{' near '<end of input>'");
  EXPECT_FALSE(parse_document("[]", any, &err));
  EXPECT_EQ(err, "expected '{' near '[]'");
  EXPECT_FALSE(parse_document(R"({"a":1 "b":2})", any, &err));
  EXPECT_EQ(err, "expected ',' or '}' near '\"b\":2}'");
  EXPECT_TRUE(parse_document("{}", any, nullptr));
}

}  // namespace
}  // namespace puno::sim::jsonio
