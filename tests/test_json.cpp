// The io/json.h layer on its own: writer -> reader round trips of
// strings and numbers, exact integer limits, non-finite numbers, empty
// containers, layouts, and the reader's error contract.
#include <gtest/gtest.h>

#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/json.h"

using namespace qmcxx::io::json;

namespace
{

/// The reader's error message for `text` read by `read`, or "" if it
/// was accepted.
template<typename Fn>
std::string error_of(const std::string& text, Fn read)
{
  try
  {
    Reader r(text, "ctx");
    read(r);
    r.finish("document");
  }
  catch (const std::runtime_error& e)
  {
    return e.what();
  }
  return {};
}

double round_trip(double v)
{
  Writer w;
  w.begin_array().value(v).end_array();
  Reader r(w.str(), "round-trip");
  double out = 0.0;
  r.elements([&] { out = r.number(); });
  r.finish("array");
  return out;
}

bool same_bits(double a, double b)
{
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

} // namespace

TEST(JsonWriter, StringsWithEveryControlCharacterRoundTrip)
{
  std::string s = "quote \" backslash \\ slash / end";
  for (int c = 0; c < 0x20; ++c)
    s += static_cast<char>(c);
  s += "\x7f utf8 \xc3\xa9";
  Writer w;
  w.begin_object().member(s, s).end_object();
  // No raw control character survives into the document.
  for (const char c : w.str())
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << w.str();

  Reader r(w.str(), "strings");
  int seen = 0;
  r.members([&](const std::string& key) {
    EXPECT_EQ(key, s);
    EXPECT_EQ(r.string(), s);
    ++seen;
  });
  r.finish("object");
  EXPECT_EQ(seen, 1);
}

TEST(JsonReader, EscapesAndRawUtf8)
{
  // \u escapes cover the ASCII range the writer emits; other text
  // travels as raw UTF-8 bytes.
  Reader r("[\"\\u0041\\u001f\\/\xc3\xa9\"]", "escapes");
  std::string out;
  r.elements([&] { out = r.string(); });
  EXPECT_EQ(out, "A\x1f/\xc3\xa9");
  const auto as_string = [](Reader& x) { (void)x.string(); };
  EXPECT_NE(error_of(R"("\u00e9")", as_string).find("unsupported escape"), std::string::npos);
  EXPECT_NE(error_of(R"("\u12")", as_string).find("unsupported escape"), std::string::npos);
  EXPECT_NE(error_of(R"("\x41")", as_string).find("unsupported escape"), std::string::npos);
  EXPECT_NE(error_of(R"("abc)", as_string).find("unterminated string"), std::string::npos);
}

TEST(JsonWriter, DoublesRoundTripBitwise)
{
  for (const double v : {0.1, 1e-300, DBL_MAX, -0.0, -DBL_MAX, DBL_MIN, 1.0 / 3.0, 0.0})
    EXPECT_TRUE(same_bits(round_trip(v), v)) << json_number(v);
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(4.0), "4");
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
}

TEST(JsonWriter, IntegersAreExact)
{
  Writer w;
  w.begin_array()
      .value(INT_MIN)
      .value(INT_MAX)
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::size_t{2687750})
      .end_array();
  EXPECT_EQ(w.str(), "[-2147483648, 2147483647, 18446744073709551615, 2687750]");

  Reader r(w.str(), "ints");
  std::vector<long long> ints;
  std::uint64_t big = 0;
  int i = 0;
  r.elements([&] {
    if (i++ == 2)
      big = r.u64();
    else
      ints.push_back(r.integer());
  });
  ASSERT_EQ(ints.size(), 3u);
  EXPECT_EQ(ints[0], INT_MIN);
  EXPECT_EQ(ints[1], INT_MAX);
  EXPECT_EQ(ints[2], 2687750);
  EXPECT_EQ(big, std::numeric_limits<std::uint64_t>::max());

  const auto as_int = [](Reader& x) { (void)x.integer(); };
  EXPECT_NE(error_of("2147483648", as_int).find("integer out of range"), std::string::npos);
  EXPECT_NE(error_of("-2147483649", as_int).find("integer out of range"), std::string::npos);
  EXPECT_NE(error_of("1.0", as_int).find("expected an integer"), std::string::npos);
  const auto as_u64 = [](Reader& x) { (void)x.u64(); };
  EXPECT_NE(error_of("18446744073709551616", as_u64).find("unsigned 64-bit"),
            std::string::npos);
  EXPECT_NE(error_of("-1", as_u64).find("unsigned 64-bit"), std::string::npos);
}

TEST(JsonWriter, NonFiniteIsNull)
{
  Writer w;
  w.begin_object()
      .member("nan", std::numeric_limits<double>::quiet_NaN())
      .member("inf", std::numeric_limits<double>::infinity())
      .member("ninf", -std::numeric_limits<double>::infinity())
      .end_object();
  EXPECT_EQ(w.str(), R"({"nan": null, "inf": null, "ninf": null})");
}

TEST(JsonWriter, EmptyContainersAndLayouts)
{
  using Layout = Writer::Layout;
  Writer w;
  w.begin_object(Layout::Lines);
  w.key("empty_object").begin_object(Layout::Lines).end_object();
  w.key("empty_array").begin_array(Layout::Padded).end_array();
  w.key("padded").begin_object(Layout::Padded).member("a", 1).member("b", true).end_object();
  w.key("broken").begin_object(Layout::Padded).member("a", 1).newline().member("b", 2);
  w.end_object();
  w.key("rows").begin_array(Layout::Lines);
  w.begin_array().value(1).value(2).end_array();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n"
                     "  \"empty_object\": {},\n"
                     "  \"empty_array\": [],\n"
                     "  \"padded\": { \"a\": 1, \"b\": true },\n"
                     "  \"broken\": { \"a\": 1,\n"
                     "    \"b\": 2 },\n"
                     "  \"rows\": [\n"
                     "    [1, 2]\n"
                     "  ]\n"
                     "}");

  Reader r(" { \"o\" : { } , \"a\" : [ ] } ", "empty");
  int members = 0, nested = 0;
  r.members([&](const std::string& key) {
    ++members;
    if (key == "o")
      r.members([&](const std::string&) { ++nested; });
    else
      r.elements([&] { ++nested; });
  });
  r.finish("object");
  EXPECT_EQ(members, 2);
  EXPECT_EQ(nested, 0);
}

TEST(JsonReader, DuplicateKeyAndByteOffsets)
{
  const auto skip_object = [](Reader& x) {
    x.members([&](const std::string&) { (void)x.integer(); });
  };
  EXPECT_EQ(error_of(R"({"a": 1, "b": 2, "a": 3})", skip_object),
            "ctx: duplicate key 'a' at byte 17");
  // Repeats are per object: the same key in sibling objects is fine.
  EXPECT_EQ(error_of(R"([{"a": 1}, {"a": 2}])",
                     [&](Reader& x) { x.elements([&] { skip_object(x); }); }),
            "");
  EXPECT_EQ(error_of(R"({"a" 1})", skip_object), "ctx: expected ':', found '1' at byte 5");
  EXPECT_EQ(error_of(R"({"a": 1} x)", skip_object),
            "ctx: trailing characters after the document at byte 9");
  EXPECT_EQ(error_of("{\"a\tb\": 1}", skip_object),
            "ctx: raw control character in string at byte 3");
}

TEST(JsonReader, NumbersFollowRfc8259)
{
  const auto as_number = [](Reader& x) { (void)x.number(); };
  for (const char* bad : {"+3", ".5", "01", "-01", "1.", "1e", "1e+", "-", "1.5.2", "1-2"})
    EXPECT_NE(error_of(bad, as_number).find("malformed number"), std::string::npos) << bad;
  for (const char* good : {"0", "-0", "3", "-3", "0.5", "10.25", "1e3", "1E-3", "2.5e+10"})
    EXPECT_EQ(error_of(good, as_number), "") << good;
  EXPECT_NE(error_of("nan", as_number).find("expected a number"), std::string::npos);
  EXPECT_NE(error_of("1e400", as_number).find("out of range"), std::string::npos);
}
