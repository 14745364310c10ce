// Tests for the utility substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/options.hpp"
#include "util/prng.hpp"
#include "util/rss.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace gfre {
namespace {

TEST(ErrorHandling, AssertThrowsWithContext) {
  try {
    GFRE_ASSERT(1 == 2, "context " << 42);
    FAIL() << "assert did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(ErrorHandling, ParseErrorCarriesLocation) {
  const ParseError e("file.eqn", 12, "bad token");
  EXPECT_EQ(e.file(), "file.eqn");
  EXPECT_EQ(e.line(), 12);
  EXPECT_NE(std::string(e.what()).find("file.eqn:12"), std::string::npos);
}

TEST(Prng, DeterministicForSeed) {
  Prng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  // Different seeds diverge (overwhelmingly likely).
  bool diverged = false;
  Prng a2(123);
  for (int i = 0; i < 10; ++i) {
    if (a2.next_u64() != c.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Prng, NextBelowIsInRangeAndCoversValues) {
  Prng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Prng, DoubleIsUnitInterval) {
  Prng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Busy-wait a tiny amount.
  volatile unsigned long long sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_NEAR(t.micros(), t.seconds() * 1e6, 1e3);
  const double before = t.seconds();
  t.reset();
  EXPECT_LE(t.seconds(), before + 1.0);
}

TEST(TextTable, RendersAligned) {
  TextTable table({"m", "P(x)", "Runtime(s)"});
  table.add_row({"64", "x64+x21+x19+x4+1", "9.2"});
  table.add_row({"571", "x571+x10+x5+x2+1", "4089.9"});
  const std::string out = table.render("Table I");
  EXPECT_NE(out.find("Table I"), std::string::npos);
  EXPECT_NE(out.find("| m  "), std::string::npos);
  EXPECT_NE(out.find("x571"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
  // All lines equally wide (alignment check).
  std::size_t width = 0;
  std::istringstream iss(out);
  std::string line;
  std::getline(iss, line);  // title
  while (std::getline(iss, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
  }
}

TEST(TextTable, RowWidthValidated) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Formatting, Numbers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(4089.9, 1), "4089.9");
  EXPECT_EQ(fmt_int(-42), "-42");
  EXPECT_EQ(fmt_thousands(0), "0");
  EXPECT_EQ(fmt_thousands(999), "999");
  EXPECT_EQ(fmt_thousands(21814), "21,814");
  EXPECT_EQ(fmt_thousands(1628170), "1,628,170");
}

TEST(Formatting, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(37ull << 20), "37 MB");
  EXPECT_EQ(format_bytes((1ull << 30) + (1ull << 29)), "1.5 GB");
}

TEST(Rss, CurrentRssIsPositiveOnLinux) {
  // This container provides VmRSS; if the platform does not, 0 is the
  // documented fallback.
  const auto rss = current_rss_bytes();
  if (rss != 0) {
    EXPECT_GT(rss, 1024u * 1024u) << "a running process uses > 1 MB";
  }
}

// -- JSONL ------------------------------------------------------------------

/// Extracts the rendered value of a single-field JsonLine: '{"k": VALUE}'.
std::string rendered_value(const JsonLine& line) {
  const std::string text = line.render();
  const auto colon = text.find(": ");
  EXPECT_NE(colon, std::string::npos) << text;
  return text.substr(colon + 2, text.size() - colon - 3);
}

TEST(Jsonl, DoublesRoundTripBitExact) {
  // The writer used "%.9g", which drops up to 24 mantissa bits — a timing
  // re-read from a JSONL report disagreed with the run that wrote it.
  // Shortest-round-trip formatting must reproduce every value exactly.
  const double cases[] = {
      0.0,
      1.0 / 3.0,
      0.1,
      6.62607015e-34,
      -1.7976931348623157e308,  // DBL_MAX, negated
      5e-324,                   // smallest denormal
      9007199254740991.0,       // 2^53 - 1
      123456.78901234567,
      1.0000000000000002,       // 1 + ulp
  };
  for (const double value : cases) {
    JsonLine line;
    line.add("v", value);
    const std::string text = rendered_value(line);
    char* end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    EXPECT_EQ(end, text.c_str() + text.size()) << "'" << text << "'";
    EXPECT_EQ(parsed, value) << "'" << text << "' is not round-trip exact";
  }
}

TEST(Jsonl, EscapesControlAndQuoteCharacters) {
  JsonLine line;
  line.add("v", std::string("a\"b\\c\n\t\r\x01\x1f") + '\0' + "z");
  EXPECT_EQ(rendered_value(line),
            "\"a\\\"b\\\\c\\n\\t\\r\\u0001\\u001f\\u0000z\"");
  // Keys are escaped with the same rules.
  JsonLine key_line;
  key_line.add("k\n", std::size_t{1});
  EXPECT_EQ(key_line.render(), "{\"k\\n\": 1}");
}

TEST(Jsonl, WriterRoundTripsThroughAFile) {
  const std::string path = ::testing::TempDir() + "jsonl_roundtrip.jsonl";
  const double wall = 0.12345678901234567;
  {
    JsonlWriter writer(path);
    JsonLine line;
    line.add("name", "job \"quoted\"\n");
    line.add("ok", true);
    line.add("wall_s", wall);
    writer.write(line);
    writer.close();
    EXPECT_TRUE(writer.ok());
    EXPECT_EQ(writer.lines_written(), 1u);
  }
  std::ifstream in(path);
  std::string text;
  ASSERT_TRUE(std::getline(in, text));
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"job \\\"quoted\\\"\\n\""),
            std::string::npos)
      << text;
  // The written double parses back to the identical value.
  const auto key = text.find("\"wall_s\": ");
  ASSERT_NE(key, std::string::npos);
  EXPECT_EQ(std::strtod(text.c_str() + key + 10, nullptr), wall);
  std::remove(path.c_str());
  EXPECT_THROW(JsonlWriter("/no/such/dir/report.jsonl"), Error);
}

TEST(Options, EnvParsing) {
  ::setenv("GFRE_TEST_LONG", "42", 1);
  EXPECT_EQ(env_long("GFRE_TEST_LONG", 7), 42);
  ::setenv("GFRE_TEST_LONG", "not-a-number", 1);
  EXPECT_EQ(env_long("GFRE_TEST_LONG", 7), 7);
  ::unsetenv("GFRE_TEST_LONG");
  EXPECT_EQ(env_long("GFRE_TEST_LONG", 7), 7);
  ::setenv("GFRE_TEST_STR", "hello", 1);
  EXPECT_EQ(env_string("GFRE_TEST_STR", "x"), "hello");
  ::unsetenv("GFRE_TEST_STR");
  EXPECT_EQ(env_string("GFRE_TEST_STR", "x"), "x");
  EXPECT_GE(configured_threads(), 1u);
}

TEST(Options, ParseU64IsStrict) {
  EXPECT_EQ(parse_u64("0", "k"), 0u);
  EXPECT_EQ(parse_u64("007", "k"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615", "k"), 18446744073709551615u);
  for (const char* bad : {"", "-1", "+5", " 5", "5 ", "1e6", "5s", "12abc",
                          "0x10", "18446744073709551616"}) {
    try {
      parse_u64(bad, "--max-terms");
      FAIL() << "accepted '" << bad << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("--max-terms"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace gfre
