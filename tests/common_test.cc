// Unit tests for src/common: RNG, statistics, tables, JSON reader.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"

namespace papd {
namespace {

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(GhzToMhz(2.2).value(), 2200.0);
  EXPECT_DOUBLE_EQ(MhzToGhz(Mhz{800.0}), 0.8);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.NextU64() == b.NextU64()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; i++) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; i++) {
    const double x = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, NextBelowBoundsAndCoverage) {
  Rng rng(11);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 10000; i++) {
    const uint64_t x = rng.NextBelow(10);
    ASSERT_LT(x, 10u);
    histogram[static_cast<size_t>(x)]++;
  }
  for (int count : histogram) {
    EXPECT_GT(count, 800);  // ~1000 expected per bucket.
    EXPECT_LT(count, 1200);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; i++) {
    const double x = rng.Exponential(2.5);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 2.5, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  Accumulator acc;
  for (int i = 0; i < 100000; i++) {
    acc.Add(rng.Normal(10.0, 3.0));
  }
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 3.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Split();
  // The two streams should not be identical.
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.NextU64() == child.NextU64()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    acc.Add(x);
  }
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 1.25);  // Population variance.
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(Accumulator, EmptyIsSafe) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Rng rng(3);
  Accumulator all;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 1000; i++) {
    const double x = rng.Uniform(-5, 20);
    all.Add(x);
    (i % 2 == 0 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a;
  a.Add(1.0);
  a.Add(3.0);
  Accumulator empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Percentile, KnownValues) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 9.1);
}

TEST(Percentile, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 50), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99), 7.0);
}

TEST(Percentile, UnsortedInput) {
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3, 2, 4}, 50), 3.0);
}

// Selection (PercentileInPlace) and one shared sort (PercentileOfSorted)
// return Percentile's value bit for bit, duplicates and unit types
// included, and successive selections on one buffer stay exact.
TEST(Percentile, SelectionAndSortedVariantsAreBitIdentical) {
  Rng rng(11);
  for (int iter = 0; iter < 200; iter++) {
    std::vector<Seconds> samples(1 + rng.NextBelow(300));
    for (Seconds& s : samples) {
      // Coarse values make duplicates common.
      s = Seconds{std::floor(rng.Uniform(0.0, 50.0)) * 0.01};
    }
    std::vector<Seconds> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    std::vector<Seconds> scratch = samples;
    for (const double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0, 37.5}) {
      const Seconds want = Percentile(samples, p);
      EXPECT_EQ(PercentileOfSorted(sorted, p).value(), want.value()) << "p" << p;
      EXPECT_EQ(PercentileInPlace(&scratch, p).value(), want.value()) << "p" << p;
    }
  }
  std::vector<double> empty;
  EXPECT_EQ(PercentileInPlace(&empty, 50.0), 0.0);
  EXPECT_EQ(PercentileOfSorted(empty, 50.0), 0.0);
}

TEST(BoxStats, MatchesPercentiles) {
  std::vector<double> v;
  for (int i = 1; i <= 101; i++) {
    v.push_back(i);
  }
  const BoxStats s = Summarize(v);
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.median, 51.0);
  EXPECT_DOUBLE_EQ(s.q1, 26.0);
  EXPECT_DOUBLE_EQ(s.q3, 76.0);
  EXPECT_DOUBLE_EQ(s.p1, 2.0);
  EXPECT_DOUBLE_EQ(s.p99, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 51.0);
}

TEST(BoxStats, Empty) {
  const BoxStats s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
}

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.SetHeader({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Num(3.0, 0), "3");
}

TEST(TextTable, CsvEscaping) {
  TextTable t;
  t.SetHeader({"a", "b"});
  t.AddRow({"plain", "with,comma"});
  t.AddRow({"with\"quote", "x"});
  std::ostringstream os;
  t.WriteCsv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"with\"\"quote\""), std::string::npos);
}

TEST(TextTable, ShortRowsTolerated) {
  TextTable t;
  t.SetHeader({"a", "b", "c"});
  t.AddRow({"only-one"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

// --- JSON reader -------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::Parse("null").value.is_null());
  EXPECT_TRUE(json::Parse("true").value.AsBool());
  EXPECT_FALSE(json::Parse("false").value.AsBool());
  EXPECT_DOUBLE_EQ(json::Parse("-12.5e2").value.AsNumber(), -1250.0);
  EXPECT_DOUBLE_EQ(json::Parse("0").value.AsNumber(), 0.0);
  EXPECT_EQ(json::Parse("\"hi\"").value.AsString(), "hi");
}

TEST(Json, ParsesNestedDocument) {
  const json::ParseResult r = json::Parse(
      R"({"a": [1, 2.5, {"b": "x"}], "c": {"d": true}, "empty": [], "eo": {}})");
  ASSERT_TRUE(r.ok) << r.error;
  const json::Value* a = r.value.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(a->AsArray()[1].AsNumber(), 2.5);
  EXPECT_EQ(a->AsArray()[2].StringOr("b", ""), "x");
  const json::Value* c = r.value.Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->Find("d")->AsBool());
  EXPECT_TRUE(r.value.Find("empty")->AsArray().empty());
  EXPECT_TRUE(r.value.Find("eo")->AsObject().empty());
}

TEST(Json, DecodesStringEscapes) {
  const json::ParseResult r = json::Parse(R"("q\"s\\n\n tab\t u\u00e9")");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.AsString(), "q\"s\\n\n tab\t u\xc3\xa9");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::Parse("").ok);
  EXPECT_FALSE(json::Parse("{").ok);
  EXPECT_FALSE(json::Parse("[1,]").ok);
  EXPECT_FALSE(json::Parse("{\"a\" 1}").ok);
  EXPECT_FALSE(json::Parse("nan").ok);
  EXPECT_FALSE(json::Parse("+1").ok);
  EXPECT_FALSE(json::Parse("\"open").ok);
  EXPECT_FALSE(json::Parse("1 trailing").ok);
  // Errors carry a position.
  EXPECT_NE(json::Parse("{\n  \"a\": oops\n}").error.find("line 2"), std::string::npos);
}

TEST(Json, NumbersFollowTheJsonGrammar) {
  // strtod accepts all of these; JSON does not.
  for (const char* bad : {"-inf", "[-nan]", "-infinity", "0x10", "[0x1p3]", "01", "[1.]",
                          "[-.5]", "1e", "[1e+]", "-", "[-]"}) {
    EXPECT_FALSE(json::Parse(bad).ok) << bad;
  }
  EXPECT_TRUE(std::signbit(json::Parse("-0").value.AsNumber()));
  EXPECT_EQ(json::Parse("[1E5]").value.AsArray()[0].AsNumber(), 1e5);
  EXPECT_EQ(json::Parse("-0.25e-2").value.AsNumber(), -0.0025);
  EXPECT_EQ(json::Parse("10").value.AsNumber(), 10.0);
}

TEST(Json, BoundsNestingDepth) {
  EXPECT_TRUE(json::Parse(std::string(256, '[') + std::string(256, ']')).ok);
  const json::ParseResult deep = json::Parse(std::string(257, '[') + std::string(257, ']'));
  EXPECT_FALSE(deep.ok);
  EXPECT_NE(deep.error.find("line 1:257: nesting deeper than 256 levels"), std::string::npos)
      << deep.error;
  // Deep enough to overflow the stack of an unbounded recursive parser.
  EXPECT_FALSE(json::Parse(std::string(1 << 20, '[')).ok);
}

TEST(Json, RejectsRawControlCharactersInStrings) {
  // RFC 8259 section 7: U+0000..U+001F inside a string must be escaped.
  const json::ParseResult tab = json::Parse("{\"k\": \"a\tb\"}");
  EXPECT_FALSE(tab.ok);
  EXPECT_NE(tab.error.find("line 1:9: unescaped control character"), std::string::npos)
      << tab.error;
  EXPECT_FALSE(json::Parse("\"line\nbreak\"").ok);
  EXPECT_FALSE(json::Parse(std::string("\"nul\0\"", 6)).ok);
  EXPECT_FALSE(json::Parse("[\"\x1f\"]").ok);
  // Escaped forms and whitespace between tokens stay legal.
  EXPECT_EQ(json::Parse("\t[\"a\\tb\", \"\\u001f\"]\n").value.AsArray()[0].AsString(), "a\tb");
  EXPECT_EQ(json::Parse("\"\x7f\"").value.AsString(), "\x7f");
}

TEST(Json, LookupHelpersDefaultOnMissingOrWrongType) {
  const json::Value doc = json::Parse(R"({"n": 4, "s": "v"})").value;
  EXPECT_DOUBLE_EQ(doc.NumberOr("n", -1.0), 4.0);
  EXPECT_DOUBLE_EQ(doc.NumberOr("missing", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(doc.NumberOr("s", -1.0), -1.0);
  EXPECT_EQ(doc.StringOr("s", "d"), "v");
  EXPECT_EQ(doc.StringOr("n", "d"), "d");
  EXPECT_EQ(doc.Find("missing"), nullptr);
  // Non-objects have no members.
  EXPECT_EQ(json::Parse("[1]").value.Find("k"), nullptr);
}

}  // namespace
}  // namespace papd
