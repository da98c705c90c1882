// json::Writer tests: escaping, number spelling and layout goldens, misuse
// checks, and a seeded property test that every random writer document
// comes back from json::Parse bit-exact while every proper prefix of it is
// rejected (a truncated artifact must never read as a valid one).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/common/rng.h"

namespace papd {
namespace {

std::string Doc(json::Writer* w) {
  std::string text = w->Finish();
  EXPECT_EQ(text.back(), '\n');
  text.pop_back();
  return text;
}

double RoundTrip(double v) {
  json::Writer w;
  w.BeginArray().Number(v).EndArray();
  const json::ParseResult r = json::Parse(w.Finish());
  EXPECT_TRUE(r.ok) << r.error;
  return r.value.AsArray().at(0).AsNumber();
}

TEST(JsonWriter, EscapesQuotesBackslashesAndEveryControlCharacter) {
  std::string all;
  for (int c = 1; c < 0x20; c++) {
    all += static_cast<char>(c);
  }
  all += "\"\\/\x7f";
  json::Writer w;
  w.BeginArray().String("a\tb\n\"q\"\\").String(all).EndArray();
  const std::string text = Doc(&w);
  EXPECT_NE(text.find(R"("a\tb\n\"q\"\\")"), std::string::npos) << text;
  EXPECT_NE(text.find(R"(\u0001)"), std::string::npos);
  EXPECT_NE(text.find(R"(\b)"), std::string::npos);
  EXPECT_NE(text.find(R"(\f)"), std::string::npos);
  EXPECT_NE(text.find(R"(\r)"), std::string::npos);
  EXPECT_NE(text.find(R"(\u001f)"), std::string::npos);
  // The only raw control characters left are the layout's line breaks.
  for (char c : text) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n') << static_cast<int>(c);
  }
  const json::ParseResult r = json::Parse(text);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.AsArray()[1].AsString(), all);
}

TEST(JsonWriter, NumbersAreShortestRoundTripAndIntegersExact) {
  json::Writer w;
  w.BeginArray().Number(0.1).Number(44.25).Number(1234567.0).Uint(1234567).Int(-42);
  w.Number(-0.0).Number(1e308).Number(5e-324).EndArray();
  EXPECT_EQ(Doc(&w), "[\n  0.1,\n  44.25,\n  1234567,\n  1234567,\n  -42,\n  -0,\n  1e+308,\n  5e-324\n]");
  // A counter of 1234567 used to be spelled %g (1.23457e+06).
  EXPECT_EQ(RoundTrip(1234567.0), 1234567.0);
  EXPECT_EQ(RoundTrip(0.1 + 0.2), 0.1 + 0.2);
  EXPECT_TRUE(std::signbit(RoundTrip(-0.0)));
  EXPECT_EQ(RoundTrip(std::numeric_limits<double>::denorm_min()),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(RoundTrip(std::numeric_limits<double>::max()), std::numeric_limits<double>::max());
}

TEST(JsonWriter, NonFiniteNumbersAreNull) {
  json::Writer w;
  w.BeginObject();
  w.Key("nan").Number(std::numeric_limits<double>::quiet_NaN());
  w.Key("inf").Number(std::numeric_limits<double>::infinity());
  w.Key("-inf").Number(-std::numeric_limits<double>::infinity());
  w.EndObject();
  const json::ParseResult r = json::Parse(w.Finish());
  ASSERT_TRUE(r.ok) << r.error;
  for (const json::Value::Member& m : r.value.AsObject()) {
    EXPECT_TRUE(m.second.is_null()) << m.first;
  }
}

// Members and elements of the two outermost containers get their own line;
// deeper containers stay compact (one trace event / bench row per line).
TEST(JsonWriter, LayoutGolden) {
  json::Writer w;
  w.BeginObject();
  w.Key("rows").BeginArray();
  w.BeginObject().Key("a").Int(1).Key("b").BeginArray().Bool(true).Null().EndArray().EndObject();
  w.BeginObject().EndObject();
  w.EndArray();
  w.Key("meta").BeginObject().Key("s").String("x").EndObject();
  w.Key("empty").BeginArray().EndArray();
  w.EndObject();
  EXPECT_EQ(w.Finish(),
            "{\n"
            "  \"rows\":[\n"
            "    {\"a\":1,\"b\":[true,null]},\n"
            "    {}\n"
            "  ],\n"
            "  \"meta\":{\n"
            "    \"s\":\"x\"\n"
            "  },\n"
            "  \"empty\":[]\n"
            "}\n");
}

TEST(JsonWriterDeathTest, MisuseFailsACheck) {
  EXPECT_DEATH(
      {
        json::Writer w;
        w.BeginObject().Int(1);
      },
      "without a Key");
  EXPECT_DEATH(
      {
        json::Writer w;
        w.BeginArray().Key("k");
      },
      "outside an object");
  EXPECT_DEATH(
      {
        json::Writer w;
        w.BeginArray().EndObject();
      },
      "does not close");
  EXPECT_DEATH(
      {
        json::Writer w;
        w.BeginObject().Key("k").EndObject();
      },
      "Key without a value");
  EXPECT_DEATH(
      {
        json::Writer w;
        w.Int(1).Int(2);
      },
      "one top-level value");
  EXPECT_DEATH(
      {
        json::Writer w;
        w.BeginArray();
        w.Finish();
      },
      "document incomplete");
}

// --- Property: random documents round-trip bit-exact ------------------------

// Writes one random document and builds, alongside, the json::Value the
// reader must reproduce from it.
class RandomDocument {
 public:
  explicit RandomDocument(uint64_t seed) : rng_(seed) {}

  json::Value Write(json::Writer* w) { return Container(w, 0); }

 private:
  static constexpr int kMaxDepth = 3;

  json::Value Container(json::Writer* w, int depth) {
    const uint64_t n = rng_.NextBelow(5);
    if (rng_.NextBelow(2) == 0) {
      std::vector<json::Value> elements;
      w->BeginArray();
      for (uint64_t i = 0; i < n; i++) {
        elements.push_back(Any(w, depth + 1));
      }
      w->EndArray();
      return json::Value::MakeArray(std::move(elements));
    }
    std::vector<json::Value::Member> members;
    w->BeginObject();
    for (uint64_t i = 0; i < n; i++) {
      std::string key = String();
      w->Key(key);
      json::Value value = Any(w, depth + 1);
      members.emplace_back(std::move(key), std::move(value));
    }
    w->EndObject();
    return json::Value::MakeObject(std::move(members));
  }

  json::Value Any(json::Writer* w, int depth) {
    switch (rng_.NextBelow(depth < kMaxDepth ? 8 : 6)) {
      case 0:
        w->Null();
        return json::Value::MakeNull();
      case 1: {
        const bool b = rng_.NextBelow(2) == 1;
        w->Bool(b);
        return json::Value::MakeBool(b);
      }
      case 2: {
        std::string s = String();
        w->String(s);
        return json::Value::MakeString(std::move(s));
      }
      case 3: {
        const double d = Double();
        w->Number(d);
        return json::Value::MakeNumber(d);
      }
      case 4: {
        const int64_t i = static_cast<int64_t>(rng_.NextBelow(kTwo53 + 1)) *
                          (rng_.NextBelow(2) == 0 ? 1 : -1);
        w->Int(i);
        return json::Value::MakeNumber(static_cast<double>(i));
      }
      case 5: {
        const uint64_t u = rng_.NextBelow(kTwo53 + 1);
        w->Uint(u);
        return json::Value::MakeNumber(static_cast<double>(u));
      }
      default:
        return Container(w, depth);
    }
  }

  // Bytes 0x01..0x7f, weighted towards the ones that need escaping.
  std::string String() {
    static constexpr char kSpecial[] = "\"\\/\b\f\n\r\t\x01\x1f\x7f";
    std::string s;
    const uint64_t n = rng_.NextBelow(12);
    for (uint64_t i = 0; i < n; i++) {
      switch (rng_.NextBelow(3)) {
        case 0:
          s += kSpecial[rng_.NextBelow(sizeof(kSpecial) - 1)];
          break;
        case 1:
          s += static_cast<char>(1 + rng_.NextBelow(0x1f));  // Any control char.
          break;
        default:
          s += static_cast<char>(1 + rng_.NextBelow(0x7f));
      }
    }
    return s;
  }

  double Double() {
    const double sign = rng_.NextBelow(2) == 0 ? 1.0 : -1.0;
    switch (rng_.NextBelow(7)) {
      case 0:
        return sign * 0.0;
      case 1:  // Subnormal: a random non-zero mantissa under a zero exponent.
        return sign * FromBits(1 + rng_.NextBelow((uint64_t{1} << 52) - 1));
      case 2:
        return sign * 1e308;
      case 3:
        return sign * static_cast<double>(rng_.NextBelow(kTwo53 + 1));
      case 4:
        return sign * rng_.Uniform(0.0, 1000.0);
      default: {  // Any finite bit pattern.
        double d = 0.0;
        do {
          d = FromBits(rng_.NextU64());
        } while (!std::isfinite(d));
        return d;
      }
    }
  }

  static double FromBits(uint64_t bits) {
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }

  static constexpr uint64_t kTwo53 = uint64_t{1} << 53;
  Rng rng_;
};

TEST(JsonWriterProperty, RandomDocumentsRoundTripAndTruncationsFail) {
  for (uint64_t seed = 1; seed <= 300; seed++) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    RandomDocument gen(seed);
    json::Writer w;
    const json::Value want = gen.Write(&w);
    const std::string text = Doc(&w);

    const json::ParseResult full = json::Parse(text);
    ASSERT_TRUE(full.ok) << full.error << "\n" << text;
    ASSERT_TRUE(full.value == want) << text;

    for (size_t len = 0; len < text.size(); len++) {
      ASSERT_FALSE(json::Parse(text.substr(0, len)).ok)
          << "prefix of " << len << " bytes parsed:\n" << text.substr(0, len);
    }
  }
}

}  // namespace
}  // namespace papd
