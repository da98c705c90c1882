// The repo's one JSON module: a reader and a writer (no third-party
// serializer, by design).
//
// Every artifact the repo emits (Chrome traces, sweep results, the
// perf_harness report) goes through json::Writer, which alone decides
// escaping, number spelling and layout; papdctl's `fleet` subcommand reads
// sweep artifacts back through json::Parse, a small recursive-descent
// parser with position-carrying errors.  Documents the writer would not
// produce (NaN/Infinity literals, comments, trailing commas, raw control
// characters inside strings) are rejected.

#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace papd {
namespace json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  // Object members keep document order (the artifacts are written in a
  // deliberate order; tools echo it back).
  using Member = std::pair<std::string, Value>;

  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors; calling the wrong one returns the type's zero value
  // rather than asserting, so lookup chains over partially-missing
  // documents stay linear (check is_*() when the distinction matters).
  bool AsBool() const { return is_bool() ? bool_ : false; }
  double AsNumber() const { return is_number() ? number_ : 0.0; }
  const std::string& AsString() const { return string_; }
  const std::vector<Value>& AsArray() const { return array_; }
  const std::vector<Member>& AsObject() const { return object_; }

  // Object lookup; nullptr when absent or this is not an object.
  const Value* Find(const std::string& key) const;

  // Conveniences for "key, or default" reads on objects.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key, const std::string& fallback) const;

  // The same document, exactly: members in order, numbers by bit pattern.
  bool operator==(const Value& other) const;

  // Construction is via Parse(); these are for the parser and tests.
  static Value MakeNull() { return Value(); }
  static Value MakeBool(bool v);
  static Value MakeNumber(double v);
  static Value MakeString(std::string v);
  static Value MakeArray(std::vector<Value> v);
  static Value MakeObject(std::vector<Member> v);

 private:
  explicit Value(Kind kind) : kind_(kind) {}

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

struct ParseResult {
  bool ok = false;
  Value value;
  // On failure: "line L:C: message".
  std::string error;
};

// Parses one complete JSON document (trailing whitespace allowed, trailing
// garbage rejected).
ParseResult Parse(const std::string& text);

// Appends the shortest decimal spelling that strtod reads back as exactly
// `v` (std::to_chars; "nan"/"inf" for non-finite values, which JSON cannot
// carry; Writer::Number writes those as null).
void AppendShortest(std::string* out, double v);

// Streaming writer with one fixed layout: members and elements of the two
// outermost containers start on their own indented line and deeper ones
// stay compact (one trace event / bench row per line).  Misnesting (a
// value in an object without a Key, a Key outside an object, a second
// top-level value, Finish() with an open container) fails a PAPD_CHECK.
class Writer {
 public:
  Writer& BeginObject() { return Open('{'); }
  Writer& EndObject() { return Close('{'); }
  Writer& BeginArray() { return Open('['); }
  Writer& EndArray() { return Close('['); }
  // Names the next value; only inside an object.
  Writer& Key(std::string_view key);

  Writer& String(std::string_view s);
  // Shortest round-trip form; NaN and +-Inf are written as null.
  Writer& Number(double v);
  Writer& Int(int64_t v);
  Writer& Uint(uint64_t v);
  Writer& Bool(bool v) { return Raw(v ? "true" : "false"); }
  Writer& Null() { return Raw("null"); }

  // The complete document plus a trailing newline.
  std::string Finish();

 private:
  Writer& Open(char bracket);
  Writer& Close(char open_bracket);
  // Writes one scalar token where the next value belongs.
  Writer& Raw(std::string_view token);
  void BeforeValue();
  // Comma and line break before a member or an array element.
  void NewItem();
  void AppendEscaped(std::string_view s);

  std::string out_;
  // The open containers' brackets, outermost first.  The rest of the state
  // is read off out_: a container is still empty while out_ ends in its
  // bracket, and a Key awaits its value while out_ ends in ':'.
  std::string open_;
};

}  // namespace json
}  // namespace papd

#endif  // SRC_COMMON_JSON_H_
