#include "src/common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "src/common/check.h"

namespace papd {
namespace json {

const Value* Value::Find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  for (const Member& m : object_) {
    if (m.first == key) {
      return &m.second;
    }
  }
  return nullptr;
}

double Value::NumberOr(const std::string& key, double fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

std::string Value::StringOr(const std::string& key, const std::string& fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : fallback;
}

bool Value::operator==(const Value& other) const {
  // Fields a kind does not use stay default-constructed, so comparing them
  // all is exact; numbers compare by bit pattern.
  return kind_ == other.kind_ && bool_ == other.bool_ &&
         std::memcmp(&number_, &other.number_, sizeof number_) == 0 &&
         string_ == other.string_ && array_ == other.array_ && object_ == other.object_;
}

Value Value::MakeBool(bool v) {
  Value out(Kind::kBool);
  out.bool_ = v;
  return out;
}

Value Value::MakeNumber(double v) {
  Value out(Kind::kNumber);
  out.number_ = v;
  return out;
}

Value Value::MakeString(std::string v) {
  Value out(Kind::kString);
  out.string_ = std::move(v);
  return out;
}

Value Value::MakeArray(std::vector<Value> v) {
  Value out(Kind::kArray);
  out.array_ = std::move(v);
  return out;
}

Value Value::MakeObject(std::vector<Member> v) {
  Value out(Kind::kObject);
  out.object_ = std::move(v);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  ParseResult Run() {
    ParseResult result;
    SkipWhitespace();
    if (!ParseValue(&result.value)) {
      result.error = error_;
      return result;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after document");
      result.error = error_;
      return result;
    }
    result.ok = true;
    return result;
  }

 private:
  bool ParseValue(Value* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
      case '[':
        return ParseContainer(out);
      case '"':
        return ParseString(out);
      case 't':
      case 'f':
      case 'n':
        return ParseLiteral(out);
      default:
        return ParseNumber(out);
    }
  }

  // Objects and arrays share one comma-separated loop; only objects read
  // a key before each value.  Nesting is bounded so a hostile "[[[[..."
  // cannot overflow the stack.
  bool ParseContainer(Value* out) {
    if (++depth_ > kMaxDepth) {
      return Fail("nesting deeper than 256 levels");
    }
    const bool object = text_[pos_++] == '{';
    const char close = object ? '}' : ']';
    std::vector<Value::Member> members;
    std::vector<Value> elements;
    SkipWhitespace();
    for (bool more = Peek() != close; more;) {
      SkipWhitespace();
      Value key;
      if (object) {
        if (Peek() != '"') {
          return Fail("expected object key string");
        }
        if (!ParseString(&key)) {
          return false;
        }
        SkipWhitespace();
        if (Peek() != ':') {
          return Fail("expected ':' after object key");
        }
        pos_++;
        SkipWhitespace();
      }
      Value value;
      if (!ParseValue(&value)) {
        return false;
      }
      if (object) {
        members.emplace_back(key.AsString(), std::move(value));
      } else {
        elements.push_back(std::move(value));
      }
      SkipWhitespace();
      more = Peek() == ',';
      if (more) {
        pos_++;
      } else if (Peek() != close) {
        return Fail(object ? "expected ',' or '}' in object" : "expected ',' or ']' in array");
      }
    }
    pos_++;
    depth_--;
    *out = object ? Value::MakeObject(std::move(members)) : Value::MakeArray(std::move(elements));
    return true;
  }

  bool ParseString(Value* out) {
    pos_++;  // '"'
    std::string s;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        pos_++;
        *out = Value::MakeString(std::move(s));
        return true;
      }
      if (c == '\\') {
        pos_++;
        if (pos_ >= text_.size()) {
          break;
        }
        switch (text_[pos_]) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'u': {
            unsigned code = 0;
            const char* hex = text_.data() + pos_ + 1;
            const char* hex_end = text_.data() + std::min(pos_ + 5, text_.size());
            const std::from_chars_result r = std::from_chars(hex, hex_end, code, 16);
            if (r.ec != std::errc() || r.ptr != hex + 4) {
              return Fail("bad \\u escape (want 4 hex digits)");
            }
            pos_ += 4;
            // UTF-8 encode (surrogate pairs are not combined — the repo's
            // writers never emit them; a lone surrogate round-trips as its
            // 3-byte encoding, which is good enough for diagnostics).
            if (code < 0x80) {
              s += static_cast<char>(code);
            } else if (code < 0x800) {
              s += static_cast<char>(0xC0 | (code >> 6));
              s += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              s += static_cast<char>(0xE0 | (code >> 12));
              s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              s += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Fail("unknown escape character");
        }
        pos_++;
        continue;
      }
      // RFC 8259 section 7: U+0000..U+001F must be escaped.
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      s += c;
      pos_++;
    }
    return Fail("unterminated string");
  }

  bool ParseLiteral(Value* out) {
    static const std::pair<std::string_view, Value> kLiterals[] = {
        {"true", Value::MakeBool(true)}, {"false", Value::MakeBool(false)}, {"null", Value()}};
    for (const auto& [word, value] : kLiterals) {
      if (text_.compare(pos_, word.size(), word) == 0) {
        pos_ += word.size();
        *out = value;
        return true;
      }
    }
    return Fail("expected 'true', 'false' or 'null'");
  }

  bool ParseNumber(Value* out) {
    // Walk the RFC 8259 grammar, then let strtod convert the span: strtod
    // alone would also take "-inf", "-nan", hex floats, "01" and "1.".
    const size_t start = pos_;
    pos_ += Peek() == '-' ? 1 : 0;
    if (Peek() == '0') {
      pos_++;
    } else if (SkipDigits() == 0) {
      return Fail("expected a value");
    }
    // A fraction or exponent marker must be followed by digits.
    if (Peek() == '.') {
      pos_++;
      if (SkipDigits() == 0) {
        return Fail("malformed number");
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      pos_ += text_[pos_ + 1] == '+' || text_[pos_ + 1] == '-' ? 2 : 1;
      if (SkipDigits() == 0) {
        return Fail("malformed number");
      }
    }
    *out = Value::MakeNumber(std::strtod(text_.c_str() + start, nullptr));
    return true;
  }

  size_t SkipDigits() {
    const size_t from = pos_;
    while (Peek() >= '0' && Peek() <= '9') {
      pos_++;
    }
    return pos_ - from;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      pos_++;
    }
  }

  bool Fail(const char* message) {
    size_t line = 1;
    size_t column = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); i++) {
      if (text_[i] == '\n') {
        line++;
        column = 1;
      } else {
        column++;
      }
    }
    error_ = "line " + std::to_string(line) + ":" + std::to_string(column) + ": " + message;
    return false;
  }

  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

ParseResult Parse(const std::string& text) { return Parser(text).Run(); }

namespace {

// Containers nested this deep or deeper are written on one line.
constexpr size_t kLineBreakDepth = 2;

template <typename T>
std::string_view ToChars(char (&buf)[32], T v) {
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  PAPD_CHECK(r.ec == std::errc()) << " to_chars failed";
  return std::string_view(buf, static_cast<size_t>(r.ptr - buf));
}

}  // namespace

void AppendShortest(std::string* out, double v) {
  char buf[32];
  out->append(ToChars(buf, v));
}

Writer& Writer::Key(std::string_view key) {
  PAPD_CHECK(!open_.empty() && open_.back() == '{' && out_.back() != ':')
      << " json::Writer: Key(\"" << key << "\") outside an object or after another Key";
  NewItem();
  AppendEscaped(key);
  out_ += ':';
  return *this;
}

Writer& Writer::String(std::string_view s) {
  BeforeValue();
  AppendEscaped(s);
  return *this;
}

Writer& Writer::Number(double v) {
  if (!std::isfinite(v)) {
    return Null();
  }
  char buf[32];
  return Raw(ToChars(buf, v));
}

Writer& Writer::Int(int64_t v) {
  char buf[32];
  return Raw(ToChars(buf, v));
}

Writer& Writer::Uint(uint64_t v) {
  char buf[32];
  return Raw(ToChars(buf, v));
}

std::string Writer::Finish() {
  PAPD_CHECK(open_.empty() && !out_.empty()) << " json::Writer: document incomplete";
  out_ += '\n';
  return std::move(out_);
}

Writer& Writer::Open(char bracket) {
  BeforeValue();
  out_ += bracket;
  open_ += bracket;
  return *this;
}

Writer& Writer::Close(char open_bracket) {
  PAPD_CHECK(!open_.empty() && open_.back() == open_bracket)
      << " json::Writer: close of " << open_bracket << " does not close the open container";
  PAPD_CHECK(out_.back() != ':') << " json::Writer: Key without a value";
  const bool empty = out_.back() == open_bracket;
  open_.pop_back();
  if (!empty && open_.size() < kLineBreakDepth) {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  }
  out_ += open_bracket == '{' ? '}' : ']';
  return *this;
}

Writer& Writer::Raw(std::string_view token) {
  BeforeValue();
  out_ += token;
  return *this;
}

void Writer::BeforeValue() {
  if (open_.empty()) {
    PAPD_CHECK(out_.empty()) << " json::Writer: a document holds one top-level value";
  } else if (open_.back() == '{') {
    PAPD_CHECK(out_.back() == ':') << " json::Writer: object member written without a Key";
  } else {
    NewItem();
  }
}

void Writer::NewItem() {
  if (out_.back() != open_.back()) {
    out_ += ',';
  }
  if (open_.size() <= kLineBreakDepth) {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  }
}

void Writer::AppendEscaped(std::string_view s) {
  static constexpr char kShort[] = "\bb\ff\nn\rr\tt";  // Control char, then its letter.
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (u >= 0x20) {
      out_ += c;
    } else if (const char* e = u != 0 ? std::strchr(kShort, c) : nullptr; e != nullptr) {
      out_ += '\\';
      out_ += e[1];
    } else {
      out_ += "\\u00";
      out_ += kHex[u >> 4];
      out_ += kHex[u & 0xF];
    }
  }
  out_ += '"';
}

}  // namespace json
}  // namespace papd
