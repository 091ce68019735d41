#include "net/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>
#include <utility>

#include "util/check.h"

namespace xsketch::net {

bool JsonValue::bool_value() const {
  XS_CHECK_MSG(kind_ == Kind::kBool, "JsonValue is not a bool");
  return bool_;
}

double JsonValue::number_value() const {
  XS_CHECK_MSG(kind_ == Kind::kNumber, "JsonValue is not a number");
  return number_;
}

const std::string& JsonValue::string_value() const {
  XS_CHECK_MSG(kind_ == Kind::kString, "JsonValue is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::array() const {
  XS_CHECK_MSG(kind_ == Kind::kArray, "JsonValue is not an array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::object() const {
  XS_CHECK_MSG(kind_ == Kind::kObject, "JsonValue is not an object");
  return object_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

const std::string* JsonValue::FindString(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind_ != Kind::kString) return nullptr;
  return &v->string_;
}

const double* JsonValue::FindNumber(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind_ != Kind::kNumber) return nullptr;
  return &v->number_;
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  util::Result<JsonValue> Parse() {
    JsonValue v;
    if (util::Status st = ParseValue(&v, 0); !st.ok()) return st;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing bytes after JSON document");
    }
    return v;
  }

 private:
  util::Status Error(const std::string& what) const {
    return util::Status::ParseError(what + " at byte " +
                                    std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  util::Status ParseValue(JsonValue* out, int depth) {
    if (depth > max_depth_) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        std::string s;
        if (util::Status st = ParseString(&s); !st.ok()) return st;
        *out = JsonValue::String(std::move(s));
        return util::Status::OK();
      }
      case 't':
        if (!ConsumeWord("true")) return Error("bad literal");
        *out = JsonValue::Bool(true);
        return util::Status::OK();
      case 'f':
        if (!ConsumeWord("false")) return Error("bad literal");
        *out = JsonValue::Bool(false);
        return util::Status::OK();
      case 'n':
        if (!ConsumeWord("null")) return Error("bad literal");
        *out = JsonValue::Null();
        return util::Status::OK();
      default: return ParseNumber(out);
    }
  }

  util::Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipSpace();
    if (Consume('}')) {
      *out = JsonValue::Object(std::move(members));
      return util::Status::OK();
    }
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      if (util::Status st = ParseString(&key); !st.ok()) return st;
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      if (util::Status st = ParseValue(&value, depth + 1); !st.ok()) {
        return st;
      }
      members.insert_or_assign(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}'");
    }
    *out = JsonValue::Object(std::move(members));
    return util::Status::OK();
  }

  util::Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipSpace();
    if (Consume(']')) {
      *out = JsonValue::Array(std::move(items));
      return util::Status::OK();
    }
    for (;;) {
      JsonValue value;
      if (util::Status st = ParseValue(&value, depth + 1); !st.ok()) {
        return st;
      }
      items.push_back(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']'");
    }
    *out = JsonValue::Array(std::move(items));
    return util::Status::OK();
  }

  util::Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return util::Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs pass through
          // as two 3-byte sequences; the daemon's payloads are ASCII).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  util::Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v)) {
      return Error("bad number '" + token + "'");
    }
    *out = JsonValue::Number(v);
    return util::Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
  int max_depth_;
};

}  // namespace

util::Result<JsonValue> ParseJson(std::string_view text, int max_depth) {
  return Parser(text, max_depth).Parse();
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  // Shortest round-trip form, independent of LC_NUMERIC.
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  XS_CHECK(r.ec == std::errc());
  out->append(buf, r.ptr);
}

}  // namespace xsketch::net
