// Minimal JSON for the daemon's request/response bodies.
//
// Parse side: a strict recursive-descent parser over UTF-8 text into a
// JsonValue tree (null / bool / number / string / array / object), with a
// depth cap and an input-size cap inherited from the HTTP layer's body
// limit. It exists so the daemon can read {"doc": ..., "queries": [...]}
// bodies without growing a dependency; it is not a general-purpose
// validating parser (surrogate-pair escapes are passed through verbatim).
//
// Write side: escape + append helpers the handlers use to build response
// bodies by hand, matching the obs/ layer's hand-rolled JSON style.

#ifndef XSKETCH_NET_JSON_H_
#define XSKETCH_NET_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/format.h"
#include "util/status.h"

namespace xsketch::net {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  // Typed accessors: calling the wrong one is a checked programming
  // error — handlers test kind() (or use the Find helpers) first.
  bool bool_value() const;
  double number_value() const;
  const std::string& string_value() const;
  const std::vector<JsonValue>& array() const;
  const std::map<std::string, JsonValue>& object() const;

  // Object member lookup; nullptr when absent or this is not an object.
  const JsonValue* Find(std::string_view key) const;
  // Member lookup requiring a string / number value; nullptr otherwise.
  const std::string* FindString(std::string_view key) const;
  const double* FindNumber(std::string_view key) const;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue String(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Parses `text` as one JSON document (trailing garbage is an error).
// `max_depth` bounds array/object nesting against stack exhaustion.
util::Result<JsonValue> ParseJson(std::string_view text, int max_depth = 32);

// Appends `s` as a JSON string literal (quotes included) to `out`; the
// one escaper every JSON writer in the tree shares (util/format.h).
using util::AppendJsonString;

// Formats a double as its shortest round-trip text (std::to_chars: the
// fewest digits that parse back to the same bits, locale-independent, so
// 100 renders as "100"), and non-finite values as "null" (JSON has no
// NaN).
void AppendJsonNumber(std::string* out, double v);

}  // namespace xsketch::net

#endif  // XSKETCH_NET_JSON_H_
