// Text helpers shared by every JSON and Prometheus writer.
//
// Locale-independent decimal text for doubles. printf-family formatting
// follows LC_NUMERIC, so a process that calls setlocale(LC_ALL, "") under
// a comma-decimal locale would print "0,5" into JSON and Prometheus text.
// std::to_chars never consults the locale and, given a format and a
// precision, produces exactly the bytes printf does in the C locale.

#ifndef XSKETCH_UTIL_FORMAT_H_
#define XSKETCH_UTIL_FORMAT_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

#include "util/check.h"

namespace xsketch::util {

// `v` as the C locale's printf("%.<precision>g") (chars_format::general)
// or printf("%.<precision>f") (chars_format::fixed) prints it.
inline std::string FormatDecimal(double v, std::chars_format fmt,
                                 int precision) {
  // Room for any double in fixed notation: 309 integer digits, sign,
  // point and up to 64 fraction digits.
  char buf[400];
  XS_CHECK(precision >= 0 && precision <= 64);
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, fmt, precision);
  XS_CHECK(r.ec == std::errc());
  return std::string(buf, r.ptr);
}

// Appends `s` as a JSON string literal (quotes included) to `out`. Quote,
// backslash and the control characters JSON has a short escape for get
// that escape; other control characters become \u00XX; every other byte,
// UTF-8 included, is copied as is.
inline void AppendJsonString(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
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
          out->append("\\u00");
          out->push_back(kHex[c >> 4]);
          out->push_back(kHex[c & 0xF]);
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

}  // namespace xsketch::util

#endif  // XSKETCH_UTIL_FORMAT_H_
