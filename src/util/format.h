// Locale-independent decimal text for doubles. printf-family formatting
// follows LC_NUMERIC, so a process that calls setlocale(LC_ALL, "") under
// a comma-decimal locale would print "0,5" into JSON and Prometheus text.
// std::to_chars never consults the locale and, given a format and a
// precision, produces exactly the bytes printf does in the C locale.

#ifndef XSKETCH_UTIL_FORMAT_H_
#define XSKETCH_UTIL_FORMAT_H_

#include <charconv>
#include <string>
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

}  // namespace xsketch::util

#endif  // XSKETCH_UTIL_FORMAT_H_
