#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wefr::util {

/// Splits `s` on `delim`, keeping empty fields (CSV semantics).
std::vector<std::string> split(std::string_view s, char delim);

/// Strips leading and trailing ASCII whitespace (' ', '\t', '\n', '\v',
/// '\f', '\r'). Inline: the CSV tokenizer calls it once per cell, and a
/// cell with no blank end costs two byte tests.
inline std::string_view trim(std::string_view s) {
  const auto blank = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  std::size_t b = 0, e = s.size();
  while (b < e && blank(s[b])) ++b;
  while (e > b && blank(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats `v` with `digits` digits after the decimal point.
std::string format_double(double v, int digits);

/// Formats `v` (in [0,1]) as a percentage like "63%" or "62.5%".
std::string format_percent(double v, int digits = 0);

/// True if `s` parses as a finite double; stores it into `out`.
/// std::from_chars fast path (no locale, no allocation); trims first.
bool parse_double(std::string_view s, double& out);

/// True if `s` parses as an integer; stores it into `out`. Integer
/// std::from_chars fast path with a parse_double fallback, so values
/// rendered as doubles ("42.0", "1e3") still parse — the fractional
/// part, if any, truncates toward zero exactly like the historical
/// `static_cast<int>(parse_double(...))` call sites. This is the one
/// helper every integer field (CLI flags, CSV day columns, fault
/// rates) routes through.
bool parse_int(std::string_view s, long long& out);

/// Convenience parse_int into a narrower (or unsigned) integer type;
/// false when the value does not fit.
template <typename Int>
bool parse_int_as(std::string_view s, Int& out) {
  long long wide = 0;
  if (!parse_int(s, wide)) return false;
  if constexpr (std::is_unsigned_v<Int>) {
    if (wide < 0 ||
        static_cast<unsigned long long>(wide) > std::numeric_limits<Int>::max())
      return false;
  } else {
    if (wide < std::numeric_limits<Int>::min() || wide > std::numeric_limits<Int>::max())
      return false;
  }
  out = static_cast<Int>(wide);
  return true;
}

}  // namespace wefr::util
