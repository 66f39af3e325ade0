#include "util/strings.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace wefr::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format_double(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string format_percent(double v, int digits) {
  return format_double(v * 100.0, digits) + "%";
}

bool parse_double(std::string_view s, double& out) {
  s = trim(s);
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end && std::isfinite(out);
}

bool parse_int(std::string_view s, long long& out) {
  s = trim(s);
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec == std::errc{} && ptr == end) return true;
  if (ec == std::errc::result_out_of_range) return false;
  // Fallback: a double-rendered integer ("42.0", "1e3"). Truncates
  // toward zero, matching the cast the call sites used historically.
  double v = 0.0;
  if (!parse_double(s, v)) return false;
  if (v <= -9.3e18 || v >= 9.3e18) return false;  // outside long long
  out = static_cast<long long>(v);
  return true;
}

}  // namespace wefr::util
