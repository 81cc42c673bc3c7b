#include "common/strings.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace warp::common {

std::string_view trim(std::string_view s) {
  const char* ws = " \t\r\n";
  const auto b = s.find_first_not_of(ws);
  if (b == std::string_view::npos) return {};
  const auto e = s.find_last_not_of(ws);
  return s.substr(b, e - b + 1);
}

std::vector<std::string_view> split(std::string_view s, std::string_view delims) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start < s.size()) {
    const auto pos = s.find_first_of(delims, start);
    const auto end = (pos == std::string_view::npos) ? s.size() : pos;
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool equals(std::string_view a, std::string_view b) { return a == b; }

bool parse_int(std::string_view s, long long& out) {
  s = trim(s);
  if (s.empty()) return false;
  bool negative = false;
  if (s.front() == '-' || s.front() == '+') {
    negative = s.front() == '-';
    s.remove_prefix(1);
    if (s.empty()) return false;
  }
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    s.remove_prefix(2);
  }
  long long value = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (base == 16 && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (base == 16 && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    // Reject what long long cannot hold instead of overflowing (wire input).
    if (value > (std::numeric_limits<long long>::max() - digit) / base) return false;
    value = value * base + digit;
  }
  out = negative ? -value : value;
  return true;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(static_cast<std::size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

}  // namespace warp::common
