#include "support/strutil.hpp"

#include <cmath>
#include <cstdio>

#include "support/error.hpp"

namespace mfbc {

namespace {
std::string printf_str(const char* fmt, double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, digits, v);
  return buf;
}
}  // namespace

std::string human_bytes(double bytes) {
  static const char* units[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 5) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, bytes < 10 ? "%.2f %s" : "%.1f %s", bytes,
                units[u]);
  return buf;
}

std::string human_count(double count) {
  static const char* units[] = {"", "K", "M", "B", "T"};
  int u = 0;
  while (std::fabs(count) >= 1000.0 && u < 4) {
    count /= 1000.0;
    ++u;
  }
  char buf[64];
  if (u == 0) {
    std::snprintf(buf, sizeof buf, "%.0f", count);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f%s", count, units[u]);
  }
  return buf;
}

std::string fixed(double v, int digits) { return printf_str("%.*f", v, digits); }

std::string compact(double v, int digits) { return printf_str("%.*g", v, digits); }

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (std::size_t at; (at = text.find(sep, pos)) != std::string::npos;
       pos = at + 1) {
    out.push_back(text.substr(pos, at - pos));
  }
  out.push_back(text.substr(pos));
  return out;
}

namespace detail {
void bad_number(const std::string& what, const std::string& text,
                const std::string& why) {
  throw Error(what + ": " + why + ", got '" + text + "'");
}
}  // namespace detail

double parse_double(const std::string& what, const std::string& text) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    detail::bad_number(what, text, "value out of range");
  }
  if (ec != std::errc{} || ptr != end) {
    detail::bad_number(what, text, "expected a number");
  }
  if (!std::isfinite(v)) {
    detail::bad_number(what, text, "expected a finite number");
  }
  return v;
}

double parse_rate(const std::string& what, const std::string& text) {
  const double v = parse_double(what, text);
  if (!(v >= 0.0 && v <= 1.0)) {
    detail::bad_number(what, text, "value must be in [0, 1]");
  }
  return v;
}

}  // namespace mfbc
