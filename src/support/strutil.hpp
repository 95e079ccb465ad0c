// Small string/formatting helpers shared by the CLI tools and benchmarks.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <system_error>
#include <vector>

namespace mfbc {

/// "1.80 GB", "117 MB", "512 B" — human-readable byte counts.
std::string human_bytes(double bytes);

/// "65.6M", "1.8B", "737" — human-readable counts (as the paper's Table 2).
std::string human_count(double count);

/// Fixed-precision double formatting ("%.*f").
std::string fixed(double v, int digits);

/// Scientific-ish compact formatting ("%.*g").
std::string compact(double v, int digits = 4);

/// "a,,b" → {"a", "", "b"}: every field between separators, empty ones kept.
std::vector<std::string> split(const std::string& text, char sep);

// Strict number parsing for flag values and spec items. A parse succeeds
// only when the whole of `text` is one number of the asked kind: no
// whitespace, sign on a count, or trailing characters. Otherwise it throws
// mfbc::Error("<what>: <reason>, got '<text>'"), where `what` names the flag
// or item that carried the text.

namespace detail {
[[noreturn]] void bad_number(const std::string& what, const std::string& text,
                             const std::string& why);
}  // namespace detail

/// A non-negative decimal integer that fits T (a count, index or seed).
template <std::integral T>
T parse_int(const std::string& what, const std::string& text) {
  if (!text.empty() && text[0] == '-') {
    detail::bad_number(what, text, "value must be non-negative");
  }
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    detail::bad_number(what, text, "value out of range");
  }
  if (ec != std::errc{} || ptr != end) {
    detail::bad_number(what, text, "expected an integer");
  }
  return v;
}

/// A finite decimal number.
double parse_double(const std::string& what, const std::string& text);

/// A decimal number in [0, 1].
double parse_rate(const std::string& what, const std::string& text);

}  // namespace mfbc
