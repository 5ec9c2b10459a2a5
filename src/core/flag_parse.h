#ifndef LAZYREP_CORE_FLAG_PARSE_H_
#define LAZYREP_CORE_FLAG_PARSE_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace lazyrep::core {

/// Parses all of `text` as a decimal number; false on junk or overflow.
template <class T>
bool ParseWhole(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && !text.empty();
}

/// Parses `value` whole into `*out` and checks that it lies in [lo, hi] —
/// in (lo, hi] with `above_lo` (NaN fails either way). Otherwise prints
/// "bad <what>: ..." and exits 2, before any run starts. `what` names the
/// input as the user wrote it: a flag argument ("--txns=abc") or an
/// environment assignment ("LAZYREP_JOBS=x").
template <class T>
void ParseOrDie(const char* what, std::string_view value, T* out, T lo,
                T hi = std::numeric_limits<T>::max(), bool above_lo = false) {
  if (ParseWhole(value, out) && (above_lo ? *out > lo : *out >= lo) &&
      *out <= hi) {
    return;
  }
  char lo_text[32], hi_text[32];
  *std::to_chars(lo_text, lo_text + sizeof(lo_text) - 1, lo).ptr = '\0';
  *std::to_chars(hi_text, hi_text + sizeof(hi_text) - 1, hi).ptr = '\0';
  const char* kind = std::is_integral_v<T> ? "an integer" : "a number";
  if (hi == std::numeric_limits<T>::max()) {
    std::fprintf(stderr, "bad %s: want %s %s %s\n", what, kind,
                 above_lo ? ">" : ">=", lo_text);
  } else {
    std::fprintf(stderr, "bad %s: want %s from %s to %s\n", what, kind,
                 lo_text, hi_text);
  }
  std::exit(2);
}

/// Bounds for ParseOrDie on an input that takes any positive number.
inline constexpr double kNoMax = std::numeric_limits<double>::max();
inline constexpr bool kAboveZero = true;

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_FLAG_PARSE_H_
