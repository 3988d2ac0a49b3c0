// Strict number parsing for command lines and plan files.
//
// A digit loop wraps past UINT64_MAX and std::stod accepts "inf" and
// "nan", so a typo used to become a wrapped count or a non-finite horizon
// that aborted deep inside the simulator. These helpers take all of the
// text or nothing: no sign, no whitespace, no trailing characters, no
// overflow, and no non-finite doubles.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace spider {

/// Parse all of `text` as a decimal count in [0, UINT64_MAX]. On failure
/// `out` is left unchanged.
inline bool parse_count(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  out = value;
  return true;
}

/// Parse all of `text` as a finite double ("1.5", "2e3", "-4"). Rejects
/// inf, nan and values that overflow a double. On failure `out` is left
/// unchanged.
inline bool parse_finite(std::string_view text, double& out) {
  const char* end = text.data() + text.size();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) return false;
  out = value;
  return true;
}

}  // namespace spider
