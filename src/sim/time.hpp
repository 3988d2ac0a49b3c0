// Simulated time: signed 64-bit nanoseconds.
//
// Nanosecond resolution covers sub-microsecond network hops while still
// representing ~292 years, enough for multi-month purge-policy simulations.
#pragma once

#include <cstdint>

namespace spider::sim {

/// Nanoseconds since simulation start.
using SimTime = std::int64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000;
inline constexpr SimTime kMillisecond = 1000 * kMicrosecond;
inline constexpr SimTime kSecond = 1000 * kMillisecond;
inline constexpr SimTime kMinute = 60 * kSecond;
inline constexpr SimTime kHour = 60 * kMinute;
inline constexpr SimTime kDay = 24 * kHour;

/// True when from_seconds(s) is defined: s * kSecond fits SimTime, which
/// bounds |s| near 9.22e9 s (~292 years). False for inf and nan.
inline constexpr bool seconds_in_range(double s) {
  const double ns = s * static_cast<double>(kSecond);
  return ns > -0x1p63 && ns < 0x1p63;
}

/// Convert (possibly fractional) seconds to SimTime. Callers taking seconds
/// from input check seconds_in_range() first.
inline constexpr SimTime from_seconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kSecond));
}

/// Convert SimTime to fractional seconds.
// spiderlint: units-ok — this IS the unit boundary: SimTime -> raw seconds
inline constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Convert SimTime to fractional hours.
inline constexpr double to_hours(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kHour);
}

/// Convert SimTime to fractional days.
inline constexpr double to_days(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kDay);
}

}  // namespace spider::sim
