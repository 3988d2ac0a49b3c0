// FNV-1a (64-bit), the one digest behind every determinism hash in the tree:
// replay schedule sites and event streams (sim/replay), sharded merged
// streams, changelog accounting tables, campaign stream hashes, and
// spiderfsck findings/state hashes.
//
// Every fold is constexpr, inline and byte-at-a-time: sim::Site hashes its
// file and line at compile time, ReplayRecorder::on_event folds per event,
// and every golden hash pinned against these folds stays put. Words
// fold least-significant byte first; strings fold their bytes and nothing
// else (append the length yourself when it must count).
#pragma once

#include <cstdint>
#include <string_view>

namespace spider {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// One FNV-1a step: xor `v` in, multiply by the prime. `v` is normally one
/// byte; sim::Site also steps a whole line number in.
constexpr std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// Fold the eight bytes of `v`, least significant first.
constexpr std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) h = fnv1a_step(h, (v >> (8 * i)) & 0xffu);
  return h;
}

/// Fold the bytes of `s` (not its length).
constexpr std::uint64_t fnv1a_bytes(std::uint64_t h, std::string_view s) {
  for (const char c : s) h = fnv1a_step(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace spider
