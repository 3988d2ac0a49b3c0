// The benchmark's four workloads, each one iteration of a paper experiment
// driven through the library's public functions (see ../README.md for why
// each was chosen and which layer it loads).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// The seed whose output digests are pinned below. Any other seed runs the
/// same shape checks without a pinned digest.
constexpr std::uint64_t kPinnedSeed = 2014;

struct RunOptions {
  std::uint64_t seed = kPinnedSeed;
  /// Return right after set-up: an extra set-up sample.
  bool setup_only = false;
  /// Non-null in traced iterations: layer and event spans land here.
  Trace* trace = nullptr;
};

/// What one iteration produced.
struct Outcome {
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// FNV-1a over the simulated outputs. No host time ever enters it.
  std::uint64_t digest = 0;
  /// Traced sharded_scale only: site-free hash of the merged replay stream.
  std::uint64_t replay_hash = 0;
  /// Descriptions of the shape checks that failed.
  std::vector<std::string> failed;
  /// Deterministic counters, by per-layer metric name. They must repeat
  /// exactly from iteration to iteration (and traced or not).
  std::map<std::string, double> counts;
  /// Host-time per-layer metrics, filled by traced iterations only.
  std::map<std::string, double> times;
};

struct Workload {
  const char* name;
  Outcome (*run)(const RunOptions&);
  /// Digest of the outputs for kPinnedSeed.
  std::uint64_t pinned_digest;
};

const std::vector<Workload>& workloads();

}  // namespace perfbench
