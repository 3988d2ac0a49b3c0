// Full fair-lio parameter-space sweep (Section III-B).
//
// "The benchmark tool is synthetic, performing a parameter space
// exploration over several variables, including I/O request size, queue
// depth, read to write ratio, I/O duration, and I/O mode (i.e. sequential
// or random)." This orchestrator runs the cross product against a disk or
// RAID group — the exact deliverable vendors executed for the RFP. Each
// point gets its own RNG seeded from (seed, point index).
#pragma once

#include <cstdint>
#include <vector>

#include "block/fairlio.hpp"
#include "common/table.hpp"

namespace spider::block {

struct SweepConfig {
  std::vector<Bytes> request_sizes{4_KiB, 64_KiB, 512_KiB, 1_MiB, 4_MiB};
  std::vector<unsigned> queue_depths{1, 4, 16};
  std::vector<double> write_fractions{0.0, 0.6, 1.0};
  std::vector<IoMode> modes{IoMode::kSequential, IoMode::kRandom};
  double duration_s = 2.0;
  std::uint64_t seed = 1;
};

struct SweepPoint {
  FairLioConfig config;
  FairLioResult result;
};

/// Run the cross-product sweep against one disk.
std::vector<SweepPoint> run_sweep(const Disk& disk, const SweepConfig& cfg);
/// Run the cross-product sweep against one RAID group.
std::vector<SweepPoint> run_sweep(const Raid6Group& group,
                                  const SweepConfig& cfg);

/// Render sweep results as the vendor-response table.
Table sweep_table(const std::vector<SweepPoint>& points, std::string title);

/// Summary statistics the RFP evaluation keyed on.
struct SweepSummary {
  Bandwidth best_sequential = 0.0;
  Bandwidth best_random = 0.0;
  /// random(1 MiB)/sequential at queue depth 1, read — the paper's
  /// calibration metric.
  double random_fraction_1mb = 0.0;
  /// Worst p99 latency anywhere in the space.
  double worst_p99_s = 0.0;
};
SweepSummary summarize_sweep(const std::vector<SweepPoint>& points);

}  // namespace spider::block
