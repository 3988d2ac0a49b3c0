// I/O request vocabulary and the published Spider I workload mix.
//
// Section II, citing the Spider I workload study [14]: the shared file
// system sees ~60% write / 40% read requests; request sizes are bimodal —
// "either small (under 16 KB) or large (multiples of 1 MB)"; inter-arrival
// and idle-time distributions are long-tailed and well modelled as Pareto.
// RequestSizeModel and WorkloadMixParams encode exactly that
// characterization and are the ground truth the generators sample from and
// the characterization bench must recover.
#pragma once

#include <cstdint>
#include <vector>

#include "block/disk.hpp"
#include "common/distributions.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/time.hpp"

namespace spider::workload {

struct IoRequest {
  sim::SimTime issue_time = 0;
  std::uint32_t client = 0;
  Bytes size = 0;
  block::IoDir dir = block::IoDir::kWrite;
  block::IoMode mode = block::IoMode::kSequential;
};

struct WorkloadMixParams {
  /// Fraction of requests that are writes (paper: 60/40).
  double write_fraction = 0.60;
  /// Fraction of requests in the small mode (< 16 KB).
  double small_fraction = 0.45;
  Bytes small_lo = 512;
  Bytes small_hi = 16_KiB;
  /// Large requests are k x 1 MB with k Zipf-distributed in [1, max_mb].
  std::size_t large_max_mb = 16;
  double large_zipf_s = 1.1;
  /// Pareto tail indices for inter-arrival gaps and idle periods.
  double arrival_alpha = 1.35;
  double arrival_scale_s = 1.5e-3;
  double idle_alpha = 1.15;
  double idle_scale_s = 0.4;
  /// Mean requests per busy burst before an idle period.
  double burst_mean_requests = 400.0;
};

/// Samples the bimodal request-size distribution.
class RequestSizeModel {
 public:
  explicit RequestSizeModel(const WorkloadMixParams& mix);

  /// Distribution of k for the large mode's k x 1 MB requests. Build it once
  /// per trace: it costs large_max_mb pow() calls and an allocation.
  Zipf large_multiples() const;
  /// Draws one size; `large` comes from large_multiples().
  Bytes sample(Rng& rng, const Zipf& large) const;
  const WorkloadMixParams& mix() const { return mix_; }

 private:
  WorkloadMixParams mix_;
};

/// Direction sampler honoring the write fraction.
block::IoDir sample_dir(const WorkloadMixParams& mix, Rng& rng);

}  // namespace spider::workload
