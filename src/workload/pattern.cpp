#include "workload/pattern.hpp"

#include <cmath>
#include <stdexcept>

namespace spider::workload {

RequestSizeModel::RequestSizeModel(const WorkloadMixParams& mix) : mix_(mix) {
  if (mix_.small_fraction < 0.0 || mix_.small_fraction > 1.0) {
    throw std::invalid_argument("small_fraction must be in [0,1]");
  }
  if (mix_.small_lo >= mix_.small_hi || mix_.large_max_mb == 0) {
    throw std::invalid_argument("bad size-mode bounds");
  }
}

Zipf RequestSizeModel::large_multiples() const {
  return Zipf(mix_.large_max_mb, mix_.large_zipf_s);
}

Bytes RequestSizeModel::sample(Rng& rng, const Zipf& large) const {
  if (rng.chance(mix_.small_fraction)) {
    // Small mode: log-uniform between the bounds (heavier near the bottom,
    // as the trace study showed for sub-16 KB metadata-ish requests).
    const double lo = std::log2(static_cast<double>(mix_.small_lo));
    const double hi = std::log2(static_cast<double>(mix_.small_hi));
    return static_cast<Bytes>(std::exp2(rng.uniform(lo, hi)));
  }
  // Large mode: exact multiples of 1 MB, Zipf-weighted toward 1 MB.
  const std::size_t k = large.sample(rng) + 1;
  return static_cast<Bytes>(k) * 1_MB;
}

block::IoDir sample_dir(const WorkloadMixParams& mix, Rng& rng) {
  return rng.chance(mix.write_fraction) ? block::IoDir::kWrite
                                        : block::IoDir::kRead;
}

}  // namespace spider::workload
