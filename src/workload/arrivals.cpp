#include "workload/arrivals.hpp"

#include <algorithm>

namespace spider::workload {

ArrivalProcess::ArrivalProcess(const WorkloadMixParams& mix)
    : mix_(mix),
      arrival_(mix.arrival_alpha, mix.arrival_scale_s),
      idle_(mix.idle_alpha, mix.idle_scale_s) {}

double ArrivalProcess::next_gap_s(Rng& rng) {
  if (requests_left_in_burst_ <= 0.0) {
    // Start a new burst after an idle period.
    requests_left_in_burst_ =
        1.0 + rng.exponential(1.0 / mix_.burst_mean_requests);
    last_was_idle_ = true;
    return idle_.sample(rng);
  }
  requests_left_in_burst_ -= 1.0;
  last_was_idle_ = false;
  return arrival_.sample(rng);
}

std::vector<IoRequest> generate_trace(const WorkloadMixParams& mix,
                                      std::uint32_t clients, double duration_s,
                                      Rng& rng) {
  const RequestSizeModel sizes(mix);
  const Zipf large = sizes.large_multiples();
  std::vector<IoRequest> trace;
  for (std::uint32_t c = 0; c < clients; ++c) {
    Rng local = rng.fork(c);
    ArrivalProcess arrivals(mix);
    double t = 0.0;
    while (true) {
      t += arrivals.next_gap_s(local);
      if (t >= duration_s) break;
      IoRequest req;
      req.issue_time = sim::from_seconds(t);
      req.client = c;
      req.size = sizes.sample(local, large);
      req.dir = sample_dir(mix, local);
      // Bulk multi-MB requests stream sequentially; the small mode lands
      // scattered (metadata, headers, logs).
      req.mode = req.size >= 1_MB ? block::IoMode::kSequential
                                  : block::IoMode::kRandom;
      trace.push_back(req);
    }
  }
  std::sort(trace.begin(), trace.end(),
            [](const IoRequest& a, const IoRequest& b) {
              if (a.issue_time != b.issue_time) return a.issue_time < b.issue_time;
              return a.client < b.client;
            });
  return trace;
}

}  // namespace spider::workload
