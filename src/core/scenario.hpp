// ScenarioRunner: dynamic (DES) experiments against the center model.
//
// Where the steady-state solver answers "what does saturation look like",
// scenarios answer time-dependent questions: how long a checkpoint burst
// takes under contention, what happens to analytics latency while one runs
// (Lessons 1-2), what server-side throughput logs look like (IOSI input),
// and how libPIO placement changes a job's delivered bandwidth.
//
// Fidelity note: scenario networks exclude per-torus-link resources
// (router/OSS/controller/OST contention dominates the questions asked
// here); client-side placement quality still applies through the per-flow
// rate cap. A study that needs torus links registers them itself through
// CenterModel::register_into. Bursts group several clients into one flow
// (client_grouping) to keep event counts proportional to bursts, not
// clients — documented scale handling per DESIGN.md.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/center.hpp"
#include "sim/flow_network.hpp"
#include "sim/simulator.hpp"
#include "workload/checkpoint.hpp"
#include "workload/pattern.hpp"

namespace spider::core {

struct BurstOutcome {
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  Bytes bytes = 0;
  Bandwidth achieved_bw = 0.0;
};

class ScenarioRunner {
 public:
  ScenarioRunner(CenterModel& center, sim::Simulator& sim);

  sim::Simulator& simulator() { return sim_; }
  sim::FlowNetwork& network() { return net_; }
  const ResourceMap& map() const { return map_; }
  CenterModel& center() { return center_; }

  /// Chooses the (global) OST for a flow/request index. For bursts the
  /// index is the flow index (0..ceil(clients/grouping)-1), so a simple
  /// `i % total_osts` spreads a burst evenly regardless of grouping.
  using OstChooser = std::function<std::size_t(std::size_t index)>;

  /// Submit a collective burst. Writers are grouped `client_grouping` per
  /// flow; client ids start at `client_base`. `done` fires when the last
  /// flow completes.
  void submit_burst(const workload::IoBurst& burst, OstChooser ost_of,
                    std::function<void(BurstOutcome)> done,
                    std::size_t client_grouping = 16,
                    std::size_t client_base = 0);

  /// Submit individual requests (analytics streams); completion latencies
  /// land in `latencies_s` in completion order.
  void submit_requests(std::vector<workload::IoRequest> requests,
                       OstChooser ost_of, std::vector<double>* latencies_s,
                       std::size_t client_base = 0);

  /// Record the network's aggregate rate every `bin_s` for `duration_s`
  /// into `out` (the server-side throughput log IOSI consumes).
  void record_throughput(double bin_s, double duration_s,
                         std::vector<double>* out);

 private:
  CenterModel& center_;
  sim::Simulator& sim_;
  sim::FlowNetwork net_;
  ResourceMap map_;
};

}  // namespace spider::core
