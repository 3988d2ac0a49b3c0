// Dynamic flow network coupled to the discrete-event simulator.
//
// Flows arrive and depart over simulated time; whenever the flow set or a
// capacity changes the max-min allocation is re-solved, and after every event
// the next completion is scheduled. This gives exact flow-level dynamics with
// O(completions) events, which is what makes month-long purge simulations
// and checkpoint-interference studies cheap. Per-event work scales with the
// live flows and the resources they cross, never with the resource count.
//
// Each resource additionally records telemetry (cumulative units served,
// busy-time integral, current load) feeding the monitoring tools (DDN tool,
// health checks) and libPIO's load-aware placement.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace spider::sim {

using FlowId = std::uint64_t;

/// Telemetry accumulated per resource while the simulation runs.
struct ResourceStats {
  double served = 0.0;         ///< cumulative units delivered through this resource
  double busy_integral = 0.0;  ///< integral of utilization over seconds
  double current_load = 0.0;   ///< instantaneous utilization in [0, 1]
  std::uint64_t flows_seen = 0;
};

/// Solver work a FlowNetwork has done. Counts only — no clock reads — so
/// they are deterministic and may be golden-pinned.
struct SolveCounters {
  std::uint64_t solves = 0;             ///< max-min solves run
  std::uint64_t skipped_solves = 0;     ///< re-solves skipped: inputs unchanged
  std::uint64_t iterations = 0;         ///< water-filling passes, all solves
  std::uint64_t flows_solved = 0;       ///< flows handed to the solver, summed
  std::uint64_t resources_touched = 0;  ///< resources the solver visited, summed
};

/// Description of a flow to start.
struct FlowDesc {
  std::vector<PathHop> path;
  double size = 0.0;            ///< total units to transfer (> 0)
  double rate_cap = kUnbounded; ///< flow's own rate limit
  SimTime latency = 0;          ///< fixed path latency before transfer begins
  /// Called when the last byte is delivered.
  std::function<void(FlowId, SimTime)> on_complete;
};

class FlowNetwork {
 public:
  explicit FlowNetwork(Simulator& sim) : sim_(sim) {}

  ResourceId add_resource(std::string name, double capacity);
  /// Change capacity mid-simulation (controller failover, rebuild windows,
  /// upgrades). Re-solves immediately.
  void set_capacity(ResourceId id, double capacity);
  double capacity(ResourceId id) const { return capacity_.at(id); }
  const std::string& name(ResourceId id) const { return names_.at(id); }
  const ResourceStats& stats(ResourceId id) const { return stats_.at(id); }
  std::size_t resources() const { return capacity_.size(); }

  /// Start a flow now; completion fires after latency + transfer.
  FlowId start_flow(FlowDesc desc);
  /// Abort a flow, active or still in its latency window (no completion
  /// callback). No-op for unknown ids.
  void cancel_flow(FlowId id);

  std::size_t active_flows() const { return flows_.size(); }
  /// Rate of an active flow in units/sec (0 if unknown/not yet active).
  double flow_rate(FlowId id) const;
  /// Sum of active flow rates.
  double aggregate_rate() const { return aggregate_rate_; }
  /// Sum of completed flow sizes.
  double total_delivered() const { return total_delivered_; }
  const SolveCounters& counters() const { return counters_; }

 private:
  struct ActiveFlow {
    FlowId id;
    std::vector<PathHop> path;
    double size;
    double remaining;
    double rate_cap;
    double rate = 0.0;
    std::function<void(FlowId, SimTime)> on_complete;
  };

  /// A flow still inside its latency window, and the event activating it.
  struct PendingFlow {
    FlowId id;
    EventHandle activation;
  };

  using FlowIter = std::vector<ActiveFlow>::const_iterator;
  /// First flow with id >= `id`.
  FlowIter lower_bound(FlowId id) const;
  /// The flow with `id`, or flows_.end().
  FlowIter find(FlowId id) const;
  /// The pending flow with `id`, or pending_.end().
  std::vector<PendingFlow>::iterator find_pending(FlowId id);
  /// Integrate progress of all active flows since last_update_.
  void advance_progress();
  /// Re-solve rates if the flow set or a capacity changed, then schedule the
  /// next completion event.
  void resolve();
  void solve();
  void on_completion_event();

  Simulator& sim_;
  std::vector<std::string> names_;
  std::vector<double> capacity_;
  std::vector<ResourceStats> stats_;
  /// Sorted by FlowId so every walk — progress integration, solver input,
  /// completion collection — visits flows in the same sequence regardless of
  /// insertion/cancellation history. Float accumulation order is therefore a
  /// function of the live flow set alone.
  std::vector<ActiveFlow> flows_;
  /// Flows not yet active, sorted by FlowId like flows_.
  std::vector<PendingFlow> pending_;
  /// The flow set or a capacity changed since the last solve.
  bool inputs_changed_ = false;
  MaxMinSolver solver_;
  std::vector<SolverFlow> solver_flows_;
  /// Units each resource delivered in the interval advance_progress()
  /// integrates; zero outside it.
  std::vector<double> used_;
  SolveCounters counters_;
  FlowId next_flow_id_ = 1;
  SimTime last_update_ = 0;
  EventHandle completion_;
  double aggregate_rate_ = 0.0;
  double total_delivered_ = 0.0;
};

}  // namespace spider::sim
