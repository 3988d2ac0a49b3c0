// Static max-min solver with named resources.
//
// Saturation throughput experiments (Figures 3 and 4, peak-bandwidth
// claims) don't need time evolution: every client streams continuously, so
// the aggregate bandwidth is exactly the max-min allocation of the flow
// population. One solve per sweep point replaces millions of per-transfer
// events and lets us run at full Spider II scale (18,688 clients, 2,016
// OSTs) in milliseconds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/resource.hpp"

namespace spider::sim {

class SteadyStateSolver {
 public:
  /// Add a resource with capacity in units/sec. Returns its id.
  ResourceId add_resource(std::string name, double capacity);

  /// Adjust capacity before (re-)solving.
  void set_capacity(ResourceId id, double capacity);
  double capacity(ResourceId id) const { return capacity_.at(id); }
  const std::string& name(ResourceId id) const { return names_.at(id); }
  std::size_t resources() const { return capacity_.size(); }

  /// Add a flow; returns its index. `rate_cap` bounds the flow's own rate.
  std::size_t add_flow(std::vector<PathHop> path, double rate_cap = kUnbounded);
  std::size_t flows() const { return paths_.size(); }
  void clear_flows();

  /// Solve and cache the result.
  const SolveResult& solve();

  /// Accessors over the last solve() result.
  double flow_rate(std::size_t flow) const { return result_.rate.at(flow); }
  double utilization(ResourceId id) const { return result_.utilization.at(id); }
  /// Sum of all flow rates.
  double aggregate_rate() const;
  /// Name of the most-utilized resource (the system bottleneck).
  std::string bottleneck() const;

 private:
  std::vector<std::string> names_;
  std::vector<double> capacity_;
  std::vector<std::vector<PathHop>> paths_;
  std::vector<double> caps_;
  MaxMinSolver solver_;
  SolveResult result_;
};

}  // namespace spider::sim
