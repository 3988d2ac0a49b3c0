// Capacitated resources, flow paths, and the max-min fair-share solver.
//
// spiderpfs models the I/O stack (Lesson 12: "build the performance profile
// for each layer") as a network of capacitated resources: disks, RAID
// groups, controllers, OSS nodes, InfiniBand links, LNET routers, torus
// links, and client injection ports. A *flow* is a transfer that traverses
// an ordered list of resources; hop *cost* expresses efficiency — e.g. a
// random-I/O flow consumes 4-5x disk capacity per delivered byte (the paper:
// a single disk achieves 20-25% of peak under 1 MB random I/O), and a
// small-transfer flow is additionally limited by a per-flow rate cap from
// RPC overhead.
//
// Rates are assigned by progressive (water-filling) max-min fairness with
// per-hop costs and per-flow caps, the standard flow-level model of
// bandwidth sharing. One solver (MaxMinSolver) backs both the static
// SteadyStateSolver and the dynamic FlowNetwork.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace spider::sim {

using ResourceId = std::uint32_t;

inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// One hop of a flow path: the resource it crosses and how many units of
/// that resource's capacity one delivered unit consumes (cost >= 0).
struct PathHop {
  ResourceId resource;
  double cost = 1.0;
};

/// Solver view of one flow.
struct SolverFlow {
  std::span<const PathHop> path;
  /// The flow's own maximum rate (client-side limit); kUnbounded if none.
  /// Never NaN: the solver orders flows by it.
  double rate_cap = kUnbounded;
};

/// Result of one max-min solve.
struct SolveResult {
  std::vector<double> rate;         ///< per flow, units/sec
  std::vector<double> utilization;  ///< per resource, in [0, 1]
};

/// Progressive-filling max-min allocation over the active set, with a
/// workspace reused across solves.
///
/// capacity[r] is resource r's capacity in units/sec; a zero-capacity
/// resource pins every flow crossing it (with positive cost) to rate 0.
/// Flows with empty paths get min(rate_cap, 0 if cap unbounded) — callers
/// should give pathless flows a finite cap.
///
/// A solve visits only the resources some hop crosses (the touched set), so
/// its cost scales with the flows and their hops, not with the resource
/// count: a resource no flow crosses has zero active cost throughout and
/// cannot change any rate. Every float operation that reaches a rate or a
/// utilization happens in the order of a dense fill over flow index, so the
/// results are bit-identical to one.
class MaxMinSolver {
 public:
  void solve(std::span<const double> capacity,
             std::span<const SolverFlow> flows);

  /// Per-flow rates of the last solve, in flow order.
  std::span<const double> rates() const { return rate_; }
  /// Resources crossed by any hop of the last solve, in first-touch order.
  std::span<const ResourceId> touched() const { return touched_; }
  /// utilization()[i] belongs to touched()[i]; every other resource's is 0.
  std::span<const double> utilization() const { return utilization_; }
  /// Water-filling passes the last solve took.
  std::size_t iterations() const { return iterations_; }

  /// Dense copy of the last solve over `resources` resources.
  void export_result(std::size_t resources, SolveResult& out) const;

 private:
  /// Return flow f's hop costs to its resources' active cost.
  void release(std::span<const SolverFlow> flows, std::uint32_t f);

  static constexpr std::uint32_t kNoLocal = ~std::uint32_t{0};

  // Indexed by global resource id; kNoLocal except on touched_ entries.
  std::vector<std::uint32_t> local_;
  // Indexed by local resource index.
  std::vector<ResourceId> touched_;
  std::vector<double> utilization_;
  std::vector<double> residual_;
  std::vector<double> active_cost_;
  std::vector<double> sat_eps_;
  std::vector<double> used_;
  // CSR: csr_flow_[csr_begin_[l] .. csr_begin_[l + 1]) lists, in ascending
  // order, the flows with a positive-cost hop on local resource l.
  std::vector<std::uint32_t> csr_begin_;
  std::vector<std::uint32_t> csr_flow_;
  // Indexed by flow, and hop_local_ by the flows' hops laid end to end.
  std::vector<double> rate_;
  std::vector<char> frozen_;
  std::vector<std::uint32_t> hop_begin_;
  std::vector<std::uint32_t> hop_local_;
  // Unsaturated resources whose active cost was positive at the last check.
  std::vector<std::uint32_t> live_;
  // Resources saturated since the last freeze pass.
  std::vector<std::uint32_t> newly_saturated_;
  // Flows with a path, sorted by (rate_cap, index).
  std::vector<std::uint32_t> by_cap_;
  // Flows frozen in one step, sorted into index order before release.
  std::vector<std::uint32_t> batch_;
  std::size_t iterations_ = 0;
};

/// One-shot solve with a dense result (a fresh MaxMinSolver per call).
SolveResult solve_max_min(std::span<const double> capacity,
                          std::span<const SolverFlow> flows);

}  // namespace spider::sim
