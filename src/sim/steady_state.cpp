#include "sim/steady_state.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spider::sim {

ResourceId SteadyStateSolver::add_resource(std::string name, double capacity) {
  if (capacity < 0.0) throw std::invalid_argument("resource capacity must be >= 0");
  names_.push_back(std::move(name));
  capacity_.push_back(capacity);
  return static_cast<ResourceId>(capacity_.size() - 1);
}

void SteadyStateSolver::set_capacity(ResourceId id, double capacity) {
  capacity_.at(id) = capacity;
}

std::size_t SteadyStateSolver::add_flow(std::vector<PathHop> path, double rate_cap) {
  if (std::isnan(rate_cap)) throw std::invalid_argument("flow rate cap is NaN");
  for (const auto& hop : path) {
    if (hop.resource >= capacity_.size()) {
      throw std::out_of_range("flow path references unknown resource");
    }
  }
  paths_.push_back(std::move(path));
  caps_.push_back(rate_cap);
  return paths_.size() - 1;
}

void SteadyStateSolver::clear_flows() {
  paths_.clear();
  caps_.clear();
  result_ = {};
}

const SolveResult& SteadyStateSolver::solve() {
  std::vector<SolverFlow> flows;
  flows.reserve(paths_.size());
  for (std::size_t f = 0; f < paths_.size(); ++f) {
    flows.push_back(SolverFlow{paths_[f], caps_[f]});
  }
  solver_.solve(capacity_, flows);
  solver_.export_result(capacity_.size(), result_);
  return result_;
}

double SteadyStateSolver::aggregate_rate() const {
  double acc = 0.0;
  for (double r : result_.rate) acc += r;
  return acc;
}

std::string SteadyStateSolver::bottleneck() const {
  if (result_.utilization.empty()) return {};
  const auto it =
      std::max_element(result_.utilization.begin(), result_.utilization.end());
  return names_[static_cast<std::size_t>(it - result_.utilization.begin())];
}

}  // namespace spider::sim
