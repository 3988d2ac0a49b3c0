// Differential oracle for sim::MaxMinSolver: the dense water-filling solver
// the active-set solver replaced, kept verbatim. Every pass scans all
// resources and all flows, so it is slow but easy to audit; the property
// test in solver_oracle_test.cpp demands bit-identical rates and
// utilization from the production solver on random instances.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <vector>

#include "sim/resource.hpp"

namespace spider::sim::oracle {

inline SolveResult dense_max_min(std::span<const double> capacity,
                                 std::span<const SolverFlow> flows) {
  const std::size_t nr = capacity.size();
  const std::size_t nf = flows.size();
  SolveResult out;
  out.rate.assign(nf, 0.0);
  out.utilization.assign(nr, 0.0);
  if (nf == 0) return out;

  std::vector<double> residual(capacity.begin(), capacity.end());
  std::vector<double> active_cost(nr, 0.0);
  std::vector<char> frozen(nf, 0);
  std::vector<char> saturated(nr, 0);

  // A resource counts as saturated when its residual falls below this
  // fraction of original capacity (or an absolute floor for zero-capacity
  // resources).
  auto sat_eps = [&](std::size_t r) {
    return std::max(1e-12, 1e-9 * capacity[r]);
  };

  std::size_t unfrozen = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    if (flows[f].path.empty()) {
      // Pathless flow: rate is just its cap (0 if unbounded, to stay finite).
      out.rate[f] = std::isinf(flows[f].rate_cap) ? 0.0 : flows[f].rate_cap;
      frozen[f] = 1;
      continue;
    }
    ++unfrozen;
    for (const auto& hop : flows[f].path) {
      assert(hop.resource < nr);
      active_cost[hop.resource] += hop.cost;
    }
  }

  // Immediately saturated resources (zero capacity) pin their flows.
  for (std::size_t r = 0; r < nr; ++r) {
    if (capacity[r] <= sat_eps(r) && active_cost[r] > 0.0) saturated[r] = 1;
  }

  double level = 0.0;  // common rate of all unfrozen flows
  while (unfrozen > 0) {
    // Freeze flows crossing a saturated resource at the current level.
    bool froze_any = false;
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      bool hit = false;
      for (const auto& hop : flows[f].path) {
        if (saturated[hop.resource] && hop.cost > 0.0) {
          hit = true;
          break;
        }
      }
      if (hit) {
        out.rate[f] = std::min(level, flows[f].rate_cap);
        frozen[f] = 1;
        --unfrozen;
        froze_any = true;
        for (const auto& hop : flows[f].path) active_cost[hop.resource] -= hop.cost;
      }
    }
    if (unfrozen == 0) break;

    // Largest uniform rate increment before a resource saturates or a flow
    // hits its cap.
    double delta = kUnbounded;
    for (std::size_t r = 0; r < nr; ++r) {
      if (saturated[r] || active_cost[r] <= 1e-15) continue;
      delta = std::min(delta, residual[r] / active_cost[r]);
    }
    double min_cap = kUnbounded;
    for (std::size_t f = 0; f < nf; ++f) {
      if (!frozen[f]) min_cap = std::min(min_cap, flows[f].rate_cap);
    }
    const double cap_delta = min_cap - level;
    const bool cap_binds = cap_delta <= delta;
    delta = std::min(delta, cap_delta);

    if (std::isinf(delta)) {
      // Remaining flows consume nothing and have no cap; pin at level.
      for (std::size_t f = 0; f < nf; ++f) {
        if (!frozen[f]) {
          out.rate[f] = level;
          frozen[f] = 1;
          --unfrozen;
        }
      }
      break;
    }

    if (delta > 0.0) {
      level += delta;
      for (std::size_t r = 0; r < nr; ++r) {
        if (active_cost[r] > 0.0) residual[r] -= active_cost[r] * delta;
      }
    }

    // Mark newly saturated resources.
    for (std::size_t r = 0; r < nr; ++r) {
      if (!saturated[r] && active_cost[r] > 0.0 && residual[r] <= sat_eps(r)) {
        saturated[r] = 1;
        froze_any = true;  // the next loop pass will freeze its flows
      }
    }

    // Freeze cap-limited flows.
    if (cap_binds) {
      for (std::size_t f = 0; f < nf; ++f) {
        if (frozen[f] || flows[f].rate_cap > level + 1e-12 * (1.0 + level)) continue;
        out.rate[f] = flows[f].rate_cap;
        frozen[f] = 1;
        --unfrozen;
        froze_any = true;
        for (const auto& hop : flows[f].path) active_cost[hop.resource] -= hop.cost;
      }
    }

    if (!froze_any && delta <= 0.0) {
      // Defensive: no progress possible (degenerate numerics); pin the rest.
      for (std::size_t f = 0; f < nf; ++f) {
        if (!frozen[f]) {
          out.rate[f] = std::min(level, flows[f].rate_cap);
          frozen[f] = 1;
          --unfrozen;
        }
      }
      break;
    }
  }

  // Utilization report: one pass over all flow hops.
  std::vector<double> used(nr, 0.0);
  for (std::size_t f = 0; f < nf; ++f) {
    for (const auto& hop : flows[f].path) {
      used[hop.resource] += out.rate[f] * hop.cost;
    }
  }
  for (std::size_t r = 0; r < nr; ++r) {
    out.utilization[r] = capacity[r] > 0.0 ? std::min(1.0, used[r] / capacity[r]) : 0.0;
  }
  return out;
}

}  // namespace spider::sim::oracle
