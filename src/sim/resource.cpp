#include "sim/resource.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace spider::sim {

void MaxMinSolver::release(std::span<const SolverFlow> flows, std::uint32_t f) {
  const std::span<const PathHop> path = flows[f].path;
  const std::uint32_t* local = hop_local_.data() + hop_begin_[f];
  for (std::size_t h = 0; h < path.size(); ++h) {
    active_cost_[local[h]] -= path[h].cost;
  }
}

void MaxMinSolver::solve(std::span<const double> capacity,
                         std::span<const SolverFlow> flows) {
  const std::size_t nf = flows.size();
  for (const ResourceId r : touched_) local_[r] = kNoLocal;
  if (local_.size() < capacity.size()) local_.resize(capacity.size(), kNoLocal);
  touched_.clear();
  active_cost_.clear();
  hop_begin_.clear();
  hop_local_.clear();
  rate_.assign(nf, 0.0);
  frozen_.assign(nf, 0);
  iterations_ = 0;

  // Give each touched resource a local index and sum its active cost, in
  // flow order then hop order — the order every later subtraction mirrors.
  std::size_t unfrozen = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    hop_begin_.push_back(static_cast<std::uint32_t>(hop_local_.size()));
    assert(!std::isnan(flows[f].rate_cap));
    if (flows[f].path.empty()) {
      // Pathless flow: rate is just its cap (0 if unbounded, to stay finite).
      rate_[f] = std::isinf(flows[f].rate_cap) ? 0.0 : flows[f].rate_cap;
      frozen_[f] = 1;
      continue;
    }
    ++unfrozen;
    for (const auto& hop : flows[f].path) {
      assert(hop.resource < capacity.size());
      std::uint32_t& l = local_[hop.resource];
      if (l == kNoLocal) {
        l = static_cast<std::uint32_t>(touched_.size());
        touched_.push_back(hop.resource);
        active_cost_.push_back(0.0);
      }
      active_cost_[l] += hop.cost;
      hop_local_.push_back(l);
    }
  }
  const std::size_t nt = touched_.size();

  // Per-resource flow lists over positive-cost hops, filled in flow order.
  csr_begin_.assign(nt + 1, 0);
  std::size_t k = 0;
  for (const SolverFlow& flow : flows) {
    for (const PathHop& hop : flow.path) {
      const std::uint32_t l = hop_local_[k++];
      if (hop.cost > 0.0) ++csr_begin_[l + 1];
    }
  }
  for (std::size_t l = 0; l < nt; ++l) csr_begin_[l + 1] += csr_begin_[l];
  csr_flow_.resize(csr_begin_[nt]);
  k = 0;
  for (std::uint32_t f = 0; f < nf; ++f) {
    for (const PathHop& hop : flows[f].path) {
      const std::uint32_t l = hop_local_[k++];
      if (hop.cost > 0.0) csr_flow_[csr_begin_[l]++] = f;
    }
  }
  // The fill advanced each begin to the next list's begin; shift back.
  for (std::size_t l = nt; l > 0; --l) csr_begin_[l] = csr_begin_[l - 1];
  csr_begin_[0] = 0;

  // A resource counts as saturated when its residual falls below this
  // fraction of original capacity (or an absolute floor for zero-capacity
  // resources). Immediately saturated resources (zero capacity) pin their
  // flows; the rest with positive active cost start live.
  residual_.resize(nt);
  sat_eps_.resize(nt);
  live_.clear();
  newly_saturated_.clear();
  for (std::uint32_t l = 0; l < nt; ++l) {
    const double cap = capacity[touched_[l]];
    residual_[l] = cap;
    sat_eps_[l] = std::max(1e-12, 1e-9 * cap);
    if (active_cost_[l] <= 0.0) continue;
    (cap <= sat_eps_[l] ? newly_saturated_ : live_).push_back(l);
  }

  by_cap_.clear();
  for (std::uint32_t f = 0; f < nf; ++f) {
    if (!frozen_[f]) by_cap_.push_back(f);
  }
  std::sort(by_cap_.begin(), by_cap_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const double ca = flows[a].rate_cap;
              const double cb = flows[b].rate_cap;
              return ca < cb || (ca == cb && a < b);
            });
  std::size_t cap_head = 0;  // by_cap_[0, cap_head) are all frozen
  // Freeze batch_ in ascending flow index, so every active-cost subtraction
  // lands in the order a dense scan over flows would make it.
  auto freeze_batch = [&](auto rate_of) {
    std::sort(batch_.begin(), batch_.end());
    for (const std::uint32_t f : batch_) {
      rate_[f] = rate_of(f);
      release(flows, f);
    }
    unfrozen -= batch_.size();
    return !batch_.empty();
  };
  auto pin_rest = [&](auto rate_of) {
    for (std::size_t i = cap_head; i < by_cap_.size(); ++i) {
      const std::uint32_t f = by_cap_[i];
      if (!frozen_[f]) rate_[f] = rate_of(f);
    }
  };

  double level = 0.0;  // common rate of all unfrozen flows
  while (unfrozen > 0) {
    ++iterations_;
    // Freeze flows crossing a newly saturated resource at the current level.
    batch_.clear();
    for (const std::uint32_t l : newly_saturated_) {
      for (std::uint32_t i = csr_begin_[l]; i < csr_begin_[l + 1]; ++i) {
        const std::uint32_t f = csr_flow_[i];
        if (frozen_[f]) continue;
        frozen_[f] = 1;
        batch_.push_back(f);
      }
    }
    newly_saturated_.clear();
    bool froze_any =
        freeze_batch([&](std::uint32_t f) { return std::min(level, flows[f].rate_cap); });
    if (unfrozen == 0) break;

    // Largest uniform rate increment before a resource saturates or a flow
    // hits its cap.
    double delta = kUnbounded;
    for (const std::uint32_t l : live_) {
      if (active_cost_[l] <= 1e-15) continue;
      delta = std::min(delta, residual_[l] / active_cost_[l]);
    }
    while (frozen_[by_cap_[cap_head]]) ++cap_head;
    const double min_cap = flows[by_cap_[cap_head]].rate_cap;
    const double cap_delta = min_cap - level;
    const bool cap_binds = cap_delta <= delta;
    delta = std::min(delta, cap_delta);

    if (std::isinf(delta)) {
      // Remaining flows consume nothing and have no cap; pin at level.
      pin_rest([&](std::uint32_t) { return level; });
      break;
    }

    if (delta > 0.0) {
      level += delta;
      for (const std::uint32_t l : live_) {
        if (active_cost_[l] > 0.0) residual_[l] -= active_cost_[l] * delta;
      }
    }

    // Mark newly saturated resources. A resource leaves the live list once
    // it saturates (its residual is never read again) or its active cost
    // drops to zero (it only ever decreases).
    std::size_t kept = 0;
    for (const std::uint32_t l : live_) {
      if (active_cost_[l] <= 0.0) continue;
      if (residual_[l] <= sat_eps_[l]) {
        newly_saturated_.push_back(l);
        froze_any = true;  // the next loop pass will freeze its flows
        continue;
      }
      live_[kept++] = l;
    }
    live_.resize(kept);

    // Freeze cap-limited flows: a prefix of the unfrozen flows by cap.
    if (cap_binds) {
      const double cap_limit = level + 1e-12 * (1.0 + level);
      batch_.clear();
      for (std::size_t i = cap_head; i < by_cap_.size(); ++i) {
        const std::uint32_t f = by_cap_[i];
        if (frozen_[f]) continue;
        if (flows[f].rate_cap > cap_limit) break;
        frozen_[f] = 1;
        batch_.push_back(f);
      }
      froze_any |= freeze_batch([&](std::uint32_t f) { return flows[f].rate_cap; });
    }

    if (!froze_any && delta <= 0.0) {
      // Defensive: no progress possible (degenerate numerics); pin the rest.
      pin_rest([&](std::uint32_t f) { return std::min(level, flows[f].rate_cap); });
      break;
    }
  }

  // Utilization report: one pass over all flow hops.
  used_.assign(nt, 0.0);
  k = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    for (const PathHop& hop : flows[f].path) used_[hop_local_[k++]] += rate_[f] * hop.cost;
  }
  utilization_.resize(nt);
  for (std::size_t l = 0; l < nt; ++l) {
    const double cap = capacity[touched_[l]];
    utilization_[l] = cap > 0.0 ? std::min(1.0, used_[l] / cap) : 0.0;
  }
}

void MaxMinSolver::export_result(std::size_t resources, SolveResult& out) const {
  out.rate.assign(rate_.begin(), rate_.end());
  out.utilization.assign(resources, 0.0);
  for (std::size_t l = 0; l < touched_.size(); ++l) {
    out.utilization[touched_[l]] = utilization_[l];
  }
}

SolveResult solve_max_min(std::span<const double> capacity,
                          std::span<const SolverFlow> flows) {
  MaxMinSolver solver;
  solver.solve(capacity, flows);
  SolveResult out;
  solver.export_result(capacity.size(), out);
  return out;
}

}  // namespace spider::sim
