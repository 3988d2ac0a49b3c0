#include "sim/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace spider::sim {

namespace {
// Remaining size below this fraction of one unit counts as finished.
constexpr double kRemainingEps = 1e-6;
}  // namespace

ResourceId FlowNetwork::add_resource(std::string name, double capacity) {
  if (capacity < 0.0) throw std::invalid_argument("resource capacity must be >= 0");
  names_.push_back(std::move(name));
  capacity_.push_back(capacity);
  stats_.emplace_back();
  used_.push_back(0.0);
  return static_cast<ResourceId>(capacity_.size() - 1);
}

void FlowNetwork::set_capacity(ResourceId id, double capacity) {
  advance_progress();
  capacity_.at(id) = capacity;
  inputs_changed_ = true;
  resolve();
}

FlowId FlowNetwork::start_flow(FlowDesc desc) {
  if (desc.size <= 0.0) throw std::invalid_argument("flow size must be > 0");
  if (std::isnan(desc.rate_cap)) throw std::invalid_argument("flow rate cap is NaN");
  for (const auto& hop : desc.path) {
    if (hop.resource >= capacity_.size()) {
      throw std::out_of_range("flow path references unknown resource");
    }
  }
  const FlowId id = next_flow_id_++;
  auto activate = [this, id, desc = std::move(desc)]() mutable {
    if (desc.latency > 0) pending_.erase(find_pending(id));
    advance_progress();
    for (const auto& hop : desc.path) ++stats_[hop.resource].flows_seen;
    flows_.insert(lower_bound(id),  // latency can activate out of id order
                  ActiveFlow{id, std::move(desc.path), desc.size, desc.size,
                             desc.rate_cap, 0.0, std::move(desc.on_complete)});
    inputs_changed_ = true;
    resolve();
  };
  if (desc.latency > 0) {
    const SimTime latency = desc.latency;
    pending_.push_back({id, sim_.schedule_in(latency, std::move(activate))});
  } else {
    activate();
  }
  return id;
}

void FlowNetwork::cancel_flow(FlowId id) {
  if (const auto p = find_pending(id); p != pending_.end()) {
    sim_.cancel(p->activation);
    pending_.erase(p);
  } else if (const auto it = find(id); it != flows_.end()) {
    advance_progress();
    flows_.erase(it);
    inputs_changed_ = true;
    resolve();
  }
}

double FlowNetwork::flow_rate(FlowId id) const {
  const auto it = find(id);
  return it == flows_.end() ? 0.0 : it->rate;
}

FlowNetwork::FlowIter FlowNetwork::lower_bound(FlowId id) const {
  return std::lower_bound(flows_.begin(), flows_.end(), id,
                          [](const ActiveFlow& f, FlowId v) { return f.id < v; });
}

FlowNetwork::FlowIter FlowNetwork::find(FlowId id) const {
  const FlowIter it = lower_bound(id);
  return it != flows_.end() && it->id == id ? it : flows_.end();
}

void FlowNetwork::advance_progress() {
  const SimTime now = sim_.now();
  if (now == last_update_) return;
  const double dt = to_seconds(now - last_update_);
  last_update_ = now;
  if (dt <= 0.0) return;
  // Per-resource delivered units this interval, for telemetry. Every hop of
  // every live flow is in the last solve's touched set, and every other
  // resource would only add zero.
  for (auto& f : flows_) {
    const double moved = std::min(f.remaining, f.rate * dt);
    f.remaining -= moved;
    for (const auto& hop : f.path) used_[hop.resource] += moved * hop.cost;
  }
  for (const ResourceId r : solver_.touched()) {
    stats_[r].served += used_[r];
    if (capacity_[r] > 0.0) stats_[r].busy_integral += used_[r] / capacity_[r];
    used_[r] = 0.0;
  }
}

void FlowNetwork::resolve() {
  sim_.cancel(completion_);  // the stale completion; a no-op once it fired
  // Unchanged inputs give bit-identical rates: only completion times move.
  if (inputs_changed_) {
    solve();
  } else {
    ++counters_.skipped_solves;
  }
  double min_completion_s = kUnbounded;
  for (const auto& f : flows_) {
    if (f.rate > 0.0) {
      min_completion_s = std::min(min_completion_s, f.remaining / f.rate);
    }
  }
  // None past SimTime's end (inf included); a later re-solve schedules it.
  const SimTime headroom = std::numeric_limits<SimTime>::max() - sim_.now();
  const double dt_ns = min_completion_s * static_cast<double>(kSecond);
  if (dt_ns < static_cast<double>(headroom)) {  // so the cast and now + dt fit
    const SimTime dt = std::max<SimTime>(static_cast<SimTime>(dt_ns), 1);
    completion_ = sim_.schedule_in(dt, [this] { on_completion_event(); });
  }
}

void FlowNetwork::solve() {
  inputs_changed_ = false;
  // flows_ is id-ordered, so the solver sees flows in a canonical sequence
  // and rate/float-sum results depend only on the live flow set.
  for (const auto& f : flows_) solver_flows_.push_back(SolverFlow{f.path, f.rate_cap});
  for (const ResourceId r : solver_.touched()) stats_[r].current_load = 0.0;
  solver_.solve(capacity_, solver_flows_);
  solver_flows_.clear();  // its spans view flows_, which may reallocate

  const std::span<const double> rate = solver_.rates();
  aggregate_rate_ = 0.0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    flows_[i].rate = rate[i];
    aggregate_rate_ += rate[i];
  }
  const std::span<const ResourceId> touched = solver_.touched();
  for (std::size_t i = 0; i < touched.size(); ++i) {
    stats_[touched[i]].current_load = solver_.utilization()[i];
  }
  ++counters_.solves;
  counters_.iterations += solver_.iterations();
  counters_.flows_solved += flows_.size();
  counters_.resources_touched += touched.size();
}

void FlowNetwork::on_completion_event() {
  advance_progress();
  // Collect finished flows (remaining ~ 0), fire callbacks after removing
  // them so callbacks may start new flows re-entrantly. The id-ordered walk
  // makes both the total_delivered_ sum and the callback order canonical,
  // and the compaction keeps the survivors in id order.
  std::vector<std::pair<FlowId, std::function<void(FlowId, SimTime)>>> done;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    ActiveFlow& f = flows_[i];
    if (f.remaining <= kRemainingEps * (1.0 + f.remaining)) {
      total_delivered_ += f.size;
      done.emplace_back(f.id, std::move(f.on_complete));
    } else {
      if (kept != i) flows_[kept] = std::move(f);
      ++kept;
    }
  }
  if (!done.empty()) {
    flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept), flows_.end());
    inputs_changed_ = true;
  }
  const SimTime now = sim_.now();
  for (auto& [id, cb] : done) {
    if (cb) cb(id, now);
  }
  resolve();
}

std::vector<FlowNetwork::PendingFlow>::iterator FlowNetwork::find_pending(
    FlowId id) {
  const auto it = std::lower_bound(
      pending_.begin(), pending_.end(), id,
      [](const PendingFlow& p, FlowId v) { return p.id < v; });
  return it != pending_.end() && it->id == id ? it : pending_.end();
}

}  // namespace spider::sim
