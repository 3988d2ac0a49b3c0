#include "core/scale_scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/lookahead.hpp"

namespace spider::core {

namespace {

/// Per-zone seed derivation (splitmix golden ratio, the same idiom the
/// spiderfault mutation fan-out uses) so zones draw independent streams.
constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ull;

}  // namespace

ScaleScenario::ScaleScenario(const ScaleParams& params,
                             const net::IbFabric& fabric,
                             sim::ShardedSimulator& engine,
                             const sim::ShardMap& map)
    : params_(params), engine_(engine), map_(map) {
  if (params_.zones == 0) {
    throw std::invalid_argument("ScaleScenario: zones must be >= 1");
  }
  if (map_.domains() < params_.zones) {
    throw std::invalid_argument(
        "ScaleScenario: shard map covers fewer domains than zones");
  }
  if (map_.shards() > engine_.shards()) {
    throw std::invalid_argument(
        "ScaleScenario: shard map targets more shards than the engine has");
  }
  cross_latency_ = required_lookahead(fabric, params_);
  if (engine_.lookahead() > cross_latency_) {
    throw std::invalid_argument(
        "ScaleScenario: engine lookahead exceeds the cross-zone latency — "
        "cross notifies would breach the epoch contract");
  }
  zones_.reserve(params_.zones);
  for (std::size_t z = 0; z < params_.zones; ++z) {
    zones_.push_back(Zone{Rng(params_.seed ^ (kSeedStride * (z + 1))), {}});
  }
}

sim::SimTime ScaleScenario::required_lookahead(const net::IbFabric& fabric,
                                               const ScaleParams& params) {
  return net::cross_zone_lookahead(fabric, params.notify_bytes);
}

ScaleParams ScaleScenario::from_center(const CenterConfig& cfg, double scale) {
  ScaleParams params;
  params.zones = std::max<std::size_t>(1, cfg.ssus);
  params.clients_per_zone =
      std::max<std::size_t>(1, cfg.clients / params.zones);
  params.scale = scale;
  params.request_bytes = cfg.max_rpc;
  return params;
}

std::size_t ScaleScenario::clients_per_zone() const {
  const double scaled =
      static_cast<double>(params_.clients_per_zone) * params_.scale;
  return std::max<std::size_t>(1, static_cast<std::size_t>(scaled));
}

sim::Simulator& ScaleScenario::zone_sim(std::size_t z) {
  return engine_.shard(map_.shard_of(z));
}

sim::SimTime ScaleScenario::jittered(Rng& rng, sim::SimTime mean) {
  const auto span = static_cast<std::uint64_t>(std::max<sim::SimTime>(1, mean));
  return mean / 2 + static_cast<sim::SimTime>(rng.uniform_index(span));
}

void ScaleScenario::start() {
  const sim::Site loc;
  const std::size_t clients = clients_per_zone();
  for (std::size_t z = 0; z < params_.zones; ++z) {
    Zone& zone = zones_[z];
    for (std::size_t c = 0; c < clients; ++c) {
      // Stagger first issues across one think period so the center does not
      // start phase-locked.
      const sim::SimTime at = jittered(zone.rng, params_.think) / 2;
      zone_sim(z).schedule_at(at, [this, z, loc] { client_issue(z, loc); },
                              loc);
    }
  }
}

void ScaleScenario::client_issue(std::size_t z, sim::Site loc) {
  Zone& zone = zones_[z];
  ++zone.totals.issued;
  const sim::SimTime service_time = jittered(zone.rng, params_.service);
  zone_sim(z).schedule_in(service_time,
                          [this, z, loc] { client_complete(z, loc); }, loc);
}

void ScaleScenario::client_complete(std::size_t z, sim::Site loc) {
  Zone& zone = zones_[z];
  ++zone.totals.completed;
  zone.totals.bytes_moved += static_cast<double>(params_.request_bytes);
  if (params_.remote_every > 0 && params_.zones > 1 &&
      zone.totals.completed % params_.remote_every == 0) {
    // FGR cross-zone transfer: target and service draw come from the
    // *sender's* stream, so the receiver's own draws are untouched and the
    // merged stream stays assignment-only dependent.
    const std::size_t target =
        (z + 1 + zone.rng.uniform_index(params_.zones - 1)) % params_.zones;
    const sim::SimTime service_time = jittered(zone.rng, params_.service);
    ++zone.totals.remote_sent;
    const sim::SimTime when = zone_sim(z).now() + cross_latency_;
    engine_.schedule_cross(
        map_.shard_of(z), map_.shard_of(target), when,
        [this, target, service_time, loc] {
          remote_serve(target, service_time, loc);
        },
        loc);
  }
  const sim::SimTime think_time = jittered(zone.rng, params_.think);
  zone_sim(z).schedule_in(think_time, [this, z, loc] { client_issue(z, loc); },
                          loc);
}

void ScaleScenario::remote_serve(std::size_t z, sim::SimTime service_time,
                                 sim::Site loc) {
  Zone& zone = zones_[z];
  ++zone.totals.remote_served;
  zone_sim(z).schedule_in(service_time,
                          [this, z] {
                            zones_[z].totals.bytes_moved +=
                                static_cast<double>(params_.notify_bytes);
                          },
                          loc);
}

ScaleTotals ScaleScenario::totals() const {
  ScaleTotals sum;
  for (const Zone& zone : zones_) {
    sum.issued += zone.totals.issued;
    sum.completed += zone.totals.completed;
    sum.remote_sent += zone.totals.remote_sent;
    sum.remote_served += zone.totals.remote_served;
    sum.bytes_moved += zone.totals.bytes_moved;
  }
  return sum;
}

}  // namespace spider::core
