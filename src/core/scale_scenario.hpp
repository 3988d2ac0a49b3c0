// Center-scale macro scenario on the sharded engine.
//
// ROADMAP item 1's scaling study: drive a Spider II-shaped population of
// clients against SSU-aligned failure/routing zones at 1x/4x/16x scale, with
// the event space partitioned across a ShardedSimulator. Each zone is one
// domain in the ShardMap — its clients issue requests, its OSTs serve them,
// and a fraction of completions trigger FGR-style cross-zone transfers,
// which travel through schedule_cross mailboxes with the fabric's real
// latency floor (net/lookahead.hpp) so the epoch contract holds by
// construction.
//
// Every random draw comes from the owning zone's private Rng, every local
// event lands in the owning zone's shard, and cross-zone messages capture
// their service draw at the sender — so the merged replay stream depends
// only on (params, seed, shard assignment), never on worker count or
// (empty-)shard count. bench_macro_scale measures events/sec on exactly
// this scenario; tests/scale_scenario_test.cpp pins the determinism claims.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/spider_config.hpp"
#include "net/fabric.hpp"
#include "sim/sharded_sim.hpp"
#include "sim/time.hpp"

namespace spider::core {

struct ScaleParams {
  /// Failure/routing domains; one per SSU for Spider II (36).
  std::size_t zones = 36;
  /// Clients issuing I/O per zone at scale 1.0.
  std::size_t clients_per_zone = 16;
  /// Center scale multiplier (1x/4x/16x Spider II) — multiplies the client
  /// population per zone.
  double scale = 1.0;
  /// Mean client think time between requests (jittered ±50%).
  sim::SimTime think = 20 * sim::kMillisecond;
  /// Mean service time of one request on the zone's OSTs (jittered ±50%).
  sim::SimTime service = 2 * sim::kMillisecond;
  /// Bytes moved per local request.
  Bytes request_bytes = 1_MiB;
  /// Every remote_every-th completion in a zone notifies a peer zone — an
  /// FGR cross-zone transfer. 0 disables cross traffic.
  std::size_t remote_every = 8;
  /// Minimum payload of a cross-zone transfer; its wire time is what makes
  /// the engine lookahead (and so the epochs) usefully wide.
  Bytes notify_bytes = 16_MiB;
  std::uint64_t seed = 2014;
};

/// Scenario-wide counters, aggregated over zones.
struct ScaleTotals {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t remote_sent = 0;
  std::uint64_t remote_served = 0;
  ByteVolume bytes_moved = 0.0;
};

class ScaleScenario {
 public:
  /// `map` assigns zone -> shard and must cover params.zones domains within
  /// engine.shards(). The engine's lookahead must not exceed
  /// required_lookahead(fabric, params) or start() refuses.
  ScaleScenario(const ScaleParams& params, const net::IbFabric& fabric,
                sim::ShardedSimulator& engine, const sim::ShardMap& map);

  /// Seed every client's first issue event. Call once, before engine.run().
  void start();

  ScaleTotals totals() const;
  std::size_t clients_per_zone() const;

  /// The widest causally safe lookahead for this scenario's cross traffic.
  static sim::SimTime required_lookahead(const net::IbFabric& fabric,
                                         const ScaleParams& params);
  /// Derive zone/client shape from a center config: one zone per SSU, the
  /// client population split evenly, scaled by `scale`.
  static ScaleParams from_center(const CenterConfig& cfg, double scale);

 private:
  /// Every event of a zone draws from its Rng and bumps its totals, and
  /// zones on different shards run on different lanes: each zone gets lines
  /// of its own, or neighbouring zones' lanes contend for one.
  struct alignas(sim::kLaneAlign) Zone {
    Rng rng;
    ScaleTotals totals;
  };

  sim::Simulator& zone_sim(std::size_t z);
  /// Jittered duration in [mean/2, 3*mean/2), drawn from `rng`.
  static sim::SimTime jittered(Rng& rng, sim::SimTime mean);
  void client_issue(std::size_t z, sim::Site loc);
  void client_complete(std::size_t z, sim::Site loc);
  void remote_serve(std::size_t z, sim::SimTime service_time, sim::Site loc);

  ScaleParams params_;
  sim::ShardedSimulator& engine_;
  sim::ShardMap map_;
  /// Latency each cross-zone notify carries: the fabric floor plus the
  /// notify's wire time, the upper bound for engine lookahead.
  sim::SimTime cross_latency_ = 0;
  std::vector<Zone> zones_;
};

}  // namespace spider::core
