// ScaleScenario determinism tests — the macro workload bench_macro_scale
// measures must itself be worker- and shard-count-invariant, or the bench's
// in-run hash check (and the ≥2x speedup claim) would be comparing different
// workloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "core/scale_scenario.hpp"
#include "net/fabric.hpp"
#include "net/lookahead.hpp"
#include "sim/sharded_sim.hpp"
#include "sim/time.hpp"

namespace {

using namespace spider;
using core::ScaleParams;
using core::ScaleScenario;
using core::ScaleTotals;
using sim::ShardedConfig;
using sim::ShardedReplay;
using sim::ShardedSimulator;
using sim::ShardMap;

ScaleParams small_params() {
  ScaleParams params;
  params.zones = 6;
  params.clients_per_zone = 3;
  params.think = 2 * sim::kMillisecond;
  params.service = 500 * sim::kMicrosecond;
  params.remote_every = 4;
  return params;
}

struct RunResult {
  std::uint64_t hash = 0;
  ScaleTotals totals;
};

RunResult run_scale(const ScaleParams& params, const ShardMap& map,
                    std::size_t shards, std::size_t workers,
                    sim::SimTime horizon = 50 * sim::kMillisecond) {
  const net::IbFabric fabric{net::FabricParams{}};
  ShardedConfig cfg;
  cfg.lookahead = ScaleScenario::required_lookahead(fabric, params);
  cfg.workers = workers;
  ShardedSimulator engine(shards, cfg);
  ShardedReplay replay(engine);
  ScaleScenario scenario(params, fabric, engine, map);
  scenario.start();
  engine.run(horizon);
  return RunResult{replay.merged_hash(), scenario.totals()};
}

TEST(ScaleScenario, DeterministicAcrossRepeatRuns) {
  const ScaleParams params = small_params();
  const ShardMap map(params.zones, 3);
  const RunResult a = run_scale(params, map, 3, 1);
  const RunResult b = run_scale(params, map, 3, 1);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.totals.issued, b.totals.issued);
  EXPECT_EQ(a.totals.completed, b.totals.completed);
  EXPECT_EQ(a.totals.remote_sent, b.totals.remote_sent);
  EXPECT_EQ(a.totals.remote_served, b.totals.remote_served);
  // The workload actually exercised both local and cross-zone paths.
  EXPECT_GT(a.totals.completed, 0u);
  EXPECT_GT(a.totals.remote_served, 0u);
  EXPECT_GT(a.totals.bytes_moved, 0.0);
}

TEST(ScaleScenario, HashIndependentOfWorkerCount) {
  const ScaleParams params = small_params();
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const ShardMap map(params.zones, shards > params.zones
                                         ? params.zones
                                         : shards);
    const RunResult serial = run_scale(params, map, shards, 1);
    const RunResult fanned = run_scale(params, map, shards, 0);
    EXPECT_EQ(serial.hash, fanned.hash) << "shards=" << shards;
    EXPECT_EQ(serial.totals.completed, fanned.totals.completed)
        << "shards=" << shards;
  }
}

TEST(ScaleScenario, HashIndependentOfShardCount) {
  const ScaleParams params = small_params();
  const ShardMap map(params.zones, 3);
  const RunResult on3 = run_scale(params, map, 3, 0);
  const RunResult on8 = run_scale(params, map, 8, 0);
  EXPECT_EQ(on3.hash, on8.hash);
}

TEST(ScaleScenario, HashChangesWithShardAssignment) {
  const ScaleParams params = small_params();
  const ShardMap base(params.zones, 3);
  ShardMap moved(params.zones, 3);
  moved.reassign(0, 1);
  EXPECT_NE(run_scale(params, base, 3, 1).hash,
            run_scale(params, moved, 3, 1).hash);
}

TEST(ScaleScenario, RequiredLookaheadCoversPathAndWire) {
  const net::IbFabric fabric{net::FabricParams{}};
  const ScaleParams params = small_params();
  const sim::SimTime lookahead =
      ScaleScenario::required_lookahead(fabric, params);
  // At least the switch-path floor, plus a nonzero wire time for the payload.
  EXPECT_GT(lookahead, net::cross_zone_path_latency(fabric));
}

TEST(ScaleScenario, RejectsLookaheadWiderThanCrossLatency) {
  const net::IbFabric fabric{net::FabricParams{}};
  const ScaleParams params = small_params();
  ShardedConfig cfg;
  cfg.lookahead =
      2 * ScaleScenario::required_lookahead(fabric, params);  // too wide
  cfg.workers = 1;
  ShardedSimulator engine(3, cfg);
  const ShardMap map(params.zones, 3);
  EXPECT_THROW(ScaleScenario(params, fabric, engine, map),
               std::invalid_argument);
}

TEST(ScaleScenario, FromCenterDerivesZoneShape) {
  const core::CenterConfig cfg = core::spider2_config();
  const ScaleParams params = ScaleScenario::from_center(cfg, 4.0);
  EXPECT_EQ(params.zones, cfg.ssus);
  EXPECT_EQ(params.clients_per_zone, cfg.clients / cfg.ssus);
  EXPECT_DOUBLE_EQ(params.scale, 4.0);
  EXPECT_EQ(params.request_bytes, cfg.max_rpc);
}

}  // namespace
