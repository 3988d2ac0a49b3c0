#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/center.hpp"
#include "core/exclusive_model.hpp"
#include "core/scenario.hpp"
#include "core/spider_config.hpp"
#include "sim/replay.hpp"
#include "workload/analytics.hpp"
#include "workload/ior.hpp"

namespace spider::core {
namespace {

/// One shared full-scale model (construction is cheap; keep one per suite).
struct CenterFixture : ::testing::Test {
  static CenterModel& center() {
    static Rng rng(42);
    static CenterModel model(spider2_config(), rng);
    return model;
  }
  static Rng& rng() {
    static Rng r(7);
    return r;
  }
};

TEST_F(CenterFixture, InventoryMatchesPaper) {
  auto& c = center();
  EXPECT_EQ(c.config().clients, 18688u);
  EXPECT_EQ(c.fgr().num_routers(), 440u);
  EXPECT_EQ(c.num_ssus(), 36u);
  EXPECT_EQ(c.total_osts(), 2016u);
  EXPECT_EQ(c.num_oss(), 288u);
  // 32 PB class capacity.
  EXPECT_NEAR(to_pb(c.filesystem().capacity()), 32.3, 0.5);
  EXPECT_EQ(c.filesystem().namespaces(), 2u);
}

TEST_F(CenterFixture, MappingsConsistent) {
  auto& c = center();
  EXPECT_EQ(c.ssu_of_ost(0), 0u);
  EXPECT_EQ(c.ssu_of_ost(55), 0u);
  EXPECT_EQ(c.ssu_of_ost(56), 1u);
  EXPECT_EQ(c.namespace_of_ost(0), 0u);
  EXPECT_EQ(c.namespace_of_ost(1007), 0u);
  EXPECT_EQ(c.namespace_of_ost(1008), 1u);
  // 2016 OSTs over 288 OSS -> 7 per OSS.
  EXPECT_EQ(c.oss_of_ost(6), 0u);
  EXPECT_EQ(c.oss_of_ost(7), 1u);
  for (std::size_t o : {0u, 500u, 2015u}) {
    EXPECT_LT(c.leaf_of_ost(o), 36u);
  }
}

TEST_F(CenterFixture, LayerProfileMonotoneDownTheStack) {
  const auto p = center().layer_profile(block::IoMode::kSequential,
                                        block::IoDir::kWrite);
  EXPECT_GT(p.disks, p.raid);       // RAID geometry costs bandwidth
  EXPECT_GT(p.raid, p.obdfilter);   // the file system costs more
  EXPECT_GT(p.obdfilter, 0.0);
  const double expected_min = std::min({p.obdfilter, p.controllers, p.oss,
                                        p.routers, p.ib_leaves, p.clients});
  EXPECT_DOUBLE_EQ(p.end_to_end, expected_min);
  // The full system delivers the paper's >1 TB/s.
  EXPECT_GT(p.end_to_end, 1.0 * kTBps);
}

TEST_F(CenterFixture, RandomModeLandsNearRandomTarget) {
  const auto p =
      center().layer_profile(block::IoMode::kRandom, block::IoDir::kWrite);
  // 240 GB/s class: between 200 and 400 GB/s in the model.
  const double system_random =
      std::min({p.obdfilter, p.controllers, p.oss, p.routers});
  EXPECT_GT(system_random, 200.0 * kGBps);
  EXPECT_LT(system_random, 420.0 * kGBps);
}

TEST(CenterKnobs, ControllerUpgradeRaisesNamespaceCeiling) {
  Rng rng(1);
  CenterModel c(spider2_config(/*upgraded_controllers=*/false), rng);
  c.set_target_namespace(0);
  c.set_client_placement(ClientPlacement::kOptimal, rng);
  workload::IorConfig cfg;
  cfg.clients = 1008;
  const auto before = workload::run_ior(c, cfg);
  // Paper: 320 GB/s before the upgrade, 510 GB/s after.
  EXPECT_NEAR(to_gbps(before.aggregate_bw), 320.0, 30.0);
  c.upgrade_controllers(block::upgraded_controller_params());
  const auto after = workload::run_ior(c, cfg);
  EXPECT_NEAR(to_gbps(after.aggregate_bw), 510.0, 40.0);
}

TEST(CenterKnobs, RandomPlacementFarSlowerPerClient) {
  Rng rng(2);
  CenterModel c(spider2_config(false), rng);
  c.set_target_namespace(0);
  workload::IorConfig cfg;
  cfg.clients = 1008;
  c.set_client_placement(ClientPlacement::kOptimal, rng);
  const auto optimal = workload::run_ior(c, cfg);
  c.set_client_placement(ClientPlacement::kRandom, rng);
  const auto random = workload::run_ior(c, cfg);
  EXPECT_GT(optimal.aggregate_bw, 4.0 * random.aggregate_bw);
}

TEST(CenterKnobs, ClientScalingKneeNearSixThousand) {
  Rng rng(3);
  CenterModel c(spider2_config(false), rng);
  c.set_target_namespace(0);
  c.set_client_placement(ClientPlacement::kRandom, rng);
  auto run = [&](std::size_t clients) {
    workload::IorConfig cfg;
    cfg.clients = clients;
    return workload::run_ior(c, cfg).aggregate_bw;
  };
  const double at512 = run(512);
  const double at4096 = run(4096);
  const double at6144 = run(6144);
  const double at16384 = run(16384);
  // Near-linear up to ~6000 clients...
  EXPECT_GT(at4096, 6.0 * at512);
  EXPECT_GT(at6144, at4096 * 1.2);
  // ...then steady at the namespace ceiling (320 GB/s class).
  EXPECT_LT(at16384, at6144 * 1.25);
  EXPECT_NEAR(to_gbps(at16384), 320.0, 40.0);
}

TEST(CenterKnobs, FullnessDegradesBandwidth) {
  Rng rng(4);
  CenterModel c(scaled_config(spider2_config(), 0.1), rng);
  c.set_target_namespace(SIZE_MAX);
  c.set_client_placement(ClientPlacement::kOptimal, rng);
  workload::IorConfig cfg;
  cfg.clients = c.total_osts() * 2;
  const auto empty = workload::run_ior(c, cfg);
  c.set_fleet_fullness(0.85);
  const auto full = workload::run_ior(c, cfg);
  EXPECT_LT(full.aggregate_bw, 0.9 * empty.aggregate_bw);
  c.set_fleet_fullness(0.0);
}

TEST(CenterKnobs, RoutingPoliciesDiffer) {
  Rng rng(5);
  CenterModel c(scaled_config(spider2_config(), 0.15), rng);
  c.set_target_namespace(SIZE_MAX);
  c.set_client_placement(ClientPlacement::kRandom, rng);
  workload::IorConfig cfg;
  cfg.clients = 512;
  c.set_routing_policy(RoutingPolicy::kFgr);
  const auto fgr = workload::run_ior(c, cfg);
  c.set_routing_policy(RoutingPolicy::kRoundRobin);
  const auto rr = workload::run_ior(c, cfg);
  // FGR keeps traffic off the IB core and close in the torus.
  EXPECT_GT(fgr.aggregate_bw, rr.aggregate_bw);
}

TEST(CenterKnobs, ScaledConfigBuildsAndSolves) {
  Rng rng(6);
  const auto cfg = scaled_config(spider2_config(), 1.0 / 16.0);
  CenterModel c(cfg, rng);
  EXPECT_GE(c.total_osts(), 100u);
  workload::IorConfig ior;
  ior.clients = 256;
  const auto r = workload::run_ior(c, ior);
  EXPECT_GT(r.aggregate_bw, 0.0);
}

TEST(CenterKnobs, TargetNamespaceRestrictsOsts) {
  Rng rng(7);
  CenterModel c(scaled_config(spider2_config(), 0.1), rng);
  c.set_target_namespace(0);
  const std::size_t ns0 = c.num_osts();
  c.set_target_namespace(SIZE_MAX);
  EXPECT_EQ(c.num_osts(), c.total_osts());
  EXPECT_LT(ns0, c.total_osts());
  EXPECT_THROW(c.set_target_namespace(5), std::out_of_range);
}

TEST(CenterTelemetry, LoadsAndTopologyShapes) {
  Rng rng(8);
  CenterModel c(scaled_config(spider2_config(), 0.1), rng);
  workload::IorConfig cfg;
  cfg.clients = 128;
  workload::run_ior(c, cfg);
  const auto loads = c.loads_from_solver();
  EXPECT_EQ(loads.ost_load.size(), c.total_osts());
  EXPECT_EQ(loads.oss_load.size(), c.num_oss());
  EXPECT_GT(*std::max_element(loads.ost_load.begin(), loads.ost_load.end()),
            0.5);
  const auto topo = c.storage_topology();
  EXPECT_EQ(topo.ost_to_oss.size(), c.total_osts());
  EXPECT_EQ(topo.oss_to_leaf.size(), c.num_oss());
  EXPECT_EQ(topo.router_to_leaf.size(), c.fgr().num_routers());
}

// --- scenarios -----------------------------------------------------------------

TEST(Scenario, BurstCompletesWithPlausibleBandwidth) {
  Rng rng(9);
  CenterModel c(scaled_config(spider2_config(), 0.1), rng);
  c.set_client_placement(ClientPlacement::kOptimal, rng);
  sim::Simulator sim;
  ScenarioRunner runner(c, sim);

  workload::IoBurst burst;
  burst.start = sim::kSecond;
  burst.clients = 256;
  burst.bytes_per_client = 1_GiB;
  burst.request_size = 1_MiB;

  bool finished = false;
  BurstOutcome outcome;
  runner.submit_burst(
      burst, [&c](std::size_t w) { return w % c.total_osts(); },
      [&](BurstOutcome o) {
        finished = true;
        outcome = o;
      });
  sim.run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(outcome.bytes, 256u * 1_GiB);
  EXPECT_GT(outcome.achieved_bw, 1.0 * kGBps);
  // Cannot exceed the scaled system's ceiling.
  const auto prof =
      c.layer_profile(block::IoMode::kSequential, block::IoDir::kWrite);
  EXPECT_LE(outcome.achieved_bw, prof.end_to_end * 1.05);
}

TEST(Scenario, InterferenceRaisesAnalyticsLatency) {
  Rng rng(10);
  CenterModel c(scaled_config(spider2_config(), 0.1), rng);
  c.set_client_placement(ClientPlacement::kRandom, rng);

  auto run_analytics = [&](bool with_checkpoint) {
    sim::Simulator sim;
    ScenarioRunner runner(c, sim);
    workload::AnalyticsParams ap;
    ap.clients = 12;
    workload::AnalyticsWorkload analytics(ap);
    Rng wrng(11);
    std::vector<double> latencies;
    runner.submit_requests(analytics.generate(20.0, wrng),
                           [](std::size_t w) { return w % 8; }, &latencies);
    if (with_checkpoint) {
      // A checkpoint storm aimed at the same 8 OSTs the analytics stream
      // reads from, heavy enough that each OST's fair share drops below a
      // single reader's demand — the Lesson 1-2 mixed-workload scenario.
      workload::IoBurst burst;
      burst.start = sim::kSecond;
      burst.clients = 2048;
      burst.bytes_per_client = 4_GiB;
      runner.submit_burst(burst, [](std::size_t f) { return f % 8; },
                          nullptr, 16, 100000);
    }
    sim.run();
    return mean_of(latencies);
  };
  const double quiet = run_analytics(false);
  const double contended = run_analytics(true);
  EXPECT_GT(contended, 1.3 * quiet);
}

TEST(Scenario, ThroughputLogSeesBurst) {
  Rng rng(12);
  CenterModel c(scaled_config(spider2_config(), 0.1), rng);
  c.set_client_placement(ClientPlacement::kOptimal, rng);
  sim::Simulator sim;
  ScenarioRunner runner(c, sim);
  workload::IoBurst burst;
  burst.start = 5 * sim::kSecond;
  burst.clients = 128;
  burst.bytes_per_client = 1_GiB;
  runner.submit_burst(burst,
                      [&c](std::size_t w) { return w % c.total_osts(); },
                      nullptr);
  std::vector<double> log;
  runner.record_throughput(1.0, 30.0, &log);
  sim.run();
  ASSERT_EQ(log.size(), 30u);
  // Quiet before the burst, hot during.
  EXPECT_LT(log[2], 1.0);
  EXPECT_GT(*std::max_element(log.begin(), log.end()), 1.0 * kGBps);
}

// Bit-level pin of the flow layer at center scale: 16 analytics readers and
// a small grouped checkpoint burst share 8 OSTs of the 0.1-scale Spider II,
// the C16 shape in a few simulated seconds. The telemetry hash and every
// latency's bits must survive any rewrite of the solver or flow bookkeeping.
TEST(Scenario, ContendedRunIsPinned) {
  Rng rng(2014);
  CenterModel c(scaled_config(spider2_config(), 0.1), rng);
  c.set_client_placement(ClientPlacement::kRandom, rng);
  sim::Simulator sim;
  ScenarioRunner runner(c, sim);
  workload::AnalyticsParams ap;
  ap.clients = 16;
  Rng wrng(11);
  std::vector<double> latencies;
  runner.submit_requests(workload::AnalyticsWorkload(ap).generate(3.0, wrng),
                         [](std::size_t w) { return w % 8; }, &latencies);
  workload::IoBurst burst;
  burst.start = sim::kSecond;
  burst.clients = 256;
  burst.bytes_per_client = 16_MiB;
  runner.submit_burst(burst, [](std::size_t f) { return f % 8; }, nullptr, 32,
                      100000);
  sim.run();

  sim::ReplayRecorder rec;
  rec.record_resource_stats(runner.network());
  std::uint64_t latency_bits = kFnvOffsetBasis;
  for (const double l : latencies) {
    latency_bits = fnv1a(latency_bits, std::bit_cast<std::uint64_t>(l));
  }
  EXPECT_EQ(latencies.size(), 945u);
  EXPECT_EQ(latency_bits, 0xb97a47f730c787c9ull);
  EXPECT_EQ(rec.stats_hash(), 0xd16675d25863b908ull);
}

// --- machine-exclusive comparison ----------------------------------------------

TEST(ExclusiveModel, DataCentricFasterAndMovementVisible) {
  const auto r = compare_workflow(WorkflowSpec{});
  EXPECT_GT(r.exclusive_s, r.datacentric_s);
  EXPECT_GT(r.speedup, 1.0);
  EXPECT_GT(r.movement_fraction, 0.3);  // staging dominates the pipeline
}

TEST(ExclusiveModel, FasterMoversShrinkTheGap) {
  WorkflowSpec slow;
  slow.mover_bw = 5.0 * kGBps;
  WorkflowSpec fast;
  fast.mover_bw = 100.0 * kGBps;
  EXPECT_GT(compare_workflow(slow).speedup, compare_workflow(fast).speedup);
}

TEST(ExclusiveModel, AvailabilityFavorsDataCentric) {
  const auto a = compare_availability(AvailabilitySpec{});
  EXPECT_GT(a.datacentric, a.exclusive);
  EXPECT_NEAR(a.exclusive, 0.95 * 0.99, 1e-9);
}

}  // namespace
}  // namespace spider::core
