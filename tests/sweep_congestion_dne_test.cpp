#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "block/sweep.hpp"
#include "common/rng.hpp"
#include "fs/dne.hpp"
#include "net/congestion.hpp"
#include "net/placement.hpp"

namespace spider {
namespace {

// --- fair-lio sweep orchestrator -------------------------------------------------

block::Disk nominal_disk() { return block::Disk(block::DiskParams{}, 0, 1.0, 1e-4); }

TEST(Sweep, CoversTheCrossProduct) {
  block::SweepConfig cfg;
  cfg.duration_s = 0.5;
  const auto points = block::run_sweep(nominal_disk(), cfg);
  EXPECT_EQ(points.size(), cfg.request_sizes.size() * cfg.queue_depths.size() *
                               cfg.write_fractions.size() * cfg.modes.size());
  for (const auto& p : points) EXPECT_GT(p.result.bandwidth, 0.0);
}

TEST(Sweep, SummaryRecoversCalibration) {
  block::SweepConfig cfg;
  cfg.duration_s = 2.0;
  const auto points = block::run_sweep(nominal_disk(), cfg);
  const auto summary = block::summarize_sweep(points);
  EXPECT_GT(summary.best_sequential, summary.best_random);
  EXPECT_NEAR(summary.random_fraction_1mb, 0.22, 0.04);
  EXPECT_GT(summary.worst_p99_s, 0.0);
}

TEST(Sweep, TableHasOneRowPerPoint) {
  block::SweepConfig cfg;
  cfg.request_sizes = {1_MiB};
  cfg.queue_depths = {1};
  cfg.write_fractions = {0.0, 1.0};
  cfg.duration_s = 0.3;
  const auto points = block::run_sweep(nominal_disk(), cfg);
  const auto table = block::sweep_table(points, "test");
  EXPECT_EQ(table.rows(), points.size());
}

TEST(Sweep, GroupSweepRunsToo) {
  Rng rng(1);
  // Healthy population: slow-tail members dominate short group runs with
  // latency outliers (the effect the culling tools key on), which is not
  // what this plumbing test measures.
  block::PopulationModel healthy;
  healthy.slow_fraction = 0.0;
  const auto members =
      block::make_population(10, block::DiskParams{}, healthy, rng);
  block::Raid6Group group(block::RaidParams{}, members);
  block::SweepConfig cfg;
  cfg.request_sizes = {1_MiB, 8_MiB};
  cfg.queue_depths = {4};
  cfg.write_fractions = {1.0};
  cfg.duration_s = 2.0;
  const auto points = block::run_sweep(group, cfg);
  EXPECT_EQ(points.size(), 4u);
  EXPECT_GT(points.front().result.bandwidth, 300.0 * kMBps);
}

// --- congestion analyzer -----------------------------------------------------------

struct CongestionFixture : ::testing::Test {
  net::Torus3D torus{{25, 16, 24}};
  net::PlacementConfig cfg = [] {
    net::PlacementConfig c;
    c.modules = 110;
    c.routers_per_module = 4;
    c.num_groups = 36;
    c.leaf_switches = 36;
    return c;
  }();
  std::vector<net::PlacedRouter> routers =
      net::place_routers(torus, cfg, net::PlacementStrategy::kFgrZoned);
  net::FgrPolicy policy{torus, routers, 36};

  std::vector<int> random_clients(std::size_t n, Rng& rng) const {
    std::vector<int> nodes(n);
    for (auto& node : nodes) {
      node = static_cast<int>(rng.uniform_index(
          static_cast<std::uint64_t>(torus.num_nodes())));
    }
    return nodes;
  }
  std::vector<std::size_t> random_leaves(std::size_t n, Rng& rng) const {
    std::vector<std::size_t> leaves(n);
    for (auto& l : leaves) l = rng.uniform_index(36);
    return leaves;
  }
};

TEST_F(CongestionFixture, DemandConservedAcrossLinks) {
  Rng rng(2);
  const auto nodes = random_clients(500, rng);
  const auto leaves = random_leaves(500, rng);
  const double bw = 50e6;
  const auto report = net::analyze_congestion(torus, policy, nodes, leaves, bw,
                                              net::RoutingChoice::kFgr);
  EXPECT_EQ(report.clients, 500u);
  EXPECT_NEAR(report.total_demand, 500.0 * bw, 1.0);
  // Sum over links == demand x mean hops by construction.
  const auto loads = net::link_loads(torus, policy, nodes, leaves, bw,
                                     net::RoutingChoice::kFgr);
  double sum = 0.0;
  for (double l : loads) sum += l;
  EXPECT_NEAR(sum, report.total_demand * report.mean_hops,
              1e-6 * std::max(1.0, sum));
}

TEST_F(CongestionFixture, FgrShorterThanRoundRobin) {
  Rng rng(3);
  const auto nodes = random_clients(800, rng);
  const auto leaves = random_leaves(800, rng);
  const auto fgr = net::analyze_congestion(torus, policy, nodes, leaves, 50e6,
                                           net::RoutingChoice::kFgr);
  const auto rr = net::analyze_congestion(torus, policy, nodes, leaves, 50e6,
                                          net::RoutingChoice::kRoundRobin);
  EXPECT_LT(fgr.mean_hops, rr.mean_hops);
}

TEST_F(CongestionFixture, NearestIsShortestOfAll) {
  Rng rng(4);
  const auto nodes = random_clients(400, rng);
  const auto leaves = random_leaves(400, rng);
  const auto nearest = net::analyze_congestion(
      torus, policy, nodes, leaves, 50e6, net::RoutingChoice::kNearest);
  const auto fgr = net::analyze_congestion(torus, policy, nodes, leaves, 50e6,
                                           net::RoutingChoice::kFgr);
  EXPECT_LE(nearest.mean_hops, fgr.mean_hops + 1e-9);
}

TEST_F(CongestionFixture, HotspotStructureReported) {
  Rng rng(5);
  // All clients in one corner targeting one leaf: a manufactured hotspot.
  std::vector<int> nodes(200, torus.node_id({0, 0, 0}));
  std::vector<std::size_t> leaves(200, 7);
  const auto report = net::analyze_congestion(torus, policy, nodes, leaves,
                                              50e6, net::RoutingChoice::kFgr);
  EXPECT_GT(report.concentration, 0.99);
  EXPECT_GE(report.max_link_load, report.mean_link_load);
  EXPECT_LT(report.hottest_link,
            static_cast<net::LinkId>(torus.num_links()));
}

TEST_F(CongestionFixture, MismatchedSpansRejected) {
  const std::vector<int> nodes{1, 2};
  const std::vector<std::size_t> leaves{0};
  EXPECT_THROW(net::link_loads(torus, policy, nodes, leaves, 1.0,
                               net::RoutingChoice::kFgr),
               std::invalid_argument);
}

// --- DNE -----------------------------------------------------------------------------

TEST(Dne, DirectoriesSpreadAcrossMdts) {
  fs::DneNamespace dne;
  std::vector<std::size_t> hits(dne.mdts(), 0);
  for (std::uint64_t d = 0; d < 4000; ++d) ++hits[dne.mdt_of_dir(d)];
  for (std::size_t h : hits) {
    EXPECT_GT(h, 800u);
    EXPECT_LT(h, 1200u);
  }
}

TEST(Dne, PlacementIsStable) {
  fs::DneNamespace dne;
  for (std::uint64_t d = 0; d < 100; ++d) {
    EXPECT_EQ(dne.mdt_of_dir(d), dne.mdt_of_dir(d));
  }
}

TEST(Dne, CrossMdtOpsPayDistributedTransaction) {
  fs::DneNamespace dne;
  // Find two directories on different MDTs.
  std::uint64_t a = 0, b = 1;
  while (dne.mdt_of_dir(a) == dne.mdt_of_dir(b)) ++b;
  const auto local = dne.account(a, fs::MetaOp::kCreate);
  dne.reset();
  const auto cross = dne.account(a, fs::MetaOp::kCreate, b);
  EXPECT_TRUE(cross.cross_mdt);
  EXPECT_GT(cross.cost, 1.5 * local.cost);
}

TEST(Dne, ManyDirectoriesScaleNearLinearly) {
  fs::DneNamespace dne;
  // 1,000 directories each offering 80 weighted ops/s: 80 kops total over
  // 4 MDTs of 20 kops — hashes spread it, so nearly all of it goes through.
  const std::vector<double> offered(1000, 80.0);
  const double throughput = dne.max_throughput(offered);
  EXPECT_GT(throughput, 0.9 * 80e3);
}

TEST(Dne, HotDirectoryDefeatsDneAlone) {
  // The paper's reason to recommend namespaces *and* DNE: one hot
  // directory lands on a single MDT regardless of shard count.
  fs::DneNamespace dne;
  std::vector<double> offered(1000, 0.0);
  offered[0] = 80e3;  // one job hammering one directory
  const double throughput = dne.max_throughput(offered);
  EXPECT_NEAR(throughput, 20e3, 1.0);  // one MDT's worth, not four
}

TEST(Dne, LoadAccountingAndImbalance) {
  fs::DneNamespace dne;
  Rng rng(6);
  for (int i = 0; i < 20000; ++i) {
    dne.account(rng.uniform_index(5000), fs::MetaOp::kStat);
  }
  EXPECT_LT(dne.imbalance(), 0.1);
  dne.reset();
  EXPECT_DOUBLE_EQ(dne.imbalance(), 0.0);
}

class DneShardSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DneShardSweep, CapacityScalesWithShards) {
  fs::DneParams params;
  params.mdts = GetParam();
  fs::DneNamespace dne(params);
  EXPECT_DOUBLE_EQ(dne.capacity_ops(),
                   params.mdt_ops_per_sec * static_cast<double>(GetParam()));
  // Uniform load across many dirs achieves most of it.
  const std::vector<double> offered(
      2000, dne.capacity_ops() / 2000.0 * 0.8);
  EXPECT_GT(dne.max_throughput(offered), 0.6 * dne.capacity_ops() * 0.8);
}

INSTANTIATE_TEST_SUITE_P(Shards, DneShardSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace spider
