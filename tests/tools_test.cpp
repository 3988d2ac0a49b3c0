#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "block/raid.hpp"
#include "block/ssu.hpp"
#include "common/rng.hpp"
#include "fs/fs_namespace.hpp"
#include "tools/capacity_planner.hpp"
#include "tools/health.hpp"
#include "tools/iosi.hpp"
#include "tools/libpio.hpp"
#include "tools/lustredu.hpp"
#include "tools/ptools.hpp"
#include "tools/slowdisk.hpp"

namespace spider::tools {
namespace {

// --- libPIO ---------------------------------------------------------------------

StorageTopology toy_topology() {
  StorageTopology topo;
  // 8 OSTs on 4 OSS (2 each); OSS i on leaf i % 2; 4 routers, 2 per leaf.
  topo.ost_to_oss = {0, 0, 1, 1, 2, 2, 3, 3};
  topo.oss_to_leaf = {0, 1, 0, 1};
  topo.router_to_leaf = {0, 1, 0, 1};
  return topo;
}

TEST(LibPio, PrefersLeastLoadedOstAndOss) {
  LibPio pio(toy_topology());
  LoadSnapshot loads;
  loads.ost_load = {0.9, 0.9, 0.1, 0.9, 0.9, 0.9, 0.9, 0.9};
  loads.oss_load = {0.5, 0.1, 0.5, 0.5};
  loads.router_load = {0.0, 0.0, 0.0, 0.0};
  const auto sug = pio.place_job(1, loads);
  ASSERT_EQ(sug.size(), 1u);
  EXPECT_EQ(sug[0].ost, 2u);  // least loaded OST on least loaded OSS
}

TEST(LibPio, RouterMatchesDestinationLeaf) {
  LibPio pio(toy_topology());
  LoadSnapshot loads;
  loads.ost_load.assign(8, 0.0);
  loads.oss_load.assign(4, 0.0);
  loads.router_load = {0.0, 0.0, 0.9, 0.9};
  const auto sug = pio.place_job(4, loads);
  for (const auto& s : sug) {
    const auto leaf = toy_topology().oss_to_leaf[toy_topology().ost_to_oss[s.ost]];
    EXPECT_EQ(toy_topology().router_to_leaf[s.router], leaf);
  }
}

TEST(LibPio, SpreadsJobAcrossComponents) {
  LibPio pio(toy_topology());
  LoadSnapshot loads;
  loads.ost_load.assign(8, 0.0);
  loads.oss_load.assign(4, 0.0);
  loads.router_load.assign(4, 0.0);
  const auto sug = pio.place_job(8, loads);
  std::set<std::uint32_t> osts;
  for (const auto& s : sug) osts.insert(s.ost);
  EXPECT_EQ(osts.size(), 8u);  // all distinct under zero load
}

TEST(LibPio, DefaultPlacementIgnoresLoad) {
  LibPio pio(toy_topology());
  Rng rng(1);
  const auto sug = pio.place_default(4, rng);
  ASSERT_EQ(sug.size(), 4u);
  // Round-robin: consecutive OSTs regardless of load.
  for (std::size_t i = 1; i < sug.size(); ++i) {
    EXPECT_EQ(sug[i].ost, (sug[i - 1].ost + 1) % 8);
  }
}

TEST(LibPio, RejectsIncompleteTopology) {
  StorageTopology bad;
  EXPECT_THROW(LibPio{bad}, std::invalid_argument);
}

// --- IOSI -----------------------------------------------------------------------

std::vector<double> synthetic_log(double period_s, double burst_s,
                                  double burst_bw, double noise_bw,
                                  double duration_s, double bin_s,
                                  Rng& rng) {
  const auto bins = static_cast<std::size_t>(duration_s / bin_s);
  std::vector<double> log(bins, 0.0);
  for (std::size_t b = 0; b < bins; ++b) {
    log[b] = noise_bw * (0.5 + rng.uniform());
    const double t = static_cast<double>(b) * bin_s;
    const double phase = std::fmod(t, period_s);
    if (phase < burst_s) log[b] += burst_bw;
  }
  return log;
}

TEST(Iosi, DetectsBurstsInSingleLog) {
  Rng rng(2);
  const auto log = synthetic_log(600.0, 60.0, 50e9, 2e9, 3600.0, 10.0, rng);
  const auto bursts = detect_bursts(log, 10.0);
  EXPECT_EQ(bursts.size(), 6u);
  for (const auto& b : bursts) EXPECT_NEAR(b.duration_s, 60.0, 20.0);
}

TEST(Iosi, ExtractsConsensusSignatureAcrossRuns) {
  Rng rng(3);
  std::vector<std::vector<double>> runs;
  for (int r = 0; r < 5; ++r) {
    runs.push_back(synthetic_log(600.0, 60.0, 50e9, 3e9, 7200.0, 10.0, rng));
  }
  const auto sig = extract_signature(runs, 10.0);
  ASSERT_TRUE(sig.found);
  EXPECT_NEAR(sig.period_s, 600.0, 30.0);
  EXPECT_NEAR(sig.burst_duration_s, 60.0, 20.0);
  EXPECT_GE(sig.confidence, 0.8);
  // Burst volume ~ 50 GB/s x 60 s.
  EXPECT_NEAR(sig.burst_bytes, 50e9 * 60.0, 0.2 * 50e9 * 60.0);
}

TEST(Iosi, NoSignatureInPureNoise) {
  Rng rng(4);
  std::vector<std::vector<double>> runs;
  for (int r = 0; r < 3; ++r) {
    std::vector<double> log;
    for (int i = 0; i < 360; ++i) log.push_back(2e9 * (0.5 + rng.uniform()));
    runs.push_back(std::move(log));
  }
  const auto sig = extract_signature(runs, 10.0);
  // Random noise may produce isolated spikes but no consistent period; at
  // minimum it must not report high confidence.
  if (sig.found) {
    EXPECT_LT(sig.confidence, 0.8);
  }
}

TEST(Iosi, EmptyInputSafe) {
  EXPECT_TRUE(detect_bursts({}, 10.0).empty());
  EXPECT_FALSE(extract_signature({}, 10.0).found);
}

// --- LustreDU -------------------------------------------------------------------

struct DuFixture : ::testing::Test {
  std::vector<std::unique_ptr<block::Raid6Group>> groups;
  std::vector<std::unique_ptr<fs::Ost>> osts;
  std::vector<fs::Ost*> ptrs;
  std::unique_ptr<fs::FsNamespace> ns;
  Rng rng{5};

  void SetUp() override {
    for (int i = 0; i < 4; ++i) {
      std::vector<block::Disk> members;
      for (int m = 0; m < 10; ++m) {
        members.emplace_back(block::DiskParams{}, m, 1.0, 1e-4);
      }
      groups.push_back(std::make_unique<block::Raid6Group>(
          block::RaidParams{}, std::move(members)));
      osts.push_back(std::make_unique<fs::Ost>(i, groups.back().get()));
      ptrs.push_back(osts.back().get());
    }
    ns = std::make_unique<fs::FsNamespace>("ns", ptrs);
    for (int f = 0; f < 500; ++f) {
      ns->create_file(f % 3, 1_GiB, 0, rng);
    }
  }
};

TEST_F(DuFixture, ClientDuCostScalesWithFiles) {
  const auto cost = client_du(*ns, 0);
  EXPECT_GT(cost.mds_ops, 500.0);  // lookup per entry + stat per match
  EXPECT_GT(cost.wall_s, 0.0);
  EXPECT_GT(cost.bytes_reported, 100_GiB);
}

TEST_F(DuFixture, BackgroundLoadStretchesClientDu) {
  const auto idle = client_du(*ns, 0, 0.0);
  const auto busy = client_du(*ns, 0, 0.9);
  EXPECT_GT(busy.wall_s, 5.0 * idle.wall_s);
}

TEST_F(DuFixture, LustreDuAnswersFromSnapshotAtZeroMdsCost) {
  LustreDu tool;
  tool.daily_scan(*ns);
  const double mds_before = ns->mds().accounted_load();
  const auto cost = tool.usage(0);
  EXPECT_DOUBLE_EQ(ns->mds().accounted_load(), mds_before);  // no MDS traffic
  EXPECT_DOUBLE_EQ(cost.mds_ops, 0.0);
  EXPECT_LT(cost.wall_s, 1e-3);
  // Snapshot agrees with the expensive client walk.
  const auto truth = client_du(*ns, 0);
  EXPECT_EQ(cost.bytes_reported, truth.bytes_reported);
}

TEST_F(DuFixture, UnknownProjectReportsZero) {
  LustreDu tool;
  tool.daily_scan(*ns);
  const auto cost = tool.usage(999);
  EXPECT_EQ(cost.bytes_reported, 0u);
  EXPECT_FALSE(cost.stale);  // a real answer: the project is empty
}

TEST_F(DuFixture, ColdQueryIsStaleNotZero) {
  // Regression: a never-scanned tool used to answer 0 bytes, which is
  // indistinguishable from a genuinely empty project. Cold means stale.
  LustreDu tool;
  const auto cold = tool.usage(0);
  EXPECT_TRUE(cold.stale);
  EXPECT_EQ(cold.bytes_reported, 0u);
  EXPECT_FALSE(tool.has_snapshot());

  tool.daily_scan(*ns);
  EXPECT_TRUE(tool.has_snapshot());
  const auto warm = tool.usage(0);
  EXPECT_FALSE(warm.stale);
  EXPECT_GT(warm.bytes_reported, 0u);
}

TEST_F(DuFixture, ChangelogModeIsStaleUntilFirstPoll) {
  fs::OpLog log;
  ns->attach_oplog(&log, fs::kLogDefault);
  ns->create_file(0, 1_GiB, 0, rng);
  log.commit(log.last_txid());

  LustreDu tool;
  tool.follow(log);
  EXPECT_TRUE(tool.following());
  EXPECT_TRUE(tool.usage(0).stale);  // followed but never polled

  tool.poll();
  const auto cost = tool.usage(0);
  EXPECT_FALSE(cost.stale);
  EXPECT_EQ(cost.bytes_reported, 1_GiB);  // only journaled history counts
}

TEST_F(DuFixture, ChangelogModeSumsFeedsAtZeroWalksAndZeroMdsCost) {
  // Two DNE namespaces, one tool following both changelogs.
  fs::OpLog log_a;
  ns->attach_oplog(&log_a, fs::kLogDefault);
  fs::FsNamespace other("ns2", ptrs);
  fs::OpLog log_b;
  other.attach_oplog(&log_b, fs::kLogDefault);

  ns->create_file(7, 2_GiB, 0, rng);
  other.create_file(7, 3_GiB, 0, rng);
  other.create_file(8, 1_GiB, 0, rng);
  log_a.commit(log_a.last_txid());
  log_b.commit(log_b.last_txid());

  LustreDu tool;
  tool.follow(log_a);
  tool.follow(log_b);
  ASSERT_EQ(tool.feed_count(), 2u);
  tool.poll();

  const std::uint64_t walks =
      ns->full_walks() + other.full_walks();
  const double mds_before = ns->mds().accounted_load();
  const auto cost = tool.usage(7);
  EXPECT_EQ(cost.bytes_reported, 5_GiB);
  EXPECT_EQ(tool.usage(8).bytes_reported, 1_GiB);
  EXPECT_DOUBLE_EQ(ns->mds().accounted_load(), mds_before);
  EXPECT_EQ(ns->full_walks() + other.full_walks(), walks);  // zero walks
}

TEST_F(DuFixture, ResyncFeedRecoversACrashRewoundLog) {
  fs::OpLog log;
  ns->attach_oplog(&log, fs::kLogDefault);
  for (int f = 0; f < 8; ++f) ns->create_file(1, 1_GiB, 0, rng);
  log.commit(log.last_txid());

  LustreDu tool;
  tool.follow(log);
  tool.poll();

  // MDS crash rewinds the log under live namespace state: the feed's
  // cursor is now ahead and a prefix replay cannot reconcile, so the tool
  // falls back to the daily-scan escape hatch for that feed.
  log.truncate_to(log.committed() / 2);
  EXPECT_TRUE(tool.poll().cursor_ahead);
  tool.resync_feed(0, *ns);
  EXPECT_EQ(tool.usage(1).bytes_reported,
            ns->usage_by_project().at(1));

  // And the feed is incremental again afterwards.
  ns->create_file(1, 1_GiB, 0, rng);
  log.commit(log.last_txid());
  const auto res = tool.poll();
  EXPECT_FALSE(res.cursor_ahead);
  EXPECT_EQ(res.applied, 1u);
  EXPECT_EQ(tool.usage(1).bytes_reported, ns->usage_by_project().at(1));
}

// --- scalable tools ---------------------------------------------------------------

TEST(PTools, ParallelFindBeatsSerialUntilMdsSaturates) {
  TreeSpec tree;
  ToolEnvironment env;
  const auto serial = run_serial_find(tree, env);
  const auto par4 = run_dfind(tree, env, 4);
  const auto par64 = run_dfind(tree, env, 64);
  // 4 ranks stay under the MDS ceiling: near-linear speedup.
  EXPECT_NEAR(serial.wall_s / par4.wall_s, 4.0, 0.3);
  // 64 ranks exceed the MDS ceiling: speedup caps at mds_rate x rtt.
  const double mds_cap_speedup = env.mds_ops_per_sec * env.metadata_rtt_s;
  EXPECT_NEAR(serial.wall_s / par64.wall_s, mds_cap_speedup, 0.5);
  EXPECT_NEAR(par64.mds_utilization, 1.0, 0.05);
}

TEST(PTools, DcpScalesWithRanksThenFsBandwidth) {
  TreeSpec tree;
  ToolEnvironment env;
  const auto serial = run_serial_cp(tree, env);
  const auto dcp16 = run_dcp(tree, env, 16);
  EXPECT_GT(serial.wall_s / dcp16.wall_s, 8.0);
  // Huge rank counts cap at half the file system bandwidth (read+write).
  const auto dcp_many = run_dcp(tree, env, 4096);
  const double floor_s =
      static_cast<double>(tree.total_bytes()) / (env.fs_bw / 2.0);
  EXPECT_GE(dcp_many.wall_s, 0.9 * floor_s);
}

TEST(PTools, DtarBeatsSerialTar) {
  TreeSpec tree;
  ToolEnvironment env;
  EXPECT_GT(run_serial_tar(tree, env).wall_s,
            4.0 * run_dtar(tree, env, 16).wall_s);
}

TEST(PTools, ResultsAccountAllItemsAndBytes) {
  TreeSpec tree;
  tree.files = 1000;
  tree.directories = 100;
  ToolEnvironment env;
  const auto r = run_dcp(tree, env, 4);
  EXPECT_EQ(r.items, 1100u);
  EXPECT_EQ(r.bytes_moved, tree.total_bytes());
}

// --- health monitoring --------------------------------------------------------------

TEST(Health, CoalescesEventsIntoIncidents) {
  HealthMonitor mon;
  // Two bursts on oss01 separated by > window, one event on ib-leaf-3.
  mon.ingest({10 * sim::kSecond, EventSource::kLustre, Severity::kWarning,
              "oss01", "slow reply"});
  mon.ingest({12 * sim::kSecond, EventSource::kHardware, Severity::kCritical,
              "oss01", "SCSI sense error"});
  mon.ingest({500 * sim::kSecond, EventSource::kLustre, Severity::kWarning,
              "oss01", "reconnect"});
  mon.ingest({15 * sim::kSecond, EventSource::kNetwork, Severity::kWarning,
              "ib-leaf-3", "symbol errors"});
  const auto incidents = mon.coalesce(60 * sim::kSecond);
  ASSERT_EQ(incidents.size(), 3u);
  // First oss01 incident contains both events and is hardware-related.
  const auto& first = incidents[0];
  EXPECT_EQ(first.component, "oss01");
  EXPECT_EQ(first.events.size(), 2u);
  EXPECT_TRUE(first.hardware_related);
  EXPECT_EQ(first.worst, Severity::kCritical);
  // The later oss01 burst is a separate, software-only incident.
  EXPECT_FALSE(incidents[2].hardware_related);
}

TEST(Health, ChecksReportFailures) {
  CheckScheduler sched;
  sched.add_check({"ok-check", [] { return CheckResult{CheckStatus::kOk, ""}; }});
  sched.add_check({"warn-check", [] {
                     return CheckResult{CheckStatus::kWarning, "degraded"};
                   }});
  sched.add_check({"crit-check", [] {
                     return CheckResult{CheckStatus::kCritical, "down"};
                   }});
  const auto report = sched.run_all();
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(report.warning, 1u);
  EXPECT_EQ(report.critical, 1u);
  ASSERT_EQ(report.failing.size(), 2u);
  EXPECT_EQ(report.failing[0].first, "warn-check");
}

TEST(Health, DdnPollerQueries) {
  DdnPoller poller;
  for (int t = 0; t < 10; ++t) {
    poller.record({t * sim::kMinute, 0, 2e9, 4e9, 1_MiB});
    poller.record({t * sim::kMinute, 1, 1e9, 1e9, 128_KiB});
  }
  EXPECT_NEAR(poller.mean_write_bw(0, 0), 4e9, 1e6);
  EXPECT_NEAR(poller.mean_read_bw(1, 0), 1e9, 1e6);
  EXPECT_NEAR(poller.peak_total_bw(0), 8e9, 1e6);
  // `since` filters old samples.
  EXPECT_DOUBLE_EQ(poller.mean_write_bw(0, 100 * sim::kMinute), 0.0);
}

TEST(Health, DdnPollerRetentionBounded) {
  DdnPoller poller(100);
  for (int i = 0; i < 1000; ++i) poller.record({i, 0, 1.0, 1.0, 1});
  EXPECT_EQ(poller.samples(), 100u);
}

// --- slow-disk culling ----------------------------------------------------------------

TEST(SlowDisk, CullingConvergesAndTightensVariance) {
  Rng rng(6);
  std::vector<block::Ssu> ssus;
  block::SsuParams params;
  params.raid_groups = 14;  // keep the fleet small for test speed
  for (int s = 0; s < 4; ++s) ssus.emplace_back(params, s, rng);

  CullingConfig cfg;
  cfg.intra_ssu_threshold = 0.075;  // the production envelope
  cfg.fleet_threshold = 0.075;
  const auto before = measure_fleet(ssus, cfg);
  const auto report = run_culling(ssus, cfg, rng);
  const auto after = measure_fleet(ssus, cfg);

  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.total_disks_replaced, 0u);
  EXPECT_LE(after.worst_intra_ssu_spread, cfg.intra_ssu_threshold + 1e-9);
  EXPECT_LE(after.fleet_spread, cfg.fleet_threshold + 1e-9);
  EXPECT_GT(after.fleet_mean_bw, before.fleet_mean_bw);
}

TEST(SlowDisk, ReplacedFractionMatchesSlowTail) {
  Rng rng(7);
  std::vector<block::Ssu> ssus;
  block::SsuParams params;
  params.raid_groups = 14;
  params.population.slow_fraction = 0.10;
  for (int s = 0; s < 4; ++s) ssus.emplace_back(params, s, rng);
  CullingConfig cfg;
  cfg.intra_ssu_threshold = 0.075;
  cfg.fleet_threshold = 0.075;
  const auto report = run_culling(ssus, cfg, rng);
  const double total_disks = 4.0 * 14.0 * 10.0;
  const double replaced_fraction =
      static_cast<double>(report.total_disks_replaced) / total_disks;
  // The paper replaced ~10% of the fleet across both rounds.
  EXPECT_GT(replaced_fraction, 0.05);
  EXPECT_LT(replaced_fraction, 0.25);
}

TEST(SlowDisk, HealthyFleetNeedsNoReplacement) {
  Rng rng(8);
  std::vector<block::Ssu> ssus;
  block::SsuParams params;
  params.raid_groups = 8;
  params.population.slow_fraction = 0.0;
  params.population.healthy_sigma = 0.005;
  ssus.emplace_back(params, 0, rng);
  CullingConfig cfg;
  cfg.intra_ssu_threshold = 0.075;
  cfg.fleet_threshold = 0.075;
  const auto report = run_culling(ssus, cfg, rng);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.total_disks_replaced, 0u);
}

// --- capacity planner --------------------------------------------------------------------

TEST(CapacityPlanner, BalancesBothDimensions) {
  Rng rng(9);
  std::vector<ProjectRequirement> projects;
  for (std::uint32_t i = 0; i < 40; ++i) {
    ProjectRequirement p;
    p.id = i;
    p.capacity = static_cast<Bytes>(rng.uniform(10.0, 500.0)) * 1_TB;
    p.bandwidth = rng.uniform(1.0, 50.0) * kGBps;
    projects.push_back(p);
  }
  const auto plan = plan_namespaces(projects, 2);
  EXPECT_EQ(plan.assignment.size(), 40u);
  EXPECT_LT(plan.capacity_imbalance, 0.10);
  EXPECT_LT(plan.bandwidth_imbalance, 0.10);
}

TEST(CapacityPlanner, SingleNamespaceDegenerate) {
  std::vector<ProjectRequirement> projects{{1, 1_TB, 1.0 * kGBps}};
  const auto plan = plan_namespaces(projects, 1);
  EXPECT_EQ(plan.assignment[0], 0u);
  EXPECT_DOUBLE_EQ(plan.capacity_imbalance, 0.0);
}

TEST(CapacityPlanner, SizingRules) {
  // 770 TB of attached memory x 30 -> ~23 PB; Spider II's 32 PB exceeds it.
  const Bytes target = capacity_target_from_memory(770_TB);
  EXPECT_NEAR(to_pb(target), 23.1, 0.1);
  EXPECT_GT(32_PB, target);
  EXPECT_EQ(capacity_target_from_usage(10_PB, 0.30), 13_PB);
}

TEST(CapacityPlanner, DataCentricCheaperForMultiPlatformCenter) {
  // Flagship + two analysis clusters + viz cluster.
  const std::vector<double> platforms{1.0, 0.15, 0.1, 0.05};
  const auto cmp = compare_acquisition_cost(platforms);
  EXPECT_GT(cmp.exclusive_total, cmp.datacentric_total);
  EXPECT_GT(cmp.savings_fraction, 0.0);
}

TEST(CapacityPlanner, SinglePlatformFavorsExclusive) {
  const std::vector<double> platforms{1.0};
  const auto cmp = compare_acquisition_cost(platforms);
  EXPECT_LT(cmp.exclusive_total, cmp.datacentric_total);
}

}  // namespace
}  // namespace spider::tools
