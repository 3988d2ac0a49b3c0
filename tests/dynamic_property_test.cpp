// Property sweeps on the dynamic flow network: random scenarios with
// arrivals, cancellations, and capacity changes must conserve bytes,
// terminate, and never produce invalid rates.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fs/purge.hpp"
#include "sim/flow_network.hpp"
#include "sim/simulator.hpp"

namespace spider {
namespace {

class DynamicNetworkP : public ::testing::TestWithParam<int> {};

TEST_P(DynamicNetworkP, RandomScenarioConservesAndTerminates) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  sim::Simulator sim;
  sim::FlowNetwork net(sim);

  const std::size_t nr = 3 + rng.uniform_index(8);
  std::vector<sim::ResourceId> resources;
  for (std::size_t r = 0; r < nr; ++r) {
    std::string name = "r";
    name += std::to_string(r);
    resources.push_back(net.add_resource(name, rng.uniform(50.0, 500.0)));
  }

  double expected_bytes = 0.0;
  std::size_t completions = 0;
  std::vector<sim::FlowId> cancellable;

  const std::size_t flows = 20 + rng.uniform_index(40);
  for (std::size_t f = 0; f < flows; ++f) {
    sim::FlowDesc desc;
    const std::size_t hops = 1 + rng.uniform_index(3);
    for (std::size_t h = 0; h < hops; ++h) {
      desc.path.push_back(
          {resources[rng.uniform_index(nr)], rng.uniform(0.5, 2.0)});
    }
    desc.size = rng.uniform(10.0, 2000.0);
    if (rng.chance(0.3)) desc.rate_cap = rng.uniform(1.0, 100.0);
    desc.latency = static_cast<sim::SimTime>(rng.uniform_index(
        static_cast<std::uint64_t>(2 * sim::kSecond)));
    desc.on_complete = [&completions](sim::FlowId, sim::SimTime) {
      ++completions;
    };
    const double size = desc.size;
    // Stagger arrivals over the first 10 seconds.
    const auto start = static_cast<sim::SimTime>(
        rng.uniform_index(static_cast<std::uint64_t>(10 * sim::kSecond)));
    sim.schedule_at(start, [&net, desc = std::move(desc), &cancellable,
                            &expected_bytes, size]() mutable {
      const auto id = net.start_flow(std::move(desc));
      cancellable.push_back(id);
      expected_bytes += size;
    });
  }

  // Random capacity wobble and one cancellation mid-run.
  for (int k = 0; k < 5; ++k) {
    const auto when = static_cast<sim::SimTime>(
        rng.uniform_index(static_cast<std::uint64_t>(20 * sim::kSecond)));
    const auto res = resources[rng.uniform_index(nr)];
    const double cap = rng.uniform(20.0, 600.0);
    sim.schedule_at(when, [&net, res, cap] { net.set_capacity(res, cap); });
  }
  double cancelled_bytes = 0.0;
  sim.schedule_at(12 * sim::kSecond, [&] {
    if (!cancellable.empty() && net.active_flows() > 0) {
      // Cancel a random still-listed flow (no-op if already done).
      const auto id = cancellable[rng.uniform_index(cancellable.size())];
      (void)cancelled_bytes;
      net.cancel_flow(id);
    }
  });

  // Worst case drain: ~40k units across a 20 u/s resource at cost 2
  // ≈ 67 minutes; 3 hours is a safe horizon.
  const auto executed = sim.run(3 * sim::kHour);
  // Terminates well before the horizon with all work drained.
  EXPECT_TRUE(sim.idle()) << "scenario did not drain";
  EXPECT_GT(executed, flows);
  EXPECT_EQ(net.active_flows(), 0u);
  // At most one flow was cancelled; everything else completed and is
  // accounted in total_delivered.
  EXPECT_GE(completions + 1, flows);
  EXPECT_LE(net.total_delivered(), expected_bytes * (1.0 + 1e-6));
  EXPECT_GE(net.total_delivered(), expected_bytes * 0.5);
  // Telemetry sanity: served units non-negative, utilization gauges valid.
  for (auto r : resources) {
    EXPECT_GE(net.stats(r).served, 0.0);
    EXPECT_GE(net.stats(r).current_load, 0.0);
    EXPECT_LE(net.stats(r).current_load, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicNetworkP, ::testing::Range(0, 12));

// --- daily purge scheduling --------------------------------------------------------

TEST(PurgeScheduling, DailySweepsFireAtConfiguredHour) {
  sim::Simulator sim;
  std::vector<std::unique_ptr<block::Raid6Group>> groups;
  std::vector<std::unique_ptr<fs::Ost>> osts;
  std::vector<fs::Ost*> ptrs;
  for (int i = 0; i < 2; ++i) {
    std::vector<block::Disk> members;
    for (int m = 0; m < 10; ++m) {
      members.emplace_back(block::DiskParams{}, m, 1.0, 1e-4);
    }
    groups.push_back(std::make_unique<block::Raid6Group>(block::RaidParams{},
                                                         std::move(members)));
    osts.push_back(std::make_unique<fs::Ost>(i, groups.back().get()));
    ptrs.push_back(osts.back().get());
  }
  fs::FsNamespace ns("scratch", ptrs);
  Rng rng(1);
  // 30 old files, created "before" the simulation started.
  for (int f = 0; f < 30; ++f) ns.create_file(1, 1_GiB, -20 * sim::kDay, rng);

  std::vector<fs::PurgeReport> reports;
  fs::schedule_daily_purge(sim, ns, fs::PurgePolicy{14.0}, 5, 2.0, &reports);
  sim.run();
  ASSERT_EQ(reports.size(), 5u);
  // First sweep (day 1, 02:00) purges everything older than 14 days.
  EXPECT_EQ(reports[0].purged, 30u);
  EXPECT_EQ(reports[1].purged, 0u);
  EXPECT_EQ(sim.now(), 5 * sim::kDay + 2 * sim::kHour);
}

}  // namespace
}  // namespace spider
