// Deterministic-replay harness tests.
//
// The acceptance property: two runs of the same seeded FlowNetwork scenario
// must produce bit-identical event streams AND bit-identical per-resource
// telemetry. When they don't, the recorder must localize the fork to the
// first mismatching event.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "sim/flow_network.hpp"
#include "sim/replay.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace spider::sim {
namespace {

// A cancel-heavy, completion-chained scenario exercising every scheduling
// path: arrivals, latency activation, completion rescheduling, mid-run
// capacity changes, and flow cancellation.
ReplayRecorder run_scenario(std::uint64_t seed, SolveCounters* out = nullptr) {
  Simulator sim;
  FlowNetwork net(sim);
  ReplayRecorder rec;
  rec.attach(sim);

  Rng rng(seed);
  std::vector<ResourceId> disks;
  for (int d = 0; d < 6; ++d) {
    disks.push_back(net.add_resource("disk" + std::to_string(d),
                                     rng.uniform(50.0, 200.0)));
  }
  const ResourceId controller = net.add_resource("ctl", 400.0);

  std::vector<FlowId> started;
  // Completion callbacks chain follow-up flows, so the event stream depends
  // on the full history of the run — any nondeterminism cascades.
  std::function<void(FlowId, SimTime)> chain = [&](FlowId, SimTime) {
    if (net.active_flows() > 24) return;
    FlowDesc d;
    d.path = {{disks[rng.uniform_index(disks.size())], rng.uniform(1.0, 4.0)},
              {controller, 1.0}};
    d.size = rng.uniform(1.0, 50.0);
    if (rng.chance(0.3)) d.latency = from_seconds(rng.uniform(0.0, 0.01));
    if (rng.chance(0.5)) d.on_complete = chain;
    started.push_back(net.start_flow(std::move(d)));
  };

  for (int i = 0; i < 40; ++i) {
    const SimTime at = from_seconds(rng.uniform(0.0, 2.0));
    sim.schedule_at(at, [&, i] {
      FlowDesc d;
      d.path = {{disks[rng.uniform_index(disks.size())], rng.uniform(1.0, 3.0)},
                {controller, 1.0}};
      d.size = rng.uniform(5.0, 80.0);
      d.rate_cap = rng.chance(0.25) ? rng.uniform(5.0, 40.0) : kUnbounded;
      d.on_complete = chain;
      started.push_back(net.start_flow(std::move(d)));
      // Cancel-heavy pressure: sometimes abort an earlier flow, sometimes
      // degrade a disk mid-run (both trigger reschedules).
      if (i % 7 == 3 && !started.empty()) {
        net.cancel_flow(started[rng.uniform_index(started.size())]);
      }
      if (i % 11 == 5) {
        net.set_capacity(disks[rng.uniform_index(disks.size())],
                         rng.uniform(40.0, 220.0));
      }
    });
  }

  sim.run(from_seconds(30.0));
  rec.record_resource_stats(net);
  if (out) *out = net.counters();
  return rec;
}

TEST(Replay, SameSeedRunsAreBitIdentical) {
  const ReplayRecorder a = run_scenario(42);
  const ReplayRecorder b = run_scenario(42);
  EXPECT_GT(a.events_recorded(), 100u) << "scenario too trivial to prove much";
  EXPECT_EQ(ReplayRecorder::first_divergence(a, b), ReplayRecorder::npos)
      << ReplayRecorder::divergence_report(a, b);
  EXPECT_EQ(a.event_hash(), b.event_hash());
  EXPECT_EQ(a.stats_hash(), b.stats_hash()) << "ResourceStats diverged";
  EXPECT_EQ(a.combined_hash(), b.combined_hash());
  // Machine-readable line for scripts/check.sh, which diffs this value
  // across two fresh processes to catch cross-process nondeterminism (ASLR-
  // dependent hashing, uninitialized reads) that in-process replay misses.
  std::cout << "replay-hash: " << std::hex << a.combined_hash() << " events: "
            << std::dec << a.events_recorded() << "\n";
}

// Site-free pins of the flow layer's output. Site hashes name
// `basename:line`, so the combined hash above moves whenever a scheduling
// line moves; these three values do not. They move only when the flow layer
// computes a different rate, completion time or telemetry bit. The solver
// counters pin how much work producing them took.
TEST(Replay, Seed42ScenarioIsPinned) {
  SolveCounters counters;
  const ReplayRecorder rec = run_scenario(42, &counters);
  EXPECT_EQ(rec.stats_hash(), 0x0bca2b1d852d647full);
  EXPECT_EQ(rec.stream_hash(), 0x91e429e0aa352827ull);
  EXPECT_EQ(rec.events_recorded(), 137u);

  EXPECT_EQ(counters.solves, 146u);
  EXPECT_EQ(counters.skipped_solves, 36u);
  EXPECT_EQ(counters.iterations, 769u);
  EXPECT_EQ(counters.flows_solved, 2356u);
  EXPECT_EQ(counters.resources_touched, 784u);
}

TEST(Replay, DifferentSeedsDivergeAndAreLocalized) {
  const ReplayRecorder a = run_scenario(1);
  const ReplayRecorder b = run_scenario(2);
  ASSERT_NE(a.combined_hash(), b.combined_hash());
  const std::size_t at = ReplayRecorder::first_divergence(a, b);
  ASSERT_NE(at, ReplayRecorder::npos);
  // Divergence is localized: everything before `at` matches.
  for (std::size_t i = 0; i < at; ++i) {
    ASSERT_TRUE(a.records()[i] == b.records()[i]);
  }
  EXPECT_NE(ReplayRecorder::divergence_report(a, b), "identical");
}

TEST(Replay, RecorderObservesEveryEventWithSite) {
  Simulator sim;
  ReplayRecorder rec;
  rec.attach(sim);
  sim.schedule_in(10, [] {});
  sim.schedule_in(20, [] {});
  sim.run();
  ASSERT_EQ(rec.events_recorded(), 2u);
  EXPECT_EQ(rec.records()[0].when, 10);
  EXPECT_EQ(rec.records()[1].when, 20);
  // Both events were scheduled from distinct source lines -> distinct sites.
  EXPECT_NE(rec.records()[0].site, rec.records()[1].site);
}

TEST(Replay, StatsHashCatchesTelemetryDivergence) {
  // Two identical event streams but different telemetry snapshots must
  // produce different stats hashes (and say so in the report).
  Simulator sim_a, sim_b;
  FlowNetwork net_a(sim_a), net_b(sim_b);
  net_a.add_resource("r", 100.0);
  net_b.add_resource("r", 100.0);
  ReplayRecorder a, b;
  FlowDesc da, db;
  da.path = {{0, 1.0}};
  da.size = 10.0;
  db.path = {{0, 1.0}};
  db.size = 20.0;  // double the work -> different served/busy telemetry
  net_a.start_flow(std::move(da));
  net_b.start_flow(std::move(db));
  sim_a.run();
  sim_b.run();
  a.record_resource_stats(net_a);
  b.record_resource_stats(net_b);
  EXPECT_NE(a.stats_hash(), b.stats_hash());
}

TEST(Replay, EmptyRecordersCompareIdentical) {
  ReplayRecorder a, b;
  EXPECT_EQ(ReplayRecorder::first_divergence(a, b), ReplayRecorder::npos);
  EXPECT_EQ(ReplayRecorder::divergence_report(a, b), "identical");
  EXPECT_EQ(a.combined_hash(), b.combined_hash());
}

}  // namespace
}  // namespace spider::sim
