#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/flow_network.hpp"
#include "sim/replay.hpp"
#include "sim/simulator.hpp"

namespace spider::sim {
namespace {

struct Fixture : ::testing::Test {
  Simulator sim;
  FlowNetwork net{sim};
};

TEST_F(Fixture, SingleFlowCompletesAtCapacityTime) {
  const auto r = net.add_resource("link", 100.0);
  SimTime done_at = -1;
  FlowDesc d;
  d.path.push_back({r, 1.0});
  d.size = 1000.0;
  d.on_complete = [&](FlowId, SimTime t) { done_at = t; };
  net.start_flow(std::move(d));
  sim.run();
  EXPECT_NEAR(to_seconds(done_at), 10.0, 1e-3);
  EXPECT_NEAR(net.total_delivered(), 1000.0, 1e-6);
}

TEST_F(Fixture, RateCapSlowsFlow) {
  const auto r = net.add_resource("link", 100.0);
  SimTime done_at = -1;
  FlowDesc d;
  d.path.push_back({r, 1.0});
  d.size = 100.0;
  d.rate_cap = 10.0;
  d.on_complete = [&](FlowId, SimTime t) { done_at = t; };
  net.start_flow(std::move(d));
  sim.run();
  EXPECT_NEAR(to_seconds(done_at), 10.0, 1e-3);
}

TEST_F(Fixture, TwoFlowsShareThenSpeedUp) {
  // Two equal flows share 100 u/s; after the first finishes at t=2 (100
  // units each at 50 u/s), the second's remaining 100 units run at full
  // rate, finishing at t=3.
  const auto r = net.add_resource("link", 100.0);
  std::vector<double> done;
  for (double size : {100.0, 200.0}) {
    FlowDesc d;
    d.path.push_back({r, 1.0});
    d.size = size;
    d.on_complete = [&](FlowId, SimTime t) { done.push_back(to_seconds(t)); };
    net.start_flow(std::move(d));
  }
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-3);
  EXPECT_NEAR(done[1], 3.0, 1e-3);
}

TEST_F(Fixture, LatencyDelaysActivation) {
  const auto r = net.add_resource("link", 100.0);
  SimTime done_at = -1;
  FlowDesc d;
  d.path.push_back({r, 1.0});
  d.size = 100.0;
  d.latency = 5 * kSecond;
  d.on_complete = [&](FlowId, SimTime t) { done_at = t; };
  net.start_flow(std::move(d));
  EXPECT_EQ(net.active_flows(), 0u);  // not yet activated
  sim.run();
  EXPECT_NEAR(to_seconds(done_at), 6.0, 1e-3);
}

TEST_F(Fixture, CapacityChangeMidFlight) {
  const auto r = net.add_resource("link", 100.0);
  SimTime done_at = -1;
  FlowDesc d;
  d.path.push_back({r, 1.0});
  d.size = 1000.0;  // 10 s at full rate
  d.on_complete = [&](FlowId, SimTime t) { done_at = t; };
  net.start_flow(std::move(d));
  // Halve capacity at t=5: 500 units left at 50 u/s -> 10 more seconds.
  sim.schedule_in(5 * kSecond, [&] { net.set_capacity(r, 50.0); });
  sim.run();
  EXPECT_NEAR(to_seconds(done_at), 15.0, 1e-2);
}

TEST_F(Fixture, CancelFlowSkipsCallback) {
  const auto r = net.add_resource("link", 10.0);
  bool fired = false;
  FlowDesc d;
  d.path.push_back({r, 1.0});
  d.size = 100.0;
  d.on_complete = [&](FlowId, SimTime) { fired = true; };
  const FlowId id = net.start_flow(std::move(d));
  sim.schedule_in(kSecond, [&] { net.cancel_flow(id); });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST_F(Fixture, CancelFlowDuringLatencyWindowNeverActivates) {
  // Cancelled at 1 s, inside its 5 s latency window: the flow must never
  // activate, complete or deliver. The later flow still in its own window
  // runs as if the cancelled one had never been started.
  const auto r = net.add_resource("link", 10.0);
  int cancelled_fired = 0;
  SimTime kept_done = -1;
  FlowDesc d;
  d.path.push_back({r, 1.0});
  d.size = 10.0;
  d.latency = 5 * kSecond;
  d.on_complete = [&](FlowId, SimTime) { ++cancelled_fired; };
  const FlowId id = net.start_flow(std::move(d));
  FlowDesc kept;
  kept.path.push_back({r, 1.0});
  kept.size = 10.0;
  kept.latency = 3 * kSecond;
  kept.on_complete = [&](FlowId, SimTime t) { kept_done = t; };
  net.start_flow(std::move(kept));
  sim.schedule_in(kSecond, [&] { net.cancel_flow(id); });
  sim.run();
  EXPECT_EQ(cancelled_fired, 0);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_NEAR(to_seconds(kept_done), 4.0, 1e-3);  // 3 s latency + 1 s alone
  EXPECT_NEAR(net.total_delivered(), 10.0, 1e-9);
  EXPECT_NEAR(to_seconds(sim.now()), 4.0, 1e-3);  // nothing ran after it
  net.cancel_flow(id);  // a second cancel stays a no-op
  EXPECT_TRUE(sim.idle());
}

TEST_F(Fixture, CompletionCallbackCanStartNewFlow) {
  const auto r = net.add_resource("link", 100.0);
  int completions = 0;
  FlowDesc first;
  first.path.push_back({r, 1.0});
  first.size = 100.0;
  first.on_complete = [&](FlowId, SimTime) {
    ++completions;
    FlowDesc second;
    second.path.push_back({r, 1.0});
    second.size = 100.0;
    second.on_complete = [&](FlowId, SimTime) { ++completions; };
    net.start_flow(std::move(second));
  };
  net.start_flow(std::move(first));
  sim.run();
  EXPECT_EQ(completions, 2);
  EXPECT_NEAR(to_seconds(sim.now()), 2.0, 1e-3);
}

TEST_F(Fixture, TelemetryAccumulatesServedUnits) {
  const auto r = net.add_resource("link", 100.0);
  FlowDesc d;
  d.path.push_back({r, 2.0});  // cost 2: consumes 2 units per delivered unit
  d.size = 100.0;
  net.start_flow(std::move(d));
  sim.run();
  EXPECT_NEAR(net.stats(r).served, 200.0, 1e-3);
  EXPECT_EQ(net.stats(r).flows_seen, 1u);
}

TEST_F(Fixture, AggregateRateReflectsActiveFlows) {
  const auto r = net.add_resource("link", 100.0);
  FlowDesc d;
  d.path.push_back({r, 1.0});
  d.size = 500.0;
  net.start_flow(std::move(d));
  sim.run(kSecond);  // mid-flight
  EXPECT_NEAR(net.aggregate_rate(), 100.0, 1e-6);
  sim.run();
  EXPECT_NEAR(net.aggregate_rate(), 0.0, 1e-9);
}

TEST_F(Fixture, StarvedFlowWakesOnCapacityRestore) {
  const auto r = net.add_resource("link", 0.0);
  SimTime done_at = -1;
  FlowDesc d;
  d.path.push_back({r, 1.0});
  d.size = 100.0;
  d.on_complete = [&](FlowId, SimTime t) { done_at = t; };
  net.start_flow(std::move(d));
  sim.schedule_in(10 * kSecond, [&] { net.set_capacity(r, 100.0); });
  sim.run();
  EXPECT_NEAR(to_seconds(done_at), 11.0, 1e-2);
}

TEST_F(Fixture, TruncatedCompletionTimeCostsOneEventAndNoSolve) {
  // 1e6 units at 3e6 units/s take 1/3 s. from_seconds truncates that to
  // 333,333,333 ns, where 1e-3 units remain: more than the finish tolerance.
  // That completion event finishes nothing, so it keeps the rates without a
  // solve; a second one, 1 ns later, finishes the flow.
  const auto r = net.add_resource("link", 3e6);
  int completions = 0;
  SimTime done_at = -1;
  FlowDesc d;
  d.path.push_back({r, 1.0});
  d.size = 1e6;
  d.on_complete = [&](FlowId, SimTime t) {
    ++completions;
    done_at = t;
  };
  net.start_flow(std::move(d));
  ReplayRecorder rec;
  rec.attach(sim);
  sim.run();
  ASSERT_EQ(rec.events_recorded(), 2u);
  EXPECT_EQ(rec.records()[0].when, 333333333);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(done_at, 333333334);
  // One solve when the flow starts, one for the empty set after it finishes.
  EXPECT_EQ(net.counters().solves, 2u);
  EXPECT_EQ(net.counters().skipped_solves, 1u);
  EXPECT_EQ(net.counters().flows_solved, 1u);
}

TEST_F(Fixture, RejectsInvalidFlows) {
  const auto r = net.add_resource("link", 10.0);
  FlowDesc bad_size;
  bad_size.path.push_back({r, 1.0});
  bad_size.size = 0.0;
  EXPECT_THROW(net.start_flow(std::move(bad_size)), std::invalid_argument);
  FlowDesc bad_path;
  bad_path.path.push_back({42, 1.0});
  bad_path.size = 1.0;
  EXPECT_THROW(net.start_flow(std::move(bad_path)), std::out_of_range);
  FlowDesc bad_cap;
  bad_cap.path.push_back({r, 1.0});
  bad_cap.size = 1.0;
  bad_cap.rate_cap = std::nan("");
  EXPECT_THROW(net.start_flow(std::move(bad_cap)), std::invalid_argument);
}

TEST_F(Fixture, ManyFlowsConserveBytes) {
  const auto a = net.add_resource("a", 250.0);
  const auto b = net.add_resource("b", 400.0);
  double expected = 0.0;
  int completions = 0;
  for (int i = 0; i < 50; ++i) {
    FlowDesc d;
    d.path = i % 2 ? std::vector<PathHop>{{a, 1.0}}
                   : std::vector<PathHop>{{a, 1.0}, {b, 1.0}};
    d.size = 10.0 * (i + 1);
    expected += d.size;
    d.on_complete = [&](FlowId, SimTime) { ++completions; };
    net.start_flow(std::move(d));
  }
  sim.run();
  EXPECT_EQ(completions, 50);
  EXPECT_NEAR(net.total_delivered(), expected, expected * 1e-5);
  EXPECT_NEAR(net.stats(a).served, expected, expected * 2e-5);
}

// --- insertion-order / hash-order regression (spiderlint rule L1) ----------
//
// FlowNetwork used to keep active flows in an unordered_map and walk it on
// the progress-integration path, so float-sum order — and therefore the
// telemetry feeding slow-disk culling and congestion envelopes — depended
// on hash-table history (bucket growth from long-gone flows). These tests
// pin the fix: every walk is id-ordered, so results are a function of the
// live flow set alone.

/// Everything observable about one scenario run, keyed by flow description
/// index (not by FlowId, which depends on start order/history).
struct ScenarioResult {
  std::vector<double> rate_at_start;  ///< per desc, right after activation
  std::vector<SimTime> completed_at;  ///< per desc
  std::vector<ResourceStats> stats;   ///< per measured resource
};

/// Start `sizes[i]` over a 4-resource network (description index i keeps a
/// fixed path/cap shape). With `churn`, batches of short-lived flows on a
/// separate resource are started and cancelled around the real starts; the
/// batch sizes are tuned so real flow ids land far apart and collide modulo
/// a typical hash-table bucket count (121 and 248 mod 127), the situation
/// that visibly reordered the old unordered_map's iteration. The surviving
/// real flows must not care about any of it.
ScenarioResult run_scenario(const std::vector<double>& sizes, bool churn) {
  Simulator sim;
  FlowNetwork net(sim);
  const ResourceId r0 = net.add_resource("r0", 100.0 / 3.0);
  const ResourceId r1 = net.add_resource("r1", 70.0 / 3.0);
  const ResourceId r2 = net.add_resource("r2", 55.0 / 7.0);
  const ResourceId r3 = net.add_resource("r3", 41.0 / 9.0);
  const ResourceId chaff_r = net.add_resource("chaff", 1024.0);

  auto churn_flows = [&](int count) {
    std::vector<FlowId> chaff_ids;
    for (int i = 0; i < count; ++i) {
      FlowDesc d;
      d.path.push_back({chaff_r, 1.0});
      d.size = 1.0;
      chaff_ids.push_back(net.start_flow(std::move(d)));
    }
    for (FlowId id : chaff_ids) net.cancel_flow(id);
  };

  ScenarioResult result;
  result.rate_at_start.resize(sizes.size());
  result.completed_at.resize(sizes.size(), -1);

  std::vector<FlowId> id_of(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (churn && i == 0) churn_flows(120);  // real ids start at 121
    if (churn && i == 5) churn_flows(122);  // 6th real id = 248 = 121 + 127
    FlowDesc d;
    // Path shape cycles through the measured resources; every flow crosses
    // at least two so fair-share coupling is real.
    const ResourceId ring[] = {r0, r1, r2, r3};
    d.path.push_back({ring[i % 4], 1.0});
    d.path.push_back({ring[(i + 1) % 4], 1.0});
    d.size = sizes[i];
    // Distinct inexact cap per flow: fair-share ties would give every flow
    // on a bottleneck the *same* rate, and reordered sums of equal values
    // round identically — hiding iteration-order bugs. Distinct rates make
    // per-resource telemetry sums sensitive to walk order.
    d.rate_cap = (7.0 + static_cast<double>(i)) / 3.0;
    d.on_complete = [&result, i](FlowId, SimTime t) {
      result.completed_at[i] = t;
    };
    id_of[i] = net.start_flow(std::move(d));
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    result.rate_at_start[i] = net.flow_rate(id_of[i]);
  }
  sim.run();
  for (ResourceId r : {r0, r1, r2, r3}) result.stats.push_back(net.stats(r));
  return result;
}

/// Bitwise comparison of two runs (EXPECT_EQ on doubles, no tolerance):
/// determinism means identical, not merely close.
void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.rate_at_start.size(), b.rate_at_start.size());
  for (std::size_t i = 0; i < a.rate_at_start.size(); ++i) {
    EXPECT_EQ(a.rate_at_start[i], b.rate_at_start[i]) << "flow " << i;
    EXPECT_EQ(a.completed_at[i], b.completed_at[i]) << "flow " << i;
  }
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t r = 0; r < a.stats.size(); ++r) {
    EXPECT_EQ(a.stats[r].served, b.stats[r].served) << "resource " << r;
    EXPECT_EQ(a.stats[r].busy_integral, b.stats[r].busy_integral)
        << "resource " << r;
    EXPECT_EQ(a.stats[r].flows_seen, b.stats[r].flows_seen) << "resource " << r;
  }
}

TEST(FlowOrderRegression, FlowTableHistoryDoesNotChangeAllocations) {
  // Deliberately inexact sizes: any change in float-summation order would
  // show up bitwise in served/busy_integral.
  std::vector<double> sizes;
  for (int i = 0; i < 20; ++i) sizes.push_back(10.0 * (i + 1) / 3.0);
  const ScenarioResult clean = run_scenario(sizes, /*churn=*/false);
  const ScenarioResult churned = run_scenario(sizes, /*churn=*/true);
  expect_identical(clean, churned);
}

TEST(FlowOrderRegression, StartOrderDoesNotChangeAllocations) {
  // Exactly-representable sizes/capacities make float sums associative, so
  // even the reversed id-assignment must reproduce results bitwise.
  Simulator sim_a, sim_b;
  FlowNetwork net_a(sim_a), net_b(sim_b);
  for (FlowNetwork* net : {&net_a, &net_b}) {
    net->add_resource("x", 256.0);
    net->add_resource("y", 128.0);
  }
  auto start_all = [](Simulator&, FlowNetwork& net, bool reversed) {
    std::vector<FlowId> ids(8);
    for (std::size_t k = 0; k < 8; ++k) {
      const std::size_t i = reversed ? 7 - k : k;
      FlowDesc d;
      d.path = i % 2 ? std::vector<PathHop>{{1, 1.0}}
                     : std::vector<PathHop>{{0, 1.0}, {1, 1.0}};
      d.size = 64.0 * (1 + static_cast<double>(i));
      ids[i] = net.start_flow(std::move(d));
    }
    return ids;
  };
  const std::vector<FlowId> ids_a = start_all(sim_a, net_a, false);
  const std::vector<FlowId> ids_b = start_all(sim_b, net_b, true);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(net_a.flow_rate(ids_a[i]), net_b.flow_rate(ids_b[i]))
        << "flow " << i;
  }
  sim_a.run();
  sim_b.run();
  EXPECT_EQ(net_a.total_delivered(), net_b.total_delivered());

  // The telemetry hash the replay gate uses must agree too.
  ReplayRecorder rec_a, rec_b;
  rec_a.record_resource_stats(net_a);
  rec_b.record_resource_stats(net_b);
  EXPECT_EQ(rec_a.stats_hash(), rec_b.stats_hash());
}

TEST_F(Fixture, NearDeadFlowSchedulesNoCompletionPastSimTimeEnd) {
  // A 1e12-unit flow on a 1e-3 units/s disk needs 1e15 s, past SimTime's
  // ~292 years. Casting that to SimTime is undefined (on x86 it reads as
  // 1 ns, and a 1 ms run executes a million completion events), so no
  // completion may be scheduled at all.
  const auto disk = net.add_resource("near-dead", 1e-3);
  int completions = 0;
  FlowDesc d;
  d.path.push_back({disk, 1.0});
  d.size = 1e12;
  d.on_complete = [&](FlowId, SimTime) { ++completions; };
  const FlowId id = net.start_flow(std::move(d));
  EXPECT_EQ(sim.run(kMillisecond), 0u);
  EXPECT_EQ(net.active_flows(), 1u);
  EXPECT_EQ(net.flow_rate(id), 1e-3);

  // A capacity change re-solves and schedules the completion.
  net.set_capacity(disk, 1e12);
  sim.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(net.active_flows(), 0u);
}

}  // namespace
}  // namespace spider::sim
