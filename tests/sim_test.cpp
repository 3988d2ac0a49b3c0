#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/steady_state.hpp"
#include "sim/time.hpp"

namespace spider::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_seconds(1.5), 1500 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(to_hours(kDay), 24.0);
  EXPECT_DOUBLE_EQ(to_days(36 * kHour), 1.5);
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoForSimultaneousEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5, [&] { order.push_back(1); });
  q.schedule(5, [&] { order.push_back(2); });
  q.schedule(5, [&] { order.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1, [&] { order.push_back(1); });
  const EventHandle second = q.schedule(2, [&] { order.push_back(2); });
  q.schedule(3, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(second));
  EXPECT_FALSE(q.cancel(second));  // double-cancel is a no-op
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventHandle a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 2);
}

TEST(EventQueue, CancelFreesCallbackStateEagerly) {
  // The callback (and anything it captures) must be destroyed at cancel
  // time, not when the stale heap entry finally pops.
  EventQueue q;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  const EventHandle event = q.schedule(1000, [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());
  q.cancel(event);
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, CancelHeavyLoadBoundsMemory) {
  // Regression: the flow network cancels + reschedules its next-completion
  // event on every arrival. Stale heap entries whose times lie beyond the
  // clock used to accumulate without bound; compaction must keep both the
  // callback map and the heap proportional to *live* events.
  EventQueue q;
  q.schedule(1, [] {});  // one live event that never fires
  constexpr std::size_t kRounds = 1'000'000;
  for (std::size_t i = 0; i < kRounds; ++i) {
    // Far-future time: lazy top-of-heap dropping alone never reaches these.
    const EventHandle event =
        q.schedule(static_cast<SimTime>(1'000'000 + i), [] {});
    ASSERT_TRUE(q.cancel(event));
  }
  EXPECT_EQ(q.size(), 1u);        // callbacks_ holds only the live event
  EXPECT_LE(q.heap_size(), 64u);  // stale entries were compacted away
  EXPECT_EQ(q.next_time(), 1);
}

TEST(EventQueue, CompactionPreservesOrderingAndCallbacks) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100; ++i) {
      doomed.push_back(
          q.schedule(static_cast<SimTime>(10'000 + round * 100 + i), [] {}));
    }
    q.schedule(static_cast<SimTime>(10 * round + 5),
               [&order, round] { order.push_back(round); });
    for (const EventHandle event : doomed) q.cancel(event);
    doomed.clear();
  }
  EXPECT_EQ(q.size(), 10u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, CompactionKeepsCapacityForSteadyChurn) {
  // Regression for the shrink policy: compaction erases stale entries but
  // must not release heap capacity that steady-state churn is about to
  // reuse — shrink-to-fit on every compact would add an allocate+copy cycle
  // to the flow network's cancel/reschedule pattern.
  EventQueue q;
  q.schedule(1, [] {});  // permanent live anchor
  std::vector<EventHandle> ids;
  // Grow the heap with live events, then cancel most (stale > 2x live
  // triggers compaction). Capacity stays within the shrink threshold, so it
  // must be retained exactly.
  for (int i = 0; i < 400; ++i) {
    ids.push_back(q.schedule(static_cast<SimTime>(1000 + i), [] {}));
  }
  const std::size_t cap_before = q.heap_capacity();
  for (std::size_t i = 0; i < 300; ++i) q.cancel(ids[i]);
  EXPECT_LT(q.heap_size(), 401u);            // compaction ran
  EXPECT_EQ(q.heap_capacity(), cap_before);  // ...but kept the capacity

  // Steady churn at the same scale must never shrink or regrow: capacity is
  // stable across rounds.
  for (int round = 0; round < 20; ++round) {
    std::vector<EventHandle> churn;
    for (int i = 0; i < 300; ++i) {
      churn.push_back(q.schedule(static_cast<SimTime>(5000 + i), [] {}));
    }
    for (const EventHandle event : churn) q.cancel(event);
    EXPECT_EQ(q.heap_capacity(), cap_before) << "round " << round;
  }
}

TEST(EventQueue, CompactionReleasesCapacityAfterBurstCollapse) {
  // The other half of the shrink policy: when a one-off burst leaves the
  // heap holding far more capacity than live events justify (beyond the
  // shrink multiple), compact() must give the memory back.
  EventQueue q;
  q.schedule(1, [] {});
  std::vector<EventHandle> ids;
  for (int i = 0; i < 20'000; ++i) {
    ids.push_back(q.schedule(static_cast<SimTime>(1000 + i), [] {}));
  }
  EXPECT_GE(q.heap_capacity(), 20'000u);
  for (const EventHandle event : ids) q.cancel(event);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_LT(q.heap_capacity(), 20'000u / 4);  // burst capacity released
}

TEST(EventQueue, CancelledIdStaysDeadAfterSlotReuse) {
  // Generation check: cancelling a handle must stay a no-op forever, even
  // after the slot that backed it is recycled for a newer event. A stale
  // cancel that killed the new occupant would silently drop a live event.
  EventQueue q;
  bool fired = false;
  const EventHandle a = q.schedule(10, [] {});
  ASSERT_TRUE(q.cancel(a));
  const EventHandle b = q.schedule(20, [&fired] { fired = true; });
  EXPECT_EQ(b.slot, a.slot);      // the slot is recycled...
  EXPECT_GT(b.id, a.id);          // ...but ids stay monotone, never recycled
  EXPECT_FALSE(q.cancel(a));      // stale handle: dead then, dead now
  ASSERT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_TRUE(fired);             // the reused slot's occupant survived
  EXPECT_FALSE(q.cancel(a));
  EXPECT_FALSE(q.cancel(b));      // already fired
}

TEST(EventQueue, IdsAreConsecutiveAcrossCancelChurn) {
  // Replay golden hashes fold raw EventIds, so the id sequence is part of
  // the on-disk format: 1, 2, 3, ... regardless of cancels in between.
  EventQueue q;
  EventId expected = 0;
  for (int i = 0; i < 100; ++i) {
    const EventHandle event = q.schedule(static_cast<SimTime>(50 + i), [] {});
    EXPECT_EQ(event.id, ++expected);
    if (i % 3 == 0) q.cancel(event);
  }
}

TEST(EventQueue, CancelAtFireTimeLeavesNoStaleHead) {
  // Regression: cancelling the event at the current front of the heap (one
  // due at the instant of the cancel) must drop the stale head eagerly, so
  // next_time()/pop() never see a cancelled front entry.
  EventQueue q;
  std::vector<int> order;
  const EventHandle due_now = q.schedule(10, [&] { order.push_back(1); });
  q.schedule(10, [&] { order.push_back(2); });
  q.schedule(20, [&] { order.push_back(3); });
  ASSERT_EQ(q.next_time(), 10);  // cancelled event is at the heap front
  EXPECT_TRUE(q.cancel(due_now));
  // The stale head is gone immediately, not just at the next pop.
  EXPECT_EQ(q.heap_size(), q.size());
  EXPECT_EQ(q.next_time(), 10);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(EventQueue, CancelChurnIsDeterministic) {
  // Two queues driven through an identical schedule/cancel interleaving —
  // including cancels of events due at the current front time — must fire
  // the surviving events in an identical order.
  const auto drive = [] {
    EventQueue q;
    std::vector<int> order;
    std::vector<EventHandle> ids;
    for (int i = 0; i < 200; ++i) {
      ids.push_back(q.schedule(static_cast<SimTime>(5 * (i % 17)),
                               [&order, i] { order.push_back(i); }));
    }
    for (int i = 0; i < 200; i += 3) q.cancel(ids[static_cast<std::size_t>(i)]);
    while (!q.empty()) {
      auto fired = q.pop();
      // Cancel a still-pending event due at exactly the current fire time.
      for (int i = 0; i < 200; ++i) {
        if (5 * (i % 17) == fired.when && i % 7 == 0) {
          q.cancel(ids[static_cast<std::size_t>(i)]);
        }
      }
      fired.fn();
    }
    return order;
  };
  const std::vector<int> a = drive();
  const std::vector<int> b = drive();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(Simulator, RunAdvancesClockAndCounts) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(5 * kSecond, [&] { ++fired; });
  sim.schedule_in(10 * kSecond, [&] { ++fired; });
  const auto ran = sim.run();
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 10 * kSecond);
}

TEST(Simulator, RunUntilHorizonStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(5, [&] { ++fired; });
  sim.schedule_in(500, [&] { ++fired; });
  sim.run(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 100);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 5) sim.schedule_in(10, next);
  };
  sim.schedule_in(10, next);
  sim.run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, ObserverSeesEveryDispatchedEvent) {
  Simulator sim;
  std::vector<std::pair<SimTime, EventId>> seen;
  // The observer is a non-owning FunctionRef: the callable must outlive the
  // run, so it lives in a local rather than being passed as a temporary.
  auto observe = [&](SimTime t, EventId id, std::uint64_t site) {
    EXPECT_NE(site, 0u);  // scheduling sites are always hashed
    seen.emplace_back(t, id);
  };
  sim.set_observer(EventObserver(observe));
  const EventId a = sim.schedule_in(10, [] {}).id;
  const EventId b = sim.schedule_in(5, [] {}).id;
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<SimTime, EventId>{5, b}));
  EXPECT_EQ(seen[1], (std::pair<SimTime, EventId>{10, a}));
}

TEST(Simulator, SiteHashIsStablePerLineAndDistinctAcrossLines) {
  constexpr Site here;
  constexpr Site copy = here;
  constexpr Site other_line;
  static_assert(here.hash != 0);
  // Hashing is content-based (file name chars + line): identical sites
  // agree, different lines differ — that is what localizes a divergence.
  static_assert(here.hash == copy.hash);
  static_assert(here.hash != other_line.hash);
  static_assert(other_line.line == here.line + 2);
  EXPECT_STREQ(here.file, "sim_test.cpp");
}

TEST(Simulator, RejectsPastAndNegative) {
  Simulator sim;
  sim.schedule_in(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, ScheduleInReachesExactlyTheEndOfSimTime) {
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  Simulator sim;
  sim.run(10);
  int fired = 0;
  sim.schedule_in(kMax - 10, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), kMax);
}

TEST(Simulator, ScheduleInPastTheEndOfSimTimeThrows) {
  // now() + dt would overflow and wrap into the past; the delay is refused
  // and nothing is queued.
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  Simulator sim;
  sim.run(10);
  sim.schedule_in(5, [] {});
  const std::size_t pending = sim.pending_events();
  try {
    sim.schedule_in(kMax - 9, [] {});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("now=10"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sim_test.cpp"), std::string::npos) << msg;
  }
  EXPECT_EQ(sim.pending_events(), pending);
}

TEST(Simulator, PastTimeErrorNamesTimesAndCallSite) {
  // The enriched diagnostic: when, now, the gap, and the scheduling call
  // site — enough to localize a lookahead/clock bug from the message alone.
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  try {
    sim.schedule_at(40, [] {});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("when=40"), std::string::npos) << msg;
    EXPECT_NE(msg.find("now=100"), std::string::npos) << msg;
    EXPECT_NE(msg.find("behind by 60"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sim_test.cpp"), std::string::npos) << msg;
  }
  try {
    sim.schedule_in(-7, [] {});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("dt=-7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("now=100"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sim_test.cpp"), std::string::npos) << msg;
  }
}

// --- run(until) clock semantics ---------------------------------------------
// With a finite horizon, now() must land exactly on `until` no matter how the
// run ends. These pin the fix for the drained-queue early return that left
// now() at the last event time (or at 0) and broke the sharded engine's
// epoch barriers.

TEST(Simulator, RunOnEmptyQueueStillAdvancesToHorizon) {
  Simulator sim;
  EXPECT_EQ(sim.run(50), 0u);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, RunDrainedMidRunAdvancesToHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  EXPECT_EQ(sim.run(100), 1u);  // queue drains at t=10, horizon is 100
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunExecutesEventExactlyAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] { ++fired; });
  EXPECT_EQ(sim.run(100), 1u);  // horizon is inclusive
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunWithInfiniteHorizonStopsAtLastEvent) {
  // Only a *finite* horizon pulls the clock forward; the default run() still
  // ends at the last executed event.
  Simulator sim;
  sim.schedule_at(30, [] {});
  sim.run();
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, ScheduleSitedPreservesCallerSiteHash) {
  // A Site captured on one line and handed to schedule_at later — as the
  // sharded engine hands over a schedule_cross call's site when it delivers
  // the message — keeps that line's hash, and a past-time error names it.
  Simulator sim;
  std::uint64_t seen_site = 0;
  auto observe = [&](SimTime, EventId, std::uint64_t site) {
    seen_site = site;
  };
  sim.set_observer(EventObserver(observe));
  const Site captured;
  const Site scheduling_line;
  sim.schedule_at(5, [] {}, captured);
  sim.run();
  EXPECT_EQ(seen_site, captured.hash);
  EXPECT_NE(seen_site, scheduling_line.hash);
  try {
    sim.schedule_at(1, [] {}, captured);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string named =
        "sim_test.cpp:" + std::to_string(captured.line) + ")";
    EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
        << e.what();
  }
}

// --- max-min solver ---------------------------------------------------------

TEST(Solver, SingleFlowTakesFullCapacity) {
  const std::vector<double> cap{100.0};
  const std::vector<PathHop> path{{0, 1.0}};
  const std::vector<SolverFlow> flows{{path, kUnbounded}};
  const auto res = solve_max_min(cap, flows);
  EXPECT_NEAR(res.rate[0], 100.0, 1e-6);
  EXPECT_NEAR(res.utilization[0], 1.0, 1e-6);
}

TEST(Solver, EqualShareOnOneResource) {
  const std::vector<double> cap{90.0};
  const std::vector<PathHop> path{{0, 1.0}};
  std::vector<SolverFlow> flows(3, SolverFlow{path, kUnbounded});
  const auto res = solve_max_min(cap, flows);
  for (double r : res.rate) EXPECT_NEAR(r, 30.0, 1e-6);
}

TEST(Solver, RateCapFreesCapacityForOthers) {
  const std::vector<double> cap{100.0};
  const std::vector<PathHop> path{{0, 1.0}};
  const std::vector<SolverFlow> flows{{path, 10.0}, {path, kUnbounded}};
  const auto res = solve_max_min(cap, flows);
  EXPECT_NEAR(res.rate[0], 10.0, 1e-6);
  EXPECT_NEAR(res.rate[1], 90.0, 1e-6);
}

TEST(Solver, ClassicMaxMinTwoBottlenecks) {
  // Flow A crosses r0 (cap 10) and r1 (cap 100); flow B crosses only r1.
  // A is pinned at 10 by r0; B takes the remaining 90 of r1.
  const std::vector<double> cap{10.0, 100.0};
  const std::vector<PathHop> path_a{{0, 1.0}, {1, 1.0}};
  const std::vector<PathHop> path_b{{1, 1.0}};
  const std::vector<SolverFlow> flows{{path_a, kUnbounded}, {path_b, kUnbounded}};
  const auto res = solve_max_min(cap, flows);
  EXPECT_NEAR(res.rate[0], 10.0, 1e-6);
  EXPECT_NEAR(res.rate[1], 90.0, 1e-6);
}

TEST(Solver, CostFactorScalesConsumption) {
  // Cost 4 random-I/O flow: consumes 4 units of disk capacity per byte.
  const std::vector<double> cap{100.0};
  const std::vector<PathHop> expensive{{0, 4.0}};
  const std::vector<SolverFlow> flows{{expensive, kUnbounded}};
  const auto res = solve_max_min(cap, flows);
  EXPECT_NEAR(res.rate[0], 25.0, 1e-6);
}

TEST(Solver, ZeroCapacityResourcePinsFlows) {
  const std::vector<double> cap{0.0, 50.0};
  const std::vector<PathHop> dead{{0, 1.0}, {1, 1.0}};
  const std::vector<PathHop> alive{{1, 1.0}};
  const std::vector<SolverFlow> flows{{dead, kUnbounded}, {alive, kUnbounded}};
  const auto res = solve_max_min(cap, flows);
  EXPECT_NEAR(res.rate[0], 0.0, 1e-9);
  EXPECT_NEAR(res.rate[1], 50.0, 1e-6);
}

TEST(Solver, PathlessFlowGetsItsCap) {
  const std::vector<double> cap{};
  const std::vector<SolverFlow> flows{{{}, 42.0}, {{}, kUnbounded}};
  const auto res = solve_max_min(cap, flows);
  EXPECT_DOUBLE_EQ(res.rate[0], 42.0);
  EXPECT_DOUBLE_EQ(res.rate[1], 0.0);
}

TEST(Solver, EmptyInputs) {
  const auto res = solve_max_min({}, {});
  EXPECT_TRUE(res.rate.empty());
}

// Property sweep: random networks must satisfy feasibility and max-min
// optimality conditions.
class SolverProperty : public ::testing::TestWithParam<int> {};

TEST_P(SolverProperty, FeasibleAndMaxMinOptimal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t nr = 3 + rng.uniform_index(10);
  const std::size_t nf = 1 + rng.uniform_index(30);
  std::vector<double> cap(nr);
  for (auto& c : cap) c = rng.uniform(10.0, 1000.0);
  std::vector<std::vector<PathHop>> paths(nf);
  std::vector<SolverFlow> flows;
  std::vector<double> caps(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    const std::size_t hops = 1 + rng.uniform_index(4);
    for (std::size_t h = 0; h < hops; ++h) {
      paths[f].push_back({static_cast<ResourceId>(rng.uniform_index(nr)),
                          rng.uniform(0.5, 3.0)});
    }
    caps[f] = rng.chance(0.5) ? rng.uniform(1.0, 400.0) : kUnbounded;
  }
  for (std::size_t f = 0; f < nf; ++f) flows.push_back({paths[f], caps[f]});
  const auto res = solve_max_min(cap, flows);

  // Feasibility: rates non-negative, caps respected, resources within
  // capacity (small numeric slack).
  std::vector<double> used(nr, 0.0);
  for (std::size_t f = 0; f < nf; ++f) {
    EXPECT_GE(res.rate[f], -1e-9);
    if (!std::isinf(caps[f])) {
      EXPECT_LE(res.rate[f], caps[f] * (1 + 1e-9));
    }
    for (const auto& hop : paths[f]) used[hop.resource] += res.rate[f] * hop.cost;
  }
  for (std::size_t r = 0; r < nr; ++r) {
    EXPECT_LE(used[r], cap[r] * (1.0 + 1e-6));
  }
  // Max-min optimality: every flow is either at its own cap or crosses a
  // saturated resource.
  for (std::size_t f = 0; f < nf; ++f) {
    const bool at_cap =
        !std::isinf(caps[f]) && res.rate[f] >= caps[f] * (1 - 1e-6);
    bool at_bottleneck = false;
    for (const auto& hop : paths[f]) {
      if (used[hop.resource] >= cap[hop.resource] * (1 - 1e-5)) {
        at_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(at_cap || at_bottleneck) << "flow " << f << " is not limited";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, SolverProperty,
                         ::testing::Range(0, 25));

TEST(SteadyStateSolver, AggregateAndBottleneckReporting) {
  SteadyStateSolver s;
  const auto a = s.add_resource("narrow", 50.0);
  const auto b = s.add_resource("wide", 500.0);
  s.add_flow({{a, 1.0}, {b, 1.0}});
  s.add_flow({{b, 1.0}});
  s.solve();
  EXPECT_NEAR(s.flow_rate(0), 50.0, 1e-6);
  EXPECT_NEAR(s.flow_rate(1), 450.0, 1e-6);
  EXPECT_NEAR(s.aggregate_rate(), 500.0, 1e-6);
  // Both saturate; the bottleneck is whichever hits 1.0 (max element).
  EXPECT_FALSE(s.bottleneck().empty());
  EXPECT_NEAR(s.utilization(a), 1.0, 1e-9);
}

TEST(SteadyStateSolver, ClearFlowsKeepsResources) {
  SteadyStateSolver s;
  const auto a = s.add_resource("r", 10.0);
  s.add_flow({{a, 1.0}});
  s.solve();
  s.clear_flows();
  EXPECT_EQ(s.flows(), 0u);
  EXPECT_EQ(s.resources(), 1u);
  s.add_flow({{a, 1.0}}, 4.0);
  s.solve();
  EXPECT_NEAR(s.flow_rate(0), 4.0, 1e-9);
}

TEST(SteadyStateSolver, RejectsBadFlow) {
  SteadyStateSolver s;
  s.add_resource("r", 10.0);
  EXPECT_THROW(s.add_flow({{5, 1.0}}), std::out_of_range);
  EXPECT_THROW(s.add_flow({{0, 1.0}}, std::nan("")), std::invalid_argument);
  EXPECT_THROW(s.add_resource("bad", -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace spider::sim

// --- Site hashing ------------------------------------------------------------
// Each #line directive renames the file and renumbers the lines that follow,
// which is the only way to give a Site a file name of its own; nothing
// follows these tests in this file.
namespace spider::sim {
namespace {

/// The site hash written out independently: 64-bit FNV-1a over the bytes of
/// the basename, then one step folding in the whole line number.
constexpr std::uint64_t reference_fnv(std::string_view path,
                                      std::uint64_t line) {
  const std::size_t slash = path.find_last_of("/\\");
  if (slash != std::string_view::npos) path.remove_prefix(slash + 1);
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : path) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return (h ^ line) * 1099511628211ull;
}

#line 7 "alpha/twin_site.cpp"
constexpr Site kTwinAlpha;
#line 7 "beta/twin_site.cpp"
constexpr Site kTwinBeta;
constexpr Site kTwinBetaLater;
#line 40 "gamma/one_file.cpp"
constexpr Site kFirst;
constexpr Site kSecond;

TEST(SiteHashMemo, TwinBasenamesInDistinctDirectoriesHashAlike) {
  static_assert(kTwinAlpha.hash == reference_fnv("alpha/twin_site.cpp", 7));
  static_assert(kTwinBeta.hash == reference_fnv("beta/twin_site.cpp", 7));
  static_assert(kTwinBetaLater.hash == reference_fnv("beta/twin_site.cpp", 8));
  static_assert(kTwinAlpha.hash == kTwinBeta.hash);
  static_assert(kTwinBeta.hash != kTwinBetaLater.hash);
  EXPECT_STREQ(kTwinAlpha.file, "twin_site.cpp");
  EXPECT_STREQ(kTwinBeta.file, "twin_site.cpp");
  EXPECT_EQ(kTwinBetaLater.line, 8u);
}

TEST(SiteHashMemo, OneFileAtDifferentLines) {
  static_assert(kFirst.hash == reference_fnv("gamma/one_file.cpp", 40));
  static_assert(kSecond.hash == reference_fnv("gamma/one_file.cpp", 41));
  static_assert(kFirst.hash != kSecond.hash);
  EXPECT_STREQ(kFirst.file, "one_file.cpp");
  EXPECT_EQ(kSecond.line, 41u);
}

}  // namespace
}  // namespace spider::sim
