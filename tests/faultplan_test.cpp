// Tests for the declarative fault-plan layer: parser round-trips and error
// reporting, seeded mutation determinism, and FaultInjector compilation of
// timed / conditioned / reverting injections into simulator events.
#include "sim/faultplan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace {

using namespace spider;
using namespace spider::sim;

const char kPlanText[] = R"(# rebuild-then-enclosure scenario
name = "rebuild-then-enclosure"
seed = 42
horizon_s = 300

[[inject]]
kind = "disk-fail"
at_s = 10
group = 3
member = 1

[[inject]]
kind = "enclosure-loss"
trigger = "rebuild-active"
at_s = 12
duration_s = 60
poll_s = 0.5
enclosure = 2

[[inject]]
kind = "congestion-spike"
at_s = 30
duration_s = 20
resource = 9
magnitude = 4.5
)";

TEST(FaultPlanParse, ParsesFullPlan) {
  const FaultPlan plan = parse_fault_plan(kPlanText);
  EXPECT_EQ(plan.name, "rebuild-then-enclosure");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.horizon_s, 300.0);
  ASSERT_EQ(plan.injections.size(), 3u);

  EXPECT_EQ(plan.injections[0].kind, FaultKind::kDiskFail);
  EXPECT_EQ(plan.injections[0].trigger, TriggerKind::kAtTime);
  EXPECT_EQ(plan.injections[0].at, 10 * kSecond);
  EXPECT_EQ(plan.injections[0].group, 3u);
  EXPECT_EQ(plan.injections[0].member, 1u);

  EXPECT_EQ(plan.injections[1].kind, FaultKind::kEnclosureLoss);
  EXPECT_EQ(plan.injections[1].trigger, TriggerKind::kOnRebuildActive);
  EXPECT_EQ(plan.injections[1].duration, 60 * kSecond);
  EXPECT_EQ(plan.injections[1].poll, kSecond / 2);
  EXPECT_EQ(plan.injections[1].enclosure, 2u);

  EXPECT_EQ(plan.injections[2].kind, FaultKind::kCongestionSpike);
  EXPECT_DOUBLE_EQ(plan.injections[2].magnitude, 4.5);
  EXPECT_EQ(plan.injections[2].resource, 9u);
}

TEST(FaultPlanParse, RoundTripsThroughText) {
  const FaultPlan plan = parse_fault_plan(kPlanText);
  const FaultPlan again = parse_fault_plan(to_plan_text(plan));
  EXPECT_EQ(again.name, plan.name);
  EXPECT_EQ(again.seed, plan.seed);
  EXPECT_DOUBLE_EQ(again.horizon_s, plan.horizon_s);
  ASSERT_EQ(again.injections.size(), plan.injections.size());
  for (std::size_t i = 0; i < plan.injections.size(); ++i) {
    EXPECT_EQ(again.injections[i].kind, plan.injections[i].kind) << i;
    EXPECT_EQ(again.injections[i].trigger, plan.injections[i].trigger) << i;
    EXPECT_EQ(again.injections[i].at, plan.injections[i].at) << i;
    EXPECT_EQ(again.injections[i].duration, plan.injections[i].duration) << i;
    EXPECT_EQ(again.injections[i].group, plan.injections[i].group) << i;
    EXPECT_EQ(again.injections[i].member, plan.injections[i].member) << i;
    EXPECT_EQ(again.injections[i].enclosure, plan.injections[i].enclosure) << i;
    EXPECT_EQ(again.injections[i].resource, plan.injections[i].resource) << i;
    EXPECT_DOUBLE_EQ(again.injections[i].magnitude,
                     plan.injections[i].magnitude) << i;
  }
}

TEST(FaultPlanParse, ErrorsCarryLineNumbers) {
  try {
    parse_fault_plan("name = \"x\"\nbogus line without equals\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(FaultPlanParse, RejectsUnknownKeysAndKinds) {
  EXPECT_THROW(parse_fault_plan("wat = 3\n"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("[[inject]]\nkind = \"gremlins\"\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("[[inject]]\nwat = 3\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("seed = -4\n"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("[[inject]]\npoll_s = 0\n"),
               std::invalid_argument);
}

TEST(FaultPlanParse, RejectsNonFiniteAndOutOfRangeNumbers) {
  // Non-finite numbers and seconds past SimTime's ~9.22e9 s range used to
  // reach from_seconds() and abort deep in the simulator.
  for (const char* text :
       {"horizon_s = inf\n", "horizon_s = nan\n", "horizon_s = 1e10\n",
        "seed = 1e30\n", "[[inject]]\nat_s = inf\n",
        "[[inject]]\nat_s = 1e12\n", "[[inject]]\nduration_s = -1e10\n",
        "[[inject]]\npoll_s = nan\n", "[[inject]]\nmagnitude = inf\n"}) {
    EXPECT_THROW(parse_fault_plan(text), std::invalid_argument) << text;
  }
  EXPECT_DOUBLE_EQ(parse_fault_plan("horizon_s = 9e9\n").horizon_s, 9e9);
}

TEST(FaultPlanParse, KindAndTriggerNamesRoundTrip) {
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const auto kind = static_cast<FaultKind>(i);
    EXPECT_EQ(fault_kind_from_string(to_string(kind)), kind);
  }
  // Every kind by name, not just by index: the numeric loop above would
  // keep passing if a kind were dropped from the parse table together with
  // its enumerator. FaultCampaign.EveryFaultKindHasAnInjectorBinding covers
  // the binding side of the same table.
  EXPECT_EQ(to_string(FaultKind::kDiskFail), "disk-fail");
  EXPECT_EQ(to_string(FaultKind::kDiskPartial), "disk-partial");
  EXPECT_EQ(to_string(FaultKind::kSlowDiskOnset), "slow-disk-onset");
  EXPECT_EQ(to_string(FaultKind::kEnclosureLoss), "enclosure-loss");
  EXPECT_EQ(to_string(FaultKind::kControllerFailover), "controller-failover");
  EXPECT_EQ(to_string(FaultKind::kMdsStall), "mds-stall");
  EXPECT_EQ(to_string(FaultKind::kRouterDrop), "router-drop");
  EXPECT_EQ(to_string(FaultKind::kCongestionSpike), "congestion-spike");
  for (std::size_t i = 0; i < kTriggerKindCount; ++i) {
    const auto kind = static_cast<TriggerKind>(i);
    EXPECT_EQ(trigger_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(fault_kind_from_string("nope"), std::invalid_argument);
  EXPECT_THROW(trigger_kind_from_string("nope"), std::invalid_argument);
}

TEST(FaultPlanMutation, SameSeedSameMutant) {
  const FaultPlan base = parse_fault_plan(kPlanText);
  PlanBounds bounds;
  bounds.groups = 8;
  bounds.members = 10;
  bounds.enclosures = 10;
  bounds.resources = 4;
  Rng a(7);
  Rng b(7);
  const FaultPlan ma = mutate_plan(base, bounds, a);
  const FaultPlan mb = mutate_plan(base, bounds, b);
  ASSERT_EQ(ma.injections.size(), mb.injections.size());
  for (std::size_t i = 0; i < ma.injections.size(); ++i) {
    EXPECT_EQ(ma.injections[i].at, mb.injections[i].at) << i;
    EXPECT_EQ(ma.injections[i].duration, mb.injections[i].duration) << i;
    EXPECT_DOUBLE_EQ(ma.injections[i].magnitude, mb.injections[i].magnitude)
        << i;
    EXPECT_EQ(ma.injections[i].group, mb.injections[i].group) << i;
    EXPECT_EQ(ma.injections[i].member, mb.injections[i].member) << i;
  }
  EXPECT_EQ(ma.name, "rebuild-then-enclosure~mut");
}

TEST(FaultPlanMutation, RespectsBoundsAndJitterRange) {
  const FaultPlan base = parse_fault_plan(kPlanText);
  PlanBounds bounds;
  bounds.groups = 3;
  bounds.members = 5;
  bounds.enclosures = 2;
  bounds.resources = 1;
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    const FaultPlan mutant = mutate_plan(base, bounds, rng);
    for (std::size_t i = 0; i < mutant.injections.size(); ++i) {
      const Injection& m = mutant.injections[i];
      const Injection& b = base.injections[i];
      EXPECT_LT(m.group, bounds.groups);
      EXPECT_LT(m.member, bounds.members);
      EXPECT_LT(m.enclosure, bounds.enclosures);
      EXPECT_LT(m.resource, bounds.resources);
      EXPECT_GE(m.at, static_cast<SimTime>(static_cast<double>(b.at) * 0.74));
      EXPECT_LE(m.at, static_cast<SimTime>(static_cast<double>(b.at) * 1.26));
      EXPECT_GE(m.magnitude, 1.0);
    }
  }
}

TEST(FaultInjector, TimedInjectionFiresAndReverts) {
  Simulator sim;
  FaultInjector injector(sim);
  int applied = 0;
  int reverted = 0;
  injector.bind(
      FaultKind::kMdsStall, [&](const Injection&) { ++applied; },
      [&](const Injection&) { ++reverted; });

  Injection inj;
  inj.kind = FaultKind::kMdsStall;
  inj.at = 5 * kSecond;
  inj.duration = 3 * kSecond;
  injector.inject(inj);

  sim.run(4 * kSecond);
  EXPECT_EQ(applied, 0);
  sim.run(6 * kSecond);
  EXPECT_EQ(applied, 1);
  EXPECT_EQ(reverted, 0);
  sim.run(20 * kSecond);
  EXPECT_EQ(reverted, 1);

  ASSERT_EQ(injector.log().size(), 2u);
  EXPECT_EQ(injector.log()[0].at, 5 * kSecond);
  EXPECT_FALSE(injector.log()[0].revert);
  EXPECT_EQ(injector.log()[1].at, 8 * kSecond);
  EXPECT_TRUE(injector.log()[1].revert);
  EXPECT_EQ(injector.injections_fired(), 1u);
  EXPECT_EQ(injector.reverts_fired(), 1u);
}

TEST(FaultInjector, TriggeredInjectionPollsUntilPredicateHolds) {
  Simulator sim;
  FaultInjector injector(sim);
  bool rebuild_active = false;
  int applied = 0;
  injector.bind(FaultKind::kEnclosureLoss,
                [&](const Injection&) { ++applied; });
  injector.bind_trigger(TriggerKind::kOnRebuildActive,
                        [&](const Injection&) { return rebuild_active; });

  Injection inj;
  inj.kind = FaultKind::kEnclosureLoss;
  inj.trigger = TriggerKind::kOnRebuildActive;
  inj.at = kSecond;
  inj.poll = kSecond;
  injector.inject(inj);
  sim.schedule_at(10 * kSecond + kSecond / 2,
                  [&] { rebuild_active = true; });

  sim.run(10 * kSecond);
  EXPECT_EQ(applied, 0);
  sim.run(12 * kSecond);
  EXPECT_EQ(applied, 1);
  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log()[0].at, 11 * kSecond);
}

TEST(FaultInjector, ArmSchedulesWholePlanAndChecksBindings) {
  Simulator sim;
  FaultInjector injector(sim);
  const FaultPlan plan = parse_fault_plan(kPlanText);
  // Nothing bound yet: arming must throw for the first injection's kind.
  EXPECT_THROW(injector.arm(plan), std::logic_error);

  int fired = 0;
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    injector.bind(static_cast<FaultKind>(i),
                  [&](const Injection&) { ++fired; });
  }
  // Conditioned injection present but its trigger unbound: still an error.
  EXPECT_THROW(injector.arm(plan), std::logic_error);
  injector.bind_trigger(TriggerKind::kOnRebuildActive,
                        [](const Injection&) { return true; });
  injector.arm(plan);
  sim.run(400 * kSecond);
  EXPECT_EQ(fired, 3);
}

TEST(FaultInjector, PastInjectionTimeClampsToNow) {
  Simulator sim;
  sim.schedule_at(10 * kSecond, [] {});
  sim.run(20 * kSecond);
  ASSERT_EQ(sim.now(), 20 * kSecond);  // finite run() lands on its horizon

  FaultInjector injector(sim);
  int applied = 0;
  injector.bind(FaultKind::kRouterDrop, [&](const Injection&) { ++applied; });
  Injection inj;
  inj.kind = FaultKind::kRouterDrop;
  inj.at = 5 * kSecond;  // in the past
  injector.inject(inj);
  sim.run(21 * kSecond);
  EXPECT_EQ(applied, 1);
  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log()[0].at, 20 * kSecond);
}

}  // namespace
