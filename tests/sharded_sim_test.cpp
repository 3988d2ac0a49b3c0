// ShardedSimulator determinism and epoch-contract tests.
//
// The determinism bar (docs/parallel-engine.md): the canonical merged
// replay stream depends only on the workload and the shard *assignment* —
// never on the worker count or on how many (empty) shards the engine has —
// and a workload hosted on shard 0 is byte-identical to the serial
// Simulator at any engine width. The metamorphic pair: changing the
// assignment changes the hash; changing the shard count does not.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "sim/replay.hpp"
#include "sim/sharded_sim.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace {

using namespace spider;
using sim::kMicrosecond;
using sim::ShardedConfig;
using sim::ShardedReplay;
using sim::ShardedSimulator;
using sim::ShardId;
using sim::ShardMap;
using sim::SimTime;

constexpr SimTime kLookahead = 10 * kMicrosecond;

/// Synthetic multi-zone workload with cross-zone traffic. Every zone runs a
/// chain of ticks `step` apart; every third tick also mails the next zone,
/// which starts a fresh (shorter) chain there on arrival. All scheduling
/// threads one shared sim::Site so runs are comparable site-by-site.
struct MiniZones {
  ShardedSimulator& engine;
  ShardMap map;
  std::vector<std::uint64_t> ticks;
  SimTime step = 2 * kMicrosecond;

  MiniZones(ShardedSimulator& eng, ShardMap assignment)
      : engine(eng), map(std::move(assignment)), ticks(map.domains(), 0) {}

  sim::Simulator& zone_sim(std::size_t z) {
    return engine.shard(map.shard_of(z));
  }

  void start(int rounds, sim::Site loc) {
    for (std::size_t z = 0; z < ticks.size(); ++z) {
      const SimTime at = static_cast<SimTime>(z + 1) * kMicrosecond;
      zone_sim(z).schedule_at(at, [this, z, rounds, loc] {
        tick(z, rounds, loc);
      }, loc);
    }
  }

  void tick(std::size_t z, int remaining, sim::Site loc) {
    ++ticks[z];
    if (remaining <= 0) return;
    if (remaining % 3 == 0 && ticks.size() > 1) {
      const std::size_t to = (z + 1) % ticks.size();
      const SimTime when = zone_sim(z).now() + kLookahead;
      engine.schedule_cross(map.shard_of(z), map.shard_of(to), when,
                            [this, to, remaining, loc] {
                              tick(to, remaining / 2, loc);
                            },
                            loc);
    }
    zone_sim(z).schedule_in(step, [this, z, remaining, loc] {
      tick(z, remaining - 1, loc);
    }, loc);
  }
};

/// Run MiniZones on a fresh engine and return the canonical merged hash.
std::uint64_t run_mini(std::size_t zones, const ShardMap& map,
                       std::size_t shards, std::size_t workers,
                       std::uint64_t* total_ticks = nullptr) {
  ShardedConfig cfg;
  cfg.lookahead = kLookahead;
  cfg.workers = workers;
  ShardedSimulator engine(shards, cfg);
  ShardedReplay replay(engine);
  MiniZones zones_state(engine, map);
  EXPECT_EQ(zones_state.ticks.size(), zones);
  zones_state.start(12, sim::Site());
  engine.run(sim::kMillisecond);
  if (total_ticks) {
    *total_ticks = 0;
    for (const std::uint64_t t : zones_state.ticks) *total_ticks += t;
  }
  return replay.merged_hash();
}

TEST(ShardedSim, RunLandsEveryShardClockOnFiniteHorizon) {
  // The engine's reason for the Simulator::run clock fix: an idle shard
  // must still arrive at the barrier/horizon.
  ShardedSimulator engine(3, ShardedConfig{kLookahead, 1});
  int ran = 0;
  engine.shard(0).schedule_at(5 * kMicrosecond, [&ran] { ++ran; });
  EXPECT_EQ(engine.run(100 * kMicrosecond), 1u);
  EXPECT_EQ(ran, 1);
  for (ShardId s = 0; s < 3; ++s) {
    EXPECT_EQ(engine.shard(s).now(), 100 * kMicrosecond) << "shard " << s;
  }
}

TEST(ShardedSim, EmptyEngineStillAdvancesToHorizon) {
  ShardedSimulator engine(2, ShardedConfig{kLookahead, 1});
  EXPECT_EQ(engine.run(50 * kMicrosecond), 0u);
  EXPECT_EQ(engine.shard(0).now(), 50 * kMicrosecond);
  EXPECT_EQ(engine.shard(1).now(), 50 * kMicrosecond);
  EXPECT_TRUE(engine.idle());
}

TEST(ShardedSim, SingleShardMatchesSerialSimulatorByteForByte) {
  // Identical dynamic workload, one shared scheduling site, every event on
  // shard 0: the sharded engine's merged stream must equal the serial
  // Simulator's exactly at any engine width and lane count, so the epoch
  // chopping and the empty shards are invisible in the replay hash.
  const sim::Site loc;
  const auto seed_workload = [loc](sim::Simulator& sim) {
    for (int i = 0; i < 5; ++i) {
      sim.schedule_at((i + 1) * kMicrosecond, sim::EventFn([&sim, i, loc] {
        // Dynamic follow-ups: scheduled mid-run, ids interleave with the
        // seeded events.
        sim.schedule_in((i + 1) * kMicrosecond, [] {}, loc);
      }),
      loc);
    }
  };

  sim::Simulator serial;
  sim::ReplayRecorder serial_replay;
  serial_replay.attach(serial);
  seed_workload(serial);
  const std::uint64_t serial_ran = serial.run(sim::kMillisecond);

  // {shards, workers}; workers = 0 is auto, one lane per pool worker.
  const std::pair<std::size_t, std::size_t> engines[] = {
      {1, 1}, {2, 1}, {8, 1}, {8, 0}};
  for (const auto& [shards, workers] : engines) {
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " workers=" + std::to_string(workers));
    ShardedSimulator engine(shards, ShardedConfig{kLookahead, workers});
    ShardedReplay replay(engine);
    seed_workload(engine.shard(0));
    const std::uint64_t sharded_ran = engine.run(sim::kMillisecond);

    EXPECT_EQ(serial_ran, sharded_ran);
    ASSERT_EQ(replay.merged().size(), serial_replay.records().size());
    const auto merged = replay.merged();
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].when, serial_replay.records()[i].when);
      EXPECT_EQ(merged[i].id, serial_replay.records()[i].id);
      EXPECT_EQ(merged[i].site, serial_replay.records()[i].site);
      EXPECT_EQ(merged[i].shard, 0u);
    }
  }
}

TEST(ShardedSim, MergedHashIndependentOfWorkerCount) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const std::size_t zones = 8;
    const ShardMap map(zones, shards);
    std::uint64_t ticks_serial = 0;
    std::uint64_t ticks_parallel = 0;
    const std::uint64_t serial = run_mini(zones, map, shards, 1, &ticks_serial);
    const std::uint64_t parallel =
        run_mini(zones, map, shards, 0, &ticks_parallel);
    EXPECT_EQ(serial, parallel) << "shards=" << shards;
    EXPECT_EQ(ticks_serial, ticks_parallel) << "shards=" << shards;
    EXPECT_GT(ticks_serial, 0u);
  }
}

TEST(ShardedSim, MergedHashIndependentOfShardCount) {
  // Metamorphic: the same assignment run on engines with spare (empty)
  // shards yields the same canonical stream — shard *count* is not an input
  // to the hash, only the assignment is.
  const std::size_t zones = 6;
  const ShardMap map(zones, 3);  // zones -> shards 0..2 round-robin
  const std::uint64_t on3 = run_mini(zones, map, 3, 0);
  const std::uint64_t on8 = run_mini(zones, map, 8, 0);
  EXPECT_EQ(on3, on8);
}

TEST(ShardedSim, MergedHashChangesWithAssignment) {
  // Metamorphic counterpart: moving a domain to a different shard reroutes
  // its events to a different queue (different shard ids, different local
  // EventIds) and must change the merged hash.
  const std::size_t zones = 6;
  const ShardMap base(zones, 3);
  ShardMap moved(zones, 3);
  moved.reassign(0, 1);  // domain 0: shard 0 -> shard 1
  const std::uint64_t base_hash = run_mini(zones, base, 3, 0);
  const std::uint64_t moved_hash = run_mini(zones, moved, 3, 0);
  EXPECT_NE(base_hash, moved_hash);
}

TEST(ShardedSim, LookaheadBreachNamesShardPairAndTimes) {
  ShardedConfig cfg;
  cfg.lookahead = kLookahead;
  cfg.workers = 1;
  ShardedSimulator engine(2, cfg);
  engine.shard(0).schedule_at(kMicrosecond, sim::EventFn([&engine] {
    // Due "now" on the other shard — inside the current epoch, which the
    // lookahead contract forbids.
    engine.schedule_cross(0, 1, engine.shard(0).now(), [] {});
  }));
  try {
    engine.run(sim::kMillisecond);
    FAIL() << "expected a lookahead-contract breach";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("from shard 0 to shard 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lookahead"), std::string::npos) << msg;
    EXPECT_NE(msg.find("epoch ends"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sharded_sim_test.cpp"), std::string::npos) << msg;
  }
}

TEST(ShardedSim, CrossMailboxesDrainInCanonicalSourceOrder) {
  // Two sources mail the same destination for the same time; the message
  // from the lower source shard must get the lower target EventId and run
  // first, regardless of mailbox fill order (shard 2 mails before shard 1).
  ShardedSimulator engine(3, ShardedConfig{kLookahead, 1});
  std::vector<int> order;
  const SimTime when = 5 * kMicrosecond;
  engine.schedule_cross(2, 0, when, [&order] { order.push_back(2); });
  engine.schedule_cross(1, 0, when, [&order] { order.push_back(1); });
  EXPECT_EQ(engine.cross_messages(), 2u);
  engine.run(sim::kMillisecond);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(ShardedSim, SameShardCrossMessagesAreBarrierDeferred) {
  // from == to is legal and still goes through the mailbox, so a domain's
  // stream does not depend on whether its peer happens to share its shard.
  ShardedSimulator engine(2, ShardedConfig{kLookahead, 1});
  bool ran = false;
  engine.schedule_cross(0, 0, 3 * kMicrosecond, [&ran] { ran = true; });
  engine.run(sim::kMillisecond);
  EXPECT_TRUE(ran);
  EXPECT_EQ(engine.cross_messages(), 1u);
}

TEST(ShardedSim, RejectsNonPositiveLookaheadAndZeroShards) {
  EXPECT_THROW(ShardedSimulator(0, ShardedConfig{kLookahead, 1}),
               std::invalid_argument);
  EXPECT_THROW(ShardedSimulator(2, ShardedConfig{0, 1}),
               std::invalid_argument);
}

TEST(ShardedSim, ShardMapValidatesAndRoundRobins) {
  ShardMap map(10, 4);
  EXPECT_EQ(map.domains(), 10u);
  EXPECT_EQ(map.shards(), 4u);
  EXPECT_EQ(map.shard_of(0), 0u);
  EXPECT_EQ(map.shard_of(5), 1u);
  EXPECT_EQ(map.shard_of(7), 3u);
  EXPECT_THROW(map.shard_of(10), std::out_of_range);
  EXPECT_THROW(map.reassign(0, 4), std::out_of_range);
}

TEST(ShardedSim, LowestIndexedFailingShardIsRethrownAtAnyLaneCount) {
  // Shards 1 and 3 throw in the same epoch. Every shard still finishes the
  // epoch, the run stops at its barrier, and the error rethrown is shard
  // 1's whichever lane ran it — repeated, because a lane race would show as
  // an occasional "shard 3".
  for (const std::size_t workers : {1u, 0u}) {
    for (int rep = 0; rep < 10; ++rep) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " rep=" + std::to_string(rep));
      ShardedSimulator engine(4, ShardedConfig{kLookahead, workers});
      std::vector<int> ran(4, 0);
      for (ShardId s = 0; s < 4; ++s) {
        sim::Simulator& sh = engine.shard(s);
        sh.schedule_at(kMicrosecond, [&ran, s] {
          ++ran[s];
          if (s % 2 == 1) {
            throw std::runtime_error("shard " + std::to_string(s));
          }
        });
        sh.schedule_at(kMicrosecond + 1, [&ran, s] { ++ran[s]; });
        sh.schedule_at(5 * kLookahead, [&ran, s] { ++ran[s]; });
      }
      try {
        engine.run(sim::kMillisecond);
        FAIL() << "expected the shards' errors to surface";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "shard 1");
      }
      // The failing shards stopped at their throw; the others ran the whole
      // epoch; no shard reached the later epoch.
      EXPECT_EQ(ran, (std::vector<int>{2, 1, 2, 1}));
      EXPECT_EQ(engine.executed_events(), 4u);

      // The same engine runs on from the queues as the error left them.
      EXPECT_EQ(engine.run(sim::kMillisecond), 6u);
      EXPECT_EQ(ran, (std::vector<int>{3, 3, 3, 3}));
      EXPECT_TRUE(engine.idle());
    }
  }
}

TEST(ShardedSim, SplitRunMatchesOneRun) {
  // run(t1); run(t2) must stream exactly like run(t2). A metronome on shard
  // 0 ticks at every multiple of the lookahead, so epochs are [k, k + 1)
  // lookaheads long whatever else runs, and t1 closes epoch 2. In that
  // epoch shard 2 gets mail due after t1 from shard 1 (MiniZones' zone 1 at
  // 20 µs) and from shard 0 (the late message below). run(t1)'s closing
  // barrier must land both in shard 2's queue, in the same canonical order
  // the next epoch's lane would have used, or shard 2's ids differ.
  const sim::Site loc;
  const SimTime t1 = 3 * kLookahead - 1;
  const SimTime t2 = sim::kMillisecond;
  struct Outcome {
    std::uint64_t hash = 0;
    std::uint64_t events = 0;
    std::size_t pending_at_t1 = 0;
    bool late_ran = false;
  };
  for (const std::size_t workers : {1u, 0u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto run = [&](bool split, bool late) {
      ShardedSimulator engine(4, ShardedConfig{kLookahead, workers});
      ShardedReplay replay(engine);
      MiniZones zones(engine, ShardMap(8, 4));
      zones.start(12, loc);
      sim::Simulator& metronome = engine.shard(0);
      for (SimTime at = 0; at <= 10 * kLookahead; at += kLookahead) {
        metronome.schedule_at(at, [] {}, loc);
      }
      Outcome out;
      const auto send_late = [&engine, &out, loc, t1] {
        engine.schedule_cross(0, 2, t1 + kLookahead,
                              [&out] { out.late_ran = true; }, loc);
      };
      if (late) metronome.schedule_at(t1 - kMicrosecond, send_late, loc);
      if (split) {
        out.events += engine.run(t1);
        out.pending_at_t1 = engine.shard(2).pending_events();
        EXPECT_FALSE(engine.idle());
        EXPECT_FALSE(out.late_ran);
      }
      out.events += engine.run(t2);
      out.hash = replay.merged_hash();
      EXPECT_TRUE(engine.idle());
      return out;
    };
    const Outcome whole = run(false, true);
    const Outcome split = run(true, true);
    EXPECT_TRUE(whole.late_ran);
    EXPECT_TRUE(split.late_ran);
    EXPECT_EQ(split.hash, whole.hash);
    EXPECT_EQ(split.events, whole.events);
    EXPECT_EQ(split.pending_at_t1, run(true, false).pending_at_t1 + 1);
  }
}

TEST(ShardedSim, NestedAndConcurrentRunsGetLanesOfTheirOwn) {
  // Every run() starts and joins its own helper lanes, so a run started
  // while another is in progress — from an event on lane 0, or from a
  // second thread — runs on lanes of its own, with the same stream.
  const std::size_t zones = 8;
  const ShardMap map(zones, 4);
  const std::uint64_t expected = run_mini(zones, map, 4, 1);

  std::uint64_t nested = 0;
  ShardedSimulator outer(2, ShardedConfig{kLookahead, 0});
  outer.shard(0).schedule_at(kMicrosecond, sim::EventFn([&] {
    nested = run_mini(zones, map, 4, 0);
  }));
  outer.shard(1).schedule_at(kMicrosecond, [] {});
  outer.run(sim::kMillisecond);
  EXPECT_EQ(nested, expected);

  std::uint64_t side[2] = {0, 0};
  std::thread a([&] { side[0] = run_mini(zones, map, 4, 0); });
  std::thread b([&] { side[1] = run_mini(zones, map, 4, 0); });
  a.join();
  b.join();
  EXPECT_EQ(side[0], expected);
  EXPECT_EQ(side[1], expected);
}

TEST(ShardedSim, EpochsSkipDeadTime) {
  // Two event clusters a long gap apart: the epoch count must track the
  // clusters (a handful each), not gap / lookahead (which would be 100k).
  ShardedSimulator engine(2, ShardedConfig{kLookahead, 1});
  engine.shard(0).schedule_at(kMicrosecond, [] {});
  engine.shard(1).schedule_at(sim::kSecond, [] {});
  engine.run(2 * sim::kSecond);
  EXPECT_LE(engine.epochs(), 4u);
  EXPECT_EQ(engine.executed_events(), 2u);
}

TEST(ShardedSim, RunBetweenParallelForBatchesMatchesSerial) {
  // A run's lanes are its own threads, never pool workers: a batch's late
  // helpers cannot hold one back, and the next batch finds the whole pool.
  // Each batch index must still run once, and the run match workers = 1.
  const std::size_t zones = 8;
  const ShardMap map(zones, 4);
  const std::uint64_t serial = run_mini(zones, map, 4, 1);
  const auto batch = [] {
    std::vector<std::atomic<int>> hits(256);
    parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  };
  batch();
  EXPECT_EQ(run_mini(zones, map, 4, 0), serial);
  batch();
}

TEST(ShardedSim, ParallelForFromALaneZeroEventCompletes) {
  // Lane 0 is the calling thread, so an event there may fan out over the
  // pool: no pool worker is a lane, so the batch's helpers find free
  // workers while the other lanes wait at the barrier.
  ShardedSimulator engine(4, ShardedConfig{kLookahead, 0});
  std::atomic<std::uint64_t> sum{0};
  engine.shard(0).schedule_at(kMicrosecond, [&sum] {
    parallel_for(1000, [&sum](std::size_t i) { sum += i; });
  });
  for (ShardId s = 1; s < 4; ++s) {
    engine.shard(s).schedule_at(kMicrosecond, [] {});
  }
  EXPECT_EQ(engine.run(sim::kMillisecond), 4u);
  EXPECT_EQ(sum.load(), 999u * 1000u / 2u);
}

}  // namespace
