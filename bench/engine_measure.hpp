// Hand-rolled engine microbenchmark loops shared by bench_micro_engine's
// --spider-json mode and by before/after comparisons against older builds.
//
// Everything here uses only the stable public engine API (schedule_in / run /
// cancel / ReplayRecorder::attach / parallel_for), so the exact same loops
// can be compiled against two library revisions and the resulting
// events-per-second numbers compared apples to apples. Besides those engine
// headers it includes only bench_util.hpp, which needs nothing but the
// standard library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "sim/event_queue.hpp"
#include "sim/replay.hpp"
#include "sim/simulator.hpp"

namespace spider::bench {

/// One measured metric: operations per wall-clock second plus the raw count.
struct Measurement {
  double ops_per_sec = 0.0;
  std::uint64_t ops = 0;
  double elapsed_s = 0.0;
};

/// `ops` operations timed from `start` until now.
inline Measurement measured(std::uint64_t ops, Clock::time_point start) {
  Measurement m;
  m.ops = ops;
  m.elapsed_s = seconds_since(start);
  m.ops_per_sec = static_cast<double>(m.ops) / m.elapsed_s;
  return m;
}

/// schedule_in -> run dispatch throughput. Each event carries a 24-byte
/// capture — representative of the flow-network and campaign callbacks that
/// capture an object pointer plus a couple of ids — which is beyond the
/// 16-byte inline buffer of libstdc++'s std::function, so the pre-Task
/// engine pays one heap allocation per event here.
inline Measurement measure_schedule_dispatch(std::size_t events_per_round,
                                             std::size_t rounds) {
  sim::Simulator sim;
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  std::uint64_t dispatched = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < events_per_round; ++i) {
      const std::uint64_t a = i;
      const std::uint64_t b = i ^ 0x9e3779b97f4a7c15ull;
      sim.schedule_in(static_cast<sim::SimTime>(i % 997) + 1,
                      [&sink, a, b] { sink += a ^ b; });
    }
    dispatched += sim.run();
  }
  return measured(dispatched + (sink & 1), start);  // keep `sink` observable
}

/// schedule -> cancel churn on the raw queue: the flow network's
/// reschedule-on-every-arrival pattern. One op = one schedule + one cancel.
inline Measurement measure_schedule_cancel(std::size_t pairs_per_round,
                                           std::size_t rounds) {
  sim::EventQueue q;
  // One live far-future anchor so the queue is never empty.
  q.schedule(1, [] {});
  std::vector<sim::EventHandle> events(pairs_per_round);
  const auto start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < pairs_per_round; ++i) {
      events[i] = q.schedule(static_cast<sim::SimTime>(1'000'000 + i), [] {});
    }
    for (std::size_t i = 0; i < pairs_per_round; ++i) q.cancel(events[i]);
  }
  return measured(static_cast<std::uint64_t>(pairs_per_round) * rounds, start);
}

/// Dispatch throughput with a ReplayRecorder observing every event — what a
/// replay-verified campaign run actually pays per event.
inline Measurement measure_observed_dispatch(std::size_t events_per_round,
                                             std::size_t rounds) {
  std::uint64_t dispatched = 0;
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    sim::Simulator sim;
    sim::ReplayRecorder recorder;
    recorder.attach(sim);
    for (std::size_t i = 0; i < events_per_round; ++i) {
      const std::uint64_t a = i;
      sim.schedule_in(static_cast<sim::SimTime>(i % 997) + 1,
                      [&sink, a] { sink += a; });
    }
    dispatched += sim.run();
  }
  return measured(dispatched + (sink & 1), start);
}

/// parallel_for fan-out latency: many small batches, the sweep-bench shape.
/// One op = one batch of `tasks_per_batch` trivial iterations; pre-pool this
/// paid `threads` thread spawns per batch.
inline Measurement measure_parallel_batches(std::size_t batches,
                                            std::size_t tasks_per_batch,
                                            std::size_t threads) {
  std::vector<std::uint64_t> out(tasks_per_batch, 0);
  const auto start = Clock::now();
  for (std::size_t b = 0; b < batches; ++b) {
    parallel_for(
        tasks_per_batch,
        [&out, b](std::size_t i) { out[i] += b ^ i; },
        threads);
  }
  return measured(batches, start);
}

}  // namespace spider::bench
