// Microbenchmarks of the simulation engine itself (google-benchmark).
//
// These guard the performance properties the reproduction relies on: the
// max-min solver must handle full Spider II scale (18,688 flows over ~70k
// resources) in well under a second per solve, and the event queue must
// sustain millions of schedule/pop cycles for DES scenarios.
//
// Two modes:
//   (default)              google-benchmark suite, usual benchmark flags.
//   --spider-json=PATH     hand-rolled engine throughput loops (see
//                          engine_measure.hpp) under bench::GatedRun, which
//                          also takes --smoke and --baseline=FILE; other
//                          flags go to google-benchmark.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/center.hpp"
#include "core/spider_config.hpp"
#include "engine_measure.hpp"
#include "net/torus.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "workload/ior.hpp"

namespace {

using namespace spider;

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.schedule(static_cast<sim::SimTime>(rng.uniform_index(1000000)), [] {});
    }
    while (!q.empty()) q.pop();
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

// Task vs std::function for the hot dispatch capture shape: 24 bytes fits
// Task's 48-byte inline buffer but exceeds libstdc++ std::function's 16-byte
// one, so the std::function variant heap-allocates per callable.
void BM_TaskRoundTrip24ByteCapture(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t a = 1, b = 2, c = 3;
  for (auto _ : state) {
    sim::Task t([&sink, a, b, c] { sink += a + b + c; });
    t();
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_TaskRoundTrip24ByteCapture);

void BM_StdFunctionRoundTrip24ByteCapture(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t a = 1, b = 2, c = 3;
  for (auto _ : state) {
    std::function<void()> t([&sink, a, b, c] { sink += a + b + c; });
    t();
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_StdFunctionRoundTrip24ByteCapture);

void BM_EventQueueScheduleCancelChurn(benchmark::State& state) {
  sim::EventQueue q;
  q.schedule(1, [] {});  // live anchor so the queue never empties
  for (auto _ : state) {
    const sim::EventHandle event = q.schedule(1'000'000, [] {});
    q.cancel(event);
    benchmark::DoNotOptimize(event);
  }
}
BENCHMARK(BM_EventQueueScheduleCancelChurn);

void BM_TorusRoute(benchmark::State& state) {
  net::Torus3D torus({25, 16, 24});
  Rng rng(3);
  for (auto _ : state) {
    const auto from = static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(torus.num_nodes())));
    const auto to = static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(torus.num_nodes())));
    benchmark::DoNotOptimize(torus.route(from, to));
  }
}
BENCHMARK(BM_TorusRoute);

void BM_SolveMaxMin(benchmark::State& state) {
  const auto flows_n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const std::size_t nr = 2000;
  std::vector<double> cap(nr);
  for (auto& c : cap) c = rng.uniform(1e8, 1e9);
  std::vector<std::vector<sim::PathHop>> paths(flows_n);
  std::vector<sim::SolverFlow> flows;
  for (auto& p : paths) {
    for (int h = 0; h < 8; ++h) {
      p.push_back({static_cast<sim::ResourceId>(rng.uniform_index(nr)), 1.0});
    }
  }
  for (const auto& p : paths) flows.push_back({p, 6e8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::solve_max_min(cap, flows));
  }
}
BENCHMARK(BM_SolveMaxMin)->Arg(512)->Arg(4096)->Arg(16384);

void BM_FullSpiderIorSolve(benchmark::State& state) {
  Rng rng(5);
  core::CenterModel center(core::spider2_config(), rng);
  center.set_target_namespace(0);
  center.set_client_placement(core::ClientPlacement::kRandom, rng);
  workload::IorConfig cfg;
  cfg.clients = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::run_ior(center, cfg));
  }
}
BENCHMARK(BM_FullSpiderIorSolve)->Arg(1008)->Arg(8192)->Unit(benchmark::kMillisecond);

void BM_CenterConstruction(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(6);
    core::CenterModel center(core::spider2_config(), rng);
    benchmark::DoNotOptimize(center.total_osts());
  }
}
BENCHMARK(BM_CenterConstruction)->Unit(benchmark::kMillisecond);

// --- --spider-json mode ------------------------------------------------------

struct EngineRunConfig {
  std::size_t dispatch_events = 20000;
  std::size_t dispatch_rounds = 60;
  std::size_t cancel_pairs = 50000;
  std::size_t cancel_rounds = 40;
  std::size_t observed_events = 20000;
  std::size_t observed_rounds = 40;
  std::size_t batches = 2000;
  std::size_t tasks_per_batch = 64;
  std::size_t batch_threads = 4;
};

EngineRunConfig smoke_config() {
  EngineRunConfig cfg;
  cfg.dispatch_rounds = 10;
  cfg.cancel_rounds = 6;
  cfg.observed_rounds = 6;
  cfg.batches = 300;
  return cfg;
}

/// Run the hand-rolled loops, report them, and shape-check and gate the
/// result.
int run_spider_json(spider::bench::GatedRun& run) {
  using spider::bench::Measurement;
  const EngineRunConfig cfg = run.smoke() ? smoke_config() : EngineRunConfig{};

  spider::bench::banner("engine throughput (events/sec)");
  const Measurement dispatch = spider::bench::measure_schedule_dispatch(
      cfg.dispatch_events, cfg.dispatch_rounds);
  const Measurement cancel = spider::bench::measure_schedule_cancel(
      cfg.cancel_pairs, cfg.cancel_rounds);
  const Measurement observed = spider::bench::measure_observed_dispatch(
      cfg.observed_events, cfg.observed_rounds);
  const Measurement batches = spider::bench::measure_parallel_batches(
      cfg.batches, cfg.tasks_per_batch, cfg.batch_threads);

  spider::bench::JsonReport& report = run.report();
  const auto add = [&report](const char* name, const Measurement& m) {
    report.add(name, "ops_per_sec", m.ops_per_sec);
    report.add(name, "ops", static_cast<double>(m.ops));
    report.add(name, "elapsed_s", m.elapsed_s);
    std::printf("  %-18s %12.0f ops/sec  (%llu ops in %.3fs)\n", name,
                m.ops_per_sec, static_cast<unsigned long long>(m.ops),
                m.elapsed_s);
  };
  add("schedule_dispatch", dispatch);
  add("schedule_cancel", cancel);
  add("observed_dispatch", observed);
  add("parallel_batches", batches);

  spider::bench::ShapeChecker& checker = run.checker();
  checker.check(dispatch.ops_per_sec > 0 && cancel.ops_per_sec > 0 &&
                    observed.ops_per_sec > 0 && batches.ops_per_sec > 0,
                "all engine loops made forward progress");
  // Cancel never dispatches, so a schedule+cancel pair must beat a full
  // schedule+dispatch cycle; inversion means cancel went accidentally
  // expensive (e.g. eager heap rebuilds per cancel).
  checker.check(cancel.ops_per_sec > dispatch.ops_per_sec,
                "schedule+cancel churn outpaces full dispatch");

  run.gate("schedule_dispatch", "ops_per_sec", dispatch.ops_per_sec);
  run.gate("schedule_cancel", "ops_per_sec", cancel.ops_per_sec);
  run.gate("observed_dispatch", "ops_per_sec", observed.ops_per_sec);
  run.gate("parallel_batches", "ops_per_sec", batches.ops_per_sec);
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  spider::bench::GatedRun run("engine_micro", "");
  std::vector<char*> passthrough{argv[0]};
  if (const int rc = run.parse(argc, argv, &passthrough)) return rc;
  if (!run.json_path().empty()) return run_spider_json(run);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
