// Macro-scale throughput of the sharded epoch engine (docs/parallel-engine.md).
//
// Drives core::ScaleScenario — a Spider II-shaped population of client zones
// with FGR cross-zone traffic — at 1x/4x/16x center scale, once on a serial
// schedule (workers=1) and once with the epoch fan-out enabled (workers=auto),
// both hosted on the same 8-shard engine and zone->shard map. Because the
// merged replay stream is worker-count invariant, the two runs are the same
// workload by construction and the bench checks their hashes in-run; the
// events/sec ratio is therefore a true parallel speedup, not two different
// simulations.
//
// Flags and gate: bench::GatedRun. The report defaults to BENCH_scale.json;
// ci/bench-baseline-scale.json gates serial-schedule events/sec.
//
// The >=2x speedup claim is only assertable where >=4 epoch lanes exist
// (shared_pool().size() + 1 >= 4) and the run is not a smoke run; on narrower
// machines the ratio is reported but not gated, so single-core CI stays green
// while a real parallel collapse still fails where it can be seen.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "core/scale_scenario.hpp"
#include "net/fabric.hpp"
#include "sim/sharded_sim.hpp"
#include "sim/time.hpp"

namespace {

using namespace spider;

constexpr std::size_t kShards = 8;

struct ScaleRunConfig {
  std::vector<double> scales{1.0, 4.0, 16.0};
  std::size_t clients_per_zone = 16;
  sim::SimTime horizon = 2 * sim::kSecond;
};

ScaleRunConfig smoke_config() {
  ScaleRunConfig cfg;
  cfg.clients_per_zone = 8;
  cfg.horizon = 1 * sim::kSecond;
  return cfg;
}

struct ScaleRun {
  double events_per_sec = 0.0;
  double events = 0.0;
  double elapsed_s = 0.0;
  std::uint64_t merged_hash = 0;
  std::uint64_t completed = 0;
};

core::ScaleParams scale_params(const ScaleRunConfig& cfg, double scale) {
  core::ScaleParams params;
  params.clients_per_zone = cfg.clients_per_zone;
  params.scale = scale;
  return params;
}

/// One scenario run on `shards` shards with the given zone->shard map and
/// worker budget; wall time covers engine.run only (construction excluded).
ScaleRun run_scale(const ScaleRunConfig& cfg, double scale, std::size_t shards,
                   const sim::ShardMap& map, std::size_t workers) {
  const core::ScaleParams params = scale_params(cfg, scale);
  const net::IbFabric fabric{net::FabricParams{}};
  sim::ShardedConfig engine_cfg;
  engine_cfg.lookahead = core::ScaleScenario::required_lookahead(fabric, params);
  engine_cfg.workers = workers;
  sim::ShardedSimulator engine(shards, engine_cfg);
  sim::ShardedReplay replay(engine);
  core::ScaleScenario scenario(params, fabric, engine, map);
  scenario.start();

  const bench::Clock::time_point start = bench::Clock::now();
  const std::uint64_t ran = engine.run(cfg.horizon);
  ScaleRun out;
  out.elapsed_s = bench::seconds_since(start);
  out.events = static_cast<double>(ran);
  out.events_per_sec = out.elapsed_s > 0.0 ? out.events / out.elapsed_s : 0.0;
  out.merged_hash = replay.merged_hash();
  out.completed = scenario.totals().completed;
  return out;
}

int run_bench(bench::GatedRun& run) {
  const bool smoke = run.smoke();
  const ScaleRunConfig cfg = smoke ? smoke_config() : ScaleRunConfig{};
  const std::size_t lanes = std::min(kShards, shared_pool().size() + 1);

  bench::banner("macro-scale engine throughput (events/sec)");
  std::printf("  shards=%zu, epoch lanes available=%zu, horizon=%.3fs\n",
              kShards, lanes,
              static_cast<double>(cfg.horizon) / 1e9);

  bench::JsonReport& report = run.report();
  bench::ShapeChecker& checker = run.checker();

  const auto add = [&report](const std::string& name, const ScaleRun& r) {
    report.add(name, "events_per_sec", r.events_per_sec);
    report.add(name, "events", r.events);
    report.add(name, "elapsed_s", r.elapsed_s);
    std::printf("  %-14s %12.0f events/sec  (%.0f events in %.3fs)\n",
                name.c_str(), r.events_per_sec, r.events, r.elapsed_s);
  };

  // Epoch-machinery overhead reference: the same 1x workload collapsed onto
  // one shard (one EventQueue, one epoch lane) — the closest thing to the
  // plain serial Simulator that can host cross-zone traffic.
  {
    const core::ScaleParams params = scale_params(cfg, 1.0);
    const sim::ShardMap map1(params.zones, 1);
    const ScaleRun single = run_scale(cfg, 1.0, 1, map1, 1);
    add("single_shard_1x", single);
    checker.check(single.events > 0, "single-shard run made forward progress");
    run.gate("single_shard_1x", "events_per_sec", single.events_per_sec);
  }

  for (const double scale : cfg.scales) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "%.0fx", scale);
    const core::ScaleParams params = scale_params(cfg, scale);
    const sim::ShardMap map(params.zones, kShards);

    const ScaleRun serial = run_scale(cfg, scale, kShards, map, 1);
    const ScaleRun sharded = run_scale(cfg, scale, kShards, map, 0);
    add(std::string("serial_") + suffix, serial);
    add(std::string("sharded_") + suffix, sharded);

    checker.check(serial.events > 0 && sharded.events > 0,
                  std::string(suffix) + ": both schedules made progress");
    // The determinism bar, in-run: same map, same workload, different worker
    // budget — the merged replay streams must agree or the speedup below
    // would compare two different simulations.
    char hash_label[160];
    std::snprintf(hash_label, sizeof(hash_label),
                  "%s: sharded merged hash matches serial (0x%016llx)", suffix,
                  static_cast<unsigned long long>(serial.merged_hash));
    checker.check(serial.merged_hash == sharded.merged_hash &&
                      serial.completed == sharded.completed,
                  hash_label);

    const double speedup = serial.events_per_sec > 0.0
                               ? sharded.events_per_sec / serial.events_per_sec
                               : 0.0;
    report.add(std::string("speedup_") + suffix, "vs_serial", speedup);
    std::printf("  %-14s %12.2fx parallel speedup\n", suffix, speedup);
    // The >=2x acceptance claim, gated only where it is measurable.
    if (scale >= 16.0) {
      if (lanes >= 4 && !smoke) {
        char label[128];
        std::snprintf(label, sizeof(label),
                      "16x: sharded >= 2x serial events/sec (got %.2fx)",
                      speedup);
        checker.check(speedup >= 2.0, label);
      } else {
        std::printf(
            "  [SKIP] 16x speedup gate: needs >=4 epoch lanes and full mode "
            "(lanes=%zu, %s)\n",
            lanes, smoke ? "smoke" : "full");
      }
    }

    // Only the serial schedule is gated against the checked-in baseline: its
    // throughput is machine-width independent, so the gate floor means the
    // same thing everywhere. Sharded throughput is reported (and its >=2x
    // speedup asserted above where measurable) but not baseline-gated —
    // barrier overhead varies with lane count.
    run.gate(std::string("serial_") + suffix, "events_per_sec",
             serial.events_per_sec);
  }
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  bench::GatedRun run("macro_scale", "BENCH_scale.json");
  if (const int rc = run.parse(argc, argv)) return rc;
  return run_bench(run);
}
