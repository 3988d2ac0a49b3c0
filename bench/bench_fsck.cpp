// spiderfsck scan throughput over namespace size (docs/fsck.md).
//
// Builds synthetic namespaces of increasing file count, times repeated dry
// fsck passes (phase-1 scan + phase-2 cross-reference) and reports
// slots/sec as `serial_<N>`. A corrupt -> repair -> re-check convergence
// pass runs once per size as a shape check (repair wall time is reported,
// not gated).
//
// Flags and gate: bench::GatedRun. The report defaults to BENCH_fsck.json;
// ci/bench-baseline-fsck.json gates serial slots/sec.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "tools/spiderfsck/fsck.hpp"

namespace {

using namespace spider;

struct FsckRunConfig {
  std::vector<std::size_t> sizes{4096, 16384, 65536};
  std::size_t target_slots = 1 << 19;  ///< reps sized so each point scans this
};

// Smoke keeps a subset of the full-mode sizes (same report names, so the
// checked-in full-mode baseline still gates it) and scans fewer total slots.
FsckRunConfig smoke_config() {
  FsckRunConfig cfg;
  cfg.sizes = {4096, 16384};
  cfg.target_slots = 1 << 16;
  return cfg;
}

struct FsckRun {
  double slots_per_sec = 0.0;
  double elapsed_s = 0.0;
  std::size_t reps = 0;
};

/// Time `reps` dry fsck passes over one tree. Dry runs never mutate, so
/// every rep sees the same namespace. `slots` is the actual slot count
/// (creates can fall short of the requested file count when the cluster
/// fills).
FsckRun run_point(tools::SyntheticFs& fs, std::size_t slots, std::size_t reps) {
  FsckRun out;
  out.reps = reps;
  const bench::Clock::time_point start = bench::Clock::now();
  for (std::size_t r = 0; r < reps; ++r) tools::run_fsck(fs.target());
  out.elapsed_s = bench::seconds_since(start);
  const double scanned =
      static_cast<double>(slots) * static_cast<double>(reps);
  out.slots_per_sec = out.elapsed_s > 0.0 ? scanned / out.elapsed_s : 0.0;
  return out;
}

int run_bench(bench::GatedRun& run) {
  const FsckRunConfig cfg = run.smoke() ? smoke_config() : FsckRunConfig{};

  bench::banner("spiderfsck scan throughput (slots/sec)");

  bench::JsonReport& report = run.report();
  bench::ShapeChecker& checker = run.checker();

  const auto add = [&report](const std::string& name, const FsckRun& r) {
    report.add(name, "slots_per_sec", r.slots_per_sec);
    report.add(name, "elapsed_s", r.elapsed_s);
    report.add(name, "reps", static_cast<double>(r.reps));
    std::printf("  %-16s %12.0f slots/sec  (%zu reps in %.3fs)\n",
                name.c_str(), r.slots_per_sec, r.reps, r.elapsed_s);
  };

  for (const std::size_t files : cfg.sizes) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "%zu", files);
    tools::SyntheticFsConfig fs_cfg;
    fs_cfg.files = files;
    fs_cfg.churn = 0.25;
    tools::SyntheticFs fs = tools::make_synthetic_fs(fs_cfg);
    const std::size_t slots = fs.ns->slot_count();
    checker.check(slots > 0, std::string(suffix) + " files: tree built");
    const std::size_t reps =
        cfg.target_slots >= slots ? cfg.target_slots / slots : 1;

    const FsckRun serial = run_point(fs, slots, reps);
    add(std::string("serial_") + suffix, serial);

    // Corrupt -> repair -> re-check convergence, once per size. Repair wall
    // time is reported for trajectory watching; only convergence is gated.
    {
      Rng rng(2014 + files);
      for (const tools::FindingKind kind : tools::kAllFindingKinds) {
        tools::inject_corruption(fs.target(), kind, rng);
      }
      tools::FsckOptions repair_opts;
      repair_opts.repair = true;
      const bench::Clock::time_point start = bench::Clock::now();
      const tools::FsckReport repaired =
          tools::run_fsck(fs.target(), repair_opts);
      const double repair_s = bench::seconds_since(start);
      report.add(std::string("repair_") + suffix, "elapsed_s", repair_s);
      report.add(std::string("repair_") + suffix, "findings",
                 static_cast<double>(repaired.findings.size()));
      const bool converged = tools::run_fsck(fs.target()).clean();
      char label[96];
      std::snprintf(label, sizeof(label),
                    "%s files: corrupt tree repaired in one pass (%.3fs)",
                    suffix, repair_s);
      checker.check(!repaired.clean() && converged, label);
    }

    run.gate(std::string("serial_") + suffix, "slots_per_sec",
             serial.slots_per_sec);
  }
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  bench::GatedRun run("fsck", "BENCH_fsck.json");
  if (const int rc = run.parse(argc, argv)) return rc;
  return run_bench(run);
}
