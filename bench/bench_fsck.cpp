// spiderfsck scan throughput over namespace size (docs/fsck.md).
//
// Builds synthetic namespaces of increasing file count, times repeated dry
// fsck passes (phase-1 scan + phase-2 cross-reference) and reports
// slots/sec as `serial_<N>`. A corrupt -> repair -> re-check convergence
// pass runs once per size as a shape check (repair wall time is reported,
// not gated).
//
// Modes (mirrors bench_macro_scale):
//   --spider-json=PATH   write the machine-readable report (BENCH_fsck.json)
//   --baseline=FILE      gate serial slots/sec against a checked-in report
//                        (ci/bench-baseline-fsck.json) at a 0.60x noise floor
//   --smoke              seconds-long run sized for CI
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "tools/spiderfsck/fsck.hpp"

namespace {

using namespace spider;

using Clock = std::chrono::steady_clock;  // spiderlint: nondet-ok

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

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
  const Clock::time_point start = Clock::now();  // spiderlint: nondet-ok
  for (std::size_t r = 0; r < reps; ++r) tools::run_fsck(fs.target());
  out.elapsed_s = seconds_since(start);
  const double scanned =
      static_cast<double>(slots) * static_cast<double>(reps);
  out.slots_per_sec = out.elapsed_s > 0.0 ? scanned / out.elapsed_s : 0.0;
  return out;
}

int run_bench(const std::string& json_path, const std::string& baseline_path,
              bool smoke) {
  const FsckRunConfig cfg = smoke ? smoke_config() : FsckRunConfig{};

  bench::banner("spiderfsck scan throughput (slots/sec)");

  bench::JsonReport report("fsck", smoke ? "smoke" : "full");
  bench::ShapeChecker checker;

  std::string baseline_text;
  if (!baseline_path.empty() &&
      !bench::read_text_file(baseline_path, baseline_text)) {
    std::fprintf(stderr, "bench: cannot read baseline '%s'\n",
                 baseline_path.c_str());
    return 1;
  }

  const auto add = [&report](const std::string& name, const FsckRun& r) {
    report.add(name, "slots_per_sec", r.slots_per_sec);
    report.add(name, "elapsed_s", r.elapsed_s);
    report.add(name, "reps", static_cast<double>(r.reps));
    std::printf("  %-16s %12.0f slots/sec  (%zu reps in %.3fs)\n",
                name.c_str(), r.slots_per_sec, r.reps, r.elapsed_s);
  };
  const auto gate = [&](const std::string& name, const FsckRun& r) {
    if (baseline_text.empty()) return;
    double base = 0.0;
    if (!bench::json_number(baseline_text, name, "slots_per_sec", base)) {
      checker.check(false, name + ": baseline entry present");
      return;
    }
    const double ratio = base > 0.0 ? r.slots_per_sec / base : 0.0;
    report.add(name, "baseline_slots_per_sec", base);
    report.add(name, "vs_baseline", ratio);
    char label[160];
    std::snprintf(label, sizeof(label),
                  "%s: %.2fx of baseline %.0f slots/sec (floor 0.60x)",
                  name.c_str(), ratio, base);
    checker.check(ratio >= 0.6, label);
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
      const Clock::time_point start = Clock::now();  // spiderlint: nondet-ok
      const tools::FsckReport repaired =
          tools::run_fsck(fs.target(), repair_opts);
      const double repair_s = seconds_since(start);
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

    gate(std::string("serial_") + suffix, serial);
  }

  if (!json_path.empty()) {
    if (!report.write_file(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return checker.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_fsck.json";
  std::string baseline_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--spider-json=")) {
      json_path = std::string(arg.substr(14));
    } else if (arg.starts_with("--baseline=")) {
      baseline_path = std::string(arg.substr(11));
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--spider-json=PATH] [--baseline=FILE] "
                   "[--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  return run_bench(json_path, baseline_path, smoke);
}
