// spiderlint whole-tree wall time (docs/static-analysis.md).
//
// Lints the repo's own src/, tests/, and bench/ trees cold — read, scan,
// tokenize, per-file rules, and the project-wide L5 include graph — once
// serially (--jobs=1) and once fanned out over the shared pool (--jobs=0,
// one worker per hardware thread), and reports files/sec plus the per-phase
// split the CLI prints under --stats. Because lint output is worker-count
// invariant by construction, the bench checks in-run that the parallel pass
// renders byte-identical JSON to the serial pass — the speedup compares the
// same analysis, not two different ones.
//
// Modes (mirrors bench_fsck):
//   --spider-json=PATH   write the machine-readable report (BENCH_lint.json)
//   --baseline=FILE      gate serial files/sec against a checked-in report
//                        (ci/bench-baseline-lint.json) at a 0.60x noise floor
//   --smoke              seconds-long run sized for CI
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "tools/lint/lint.hpp"
#include "tools/lint/report.hpp"

#ifndef SPIDER_LINT_TREE_ROOT
#define SPIDER_LINT_TREE_ROOT "."
#endif

namespace {

using namespace spider::lint;
namespace bench = spider::bench;

using Clock = std::chrono::steady_clock;  // spiderlint: nondet-ok

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct LintRun {
  double files_per_sec = 0.0;
  double elapsed_s = 0.0;
  std::size_t files = 0;
  std::size_t findings = 0;
  double scan_ms = 0.0;
  double rules_ms = 0.0;
  double global_ms = 0.0;
  std::string json;
};

/// Time `reps` cold lints of the whole tree at the given fan-out. Every rep
/// re-reads and re-scans from disk, so the runs are comparable and the
/// phase split reflects what `spiderlint --stats` would print.
LintRun run_point(const std::vector<std::string>& paths, std::size_t reps,
                  std::size_t jobs) {
  LintOptions opts;
  opts.jobs = jobs;
  LintRun out;
  LintReport last;
  const Clock::time_point start = Clock::now();  // spiderlint: nondet-ok
  for (std::size_t r = 0; r < reps; ++r) {
    std::vector<std::string> errors;
    last = lint_paths(paths, opts, errors);
  }
  out.elapsed_s = seconds_since(start);
  out.files = last.files_scanned;
  out.findings = last.findings.size();
  out.scan_ms = last.scan_ms;
  out.rules_ms = last.rules_ms;
  out.global_ms = last.global_ms;
  const double scanned = static_cast<double>(out.files) *
                         static_cast<double>(reps);
  out.files_per_sec = out.elapsed_s > 0.0 ? scanned / out.elapsed_s : 0.0;
  out.json = render_json(last);
  return out;
}

int run_bench(const std::string& json_path, const std::string& baseline_path,
              bool smoke) {
  const std::size_t reps = smoke ? 1 : 3;
  const std::string root = SPIDER_LINT_TREE_ROOT;
  const std::vector<std::string> paths{root + "/src", root + "/tests",
                                       root + "/bench"};

  bench::banner("spiderlint whole-tree wall time (files/sec)");

  bench::JsonReport report("lint", smoke ? "smoke" : "full");
  bench::ShapeChecker checker;

  std::string baseline_text;
  if (!baseline_path.empty() &&
      !bench::read_text_file(baseline_path, baseline_text)) {
    std::fprintf(stderr, "bench: cannot read baseline '%s'\n",
                 baseline_path.c_str());
    return 1;
  }

  const auto add = [&report](const std::string& name, const LintRun& r) {
    report.add(name, "files_per_sec", r.files_per_sec);
    report.add(name, "elapsed_s", r.elapsed_s);
    report.add(name, "files", static_cast<double>(r.files));
    report.add(name, "scan_ms", r.scan_ms);
    report.add(name, "rules_ms", r.rules_ms);
    report.add(name, "global_ms", r.global_ms);
    std::printf("  %-10s %10.0f files/sec  (%zu files, %zu findings, "
                "scan %.0fms rules %.0fms global %.0fms)\n",
                name.c_str(), r.files_per_sec, r.files, r.findings,
                r.scan_ms, r.rules_ms, r.global_ms);
  };

  const LintRun serial = run_point(paths, reps, /*jobs=*/1);
  const LintRun parallel = run_point(paths, reps, /*jobs=*/0);
  add("serial", serial);
  add("parallel", parallel);

  checker.check(serial.files > 0, "tree walked: files scanned > 0");

  // The determinism bar, in-run: the fanned-out lint must render the same
  // bytes as the serial one or the speedup compares two different checks.
  checker.check(serial.json == parallel.json,
                "parallel JSON byte-identical to serial");

  const double speedup = serial.files_per_sec > 0.0
                             ? parallel.files_per_sec / serial.files_per_sec
                             : 0.0;
  report.add("speedup", "vs_serial", speedup);
  std::printf("  %-10s %10.2fx parallel speedup\n", "speedup", speedup);

  if (!baseline_text.empty()) {
    double base = 0.0;
    if (!bench::json_number(baseline_text, "serial", "files_per_sec", base)) {
      checker.check(false, "serial: baseline entry present");
    } else {
      const double ratio = base > 0.0 ? serial.files_per_sec / base : 0.0;
      report.add("serial", "baseline_files_per_sec", base);
      report.add("serial", "vs_baseline", ratio);
      char label[160];
      std::snprintf(label, sizeof(label),
                    "serial: %.2fx of baseline %.0f files/sec (floor 0.60x)",
                    ratio, base);
      checker.check(ratio >= 0.6, label);
    }
  }

  if (!json_path.empty()) {
    if (!report.write_file(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return checker.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_lint.json";
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
