// spiderlint whole-tree wall time (docs/static-analysis.md).
//
// Lints the repo's own src/, tests/, and bench/ trees cold — read, scan,
// tokenize, per-file rules, and the project-wide L5 include graph — and
// reports files/sec plus the per-phase split the CLI prints under --stats.
//
// Flags and gate: bench::GatedRun. The report defaults to BENCH_lint.json;
// ci/bench-baseline-lint.json gates serial files/sec.
#include <cstdio>
#include <string>
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

struct LintRun {
  double files_per_sec = 0.0;
  double elapsed_s = 0.0;
  std::size_t files = 0;
  std::size_t findings = 0;
  double scan_ms = 0.0;
  double rules_ms = 0.0;
  double global_ms = 0.0;
};

/// Time `reps` cold lints of the whole tree. Every rep re-reads and
/// re-scans from disk, so the phase split reflects what
/// `spiderlint --stats` would print.
LintRun run_point(const std::vector<std::string>& paths, std::size_t reps) {
  const LintOptions opts;
  LintRun out;
  LintReport last;
  const bench::Clock::time_point start = bench::Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    std::vector<std::string> errors;
    last = lint_paths(paths, opts, errors);
  }
  out.elapsed_s = bench::seconds_since(start);
  out.files = last.files_scanned;
  out.findings = last.findings.size();
  out.scan_ms = last.scan_ms;
  out.rules_ms = last.rules_ms;
  out.global_ms = last.global_ms;
  const double scanned = static_cast<double>(out.files) *
                         static_cast<double>(reps);
  out.files_per_sec = out.elapsed_s > 0.0 ? scanned / out.elapsed_s : 0.0;
  return out;
}

int run_bench(bench::GatedRun& run) {
  const std::size_t reps = run.smoke() ? 1 : 3;
  const std::string root = SPIDER_LINT_TREE_ROOT;
  const std::vector<std::string> paths{root + "/src", root + "/tests",
                                       root + "/bench"};

  bench::banner("spiderlint whole-tree wall time (files/sec)");

  bench::JsonReport& report = run.report();
  bench::ShapeChecker& checker = run.checker();

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

  const LintRun serial = run_point(paths, reps);
  add("serial", serial);

  checker.check(serial.files > 0, "tree walked: files scanned > 0");

  run.gate("serial", "files_per_sec", serial.files_per_sec);
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  bench::GatedRun run("lint", "BENCH_lint.json");
  if (const int rc = run.parse(argc, argv)) return rc;
  return run_bench(run);
}
