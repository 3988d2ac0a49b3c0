// spiderlint CLI — determinism & unit-safety static analysis for spiderpfs.
//
// Usage: spiderlint [options] <path>...
//   --format=text|sarif  output format (default text)
//   --fix-hints          include fix-it hints and a per-rule digest (text)
//   --stats              print `spiderlint-stats: files=N findings=N
//                        wall_ms=N scan_ms=N rules_ms=N global_ms=N` to
//                        stderr (CI surfaces it in the job summary;
//                        global_ms times the L5 include-graph pass)
//   --treat-as=CLASS     force file classification: sim-critical, src,
//                        header, calib (repeatable; for linting fixtures
//                        that live outside src/)
//   --list-rules         print the rule table and exit
//
// A finding is excused only by a suppression comment where it occurs
// (`// spiderlint: <token> — <reason>`, docs/static-analysis.md).
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lint/lint.hpp"

namespace {

void print_rule_table() {
  for (const spider::lint::RuleInfo& r : spider::lint::rules()) {
    std::printf("%s %-20s %-7s %s\n    suppress: // spiderlint: %s\n",
                std::string(r.id).c_str(), std::string(r.name).c_str(),
                std::string(to_string(r.severity)).c_str(),
                std::string(r.summary).c_str(),
                std::string(r.suppression).c_str());
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--format=text|sarif] [--fix-hints] [--stats]\n"
               "       [--treat-as=sim-critical|src|header|calib]...\n"
               "       [--list-rules] <path>...\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spider::lint;

  LintOptions opts;
  bool sarif = false;
  bool fix_hints = false;
  bool print_stats = false;
  std::vector<std::string> paths;
  FileClass forced;
  bool have_forced = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      print_rule_table();
      return 0;
    } else if (arg == "--fix-hints") {
      fix_hints = true;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg.starts_with("--format=")) {
      const std::string_view fmt = arg.substr(9);
      if (fmt == "sarif") {
        sarif = true;
      } else if (fmt == "text") {
        sarif = false;
      } else {
        std::fprintf(stderr, "spiderlint: unknown format '%.*s'\n",
                     static_cast<int>(fmt.size()), fmt.data());
        return usage(argv[0]);
      }
    } else if (arg.starts_with("--treat-as=")) {
      const std::string_view cls = arg.substr(11);
      if (cls == "sim-critical") {
        forced.sim_critical = true;
        forced.in_src = true;
      } else if (cls == "src") {
        forced.in_src = true;
      } else if (cls == "header") {
        forced.in_src = true;
        forced.is_header = true;
      } else if (cls == "calib") {
        forced.in_src = true;
        forced.calib_scope = true;
      } else {
        std::fprintf(stderr, "spiderlint: unknown class '%.*s'\n",
                     static_cast<int>(cls.size()), cls.data());
        return usage(argv[0]);
      }
      have_forced = true;
    } else if (arg.starts_with("--")) {
      std::fprintf(stderr, "spiderlint: unknown option '%s'\n", argv[i]);
      return usage(argv[0]);
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty()) return usage(argv[0]);
  if (have_forced) opts.forced_class = forced;

  // Wall-clock for the stats line only — findings never depend on it.
  // spiderlint-file: nondet-ok — lint runtime telemetry, not simulation
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::string> errors;
  const LintReport report = lint_paths(paths, opts, errors);
  const auto t1 = std::chrono::steady_clock::now();

  for (const std::string& err : errors) {
    std::fprintf(stderr, "spiderlint: %s\n", err.c_str());
  }

  const std::string rendered =
      sarif ? render_sarif(report) : render_text(report, fix_hints);
  std::fputs(rendered.c_str(), stdout);

  if (print_stats) {
    const auto wall_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0);
    std::fprintf(stderr,
                 "spiderlint-stats: files=%zu findings=%zu "
                 "wall_ms=%lld scan_ms=%lld rules_ms=%lld global_ms=%lld\n",
                 report.files_scanned, report.findings.size(),
                 static_cast<long long>(wall_ms.count()),
                 static_cast<long long>(report.scan_ms),
                 static_cast<long long>(report.rules_ms),
                 static_cast<long long>(report.global_ms));
  }

  if (!errors.empty()) return 2;
  return report.clean() ? 0 : 1;
}
