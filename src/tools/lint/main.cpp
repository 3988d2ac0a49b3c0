// spiderlint CLI — determinism & unit-safety static analysis for spiderpfs.
//
// Usage: spiderlint [options] <path>...
//   --format=text|json|sarif  output format (default text)
//   --fix-hints          include fix-it hints and a per-rule digest (text)
//   --rules=L1,L3        run only the listed rules (default: all)
//   --baseline=FILE      drop findings grandfathered in FILE
//                        (RULE :: file :: message :: reason, line-number
//                        independent); stale entries are warned to stderr
//   --write-baseline     print the run's findings in baseline format and
//                        exit (reasons left as 'justify-me' for editing)
//   --prune-baseline     rewrite the --baseline file in place with the
//                        stale entries removed (comments and live entries
//                        survive verbatim)
//   --stale=warn|error   what a stale baseline entry does to the exit code
//                        (default warn; CI runs error so fixed findings
//                        must be deleted from the baseline, not hoarded)
//   --stats              print `spiderlint-stats: files=N findings=N
//                        jobs=N wall_ms=N scan_ms=N rules_ms=N
//                        global_ms=N` to stderr (CI surfaces it in the job
//                        summary; global_ms times the L5 include-graph pass)
//   --jobs=N             fan the per-file pass out over N workers (0 or
//                        omitted value = one per hardware thread; default
//                        auto). Output is byte-identical at any job count.
//   --only=PATH          report findings only for matching files (exact or
//                        path-suffix, repeatable). The L5 include graph
//                        still sees every input file — scripts/lint.sh
//                        --changed relies on this, because an include cycle
//                        reported for one file runs through the others.
//   --treat-as=CLASS     force file classification: sim-critical, src,
//                        header, calib (repeatable; for linting fixtures
//                        that live outside src/)
//   --list-rules         print the rule table and exit
//
// Exit codes: 0 clean (after baseline), 1 findings (or stale entries under
// --stale=error), 2 usage or I/O error.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hpp"
#include "tools/lint/baseline.hpp"
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
               "usage: %s [--format=text|json|sarif] [--fix-hints]\n"
               "       [--rules=L1,..] [--baseline=FILE] [--write-baseline]\n"
               "       [--prune-baseline] [--stale=warn|error] [--stats]\n"
               "       [--jobs=N] [--only=PATH]...\n"
               "       [--treat-as=sim-critical|src|header|calib]...\n"
               "       [--list-rules] <path>...\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spider::lint;

  LintOptions opts;
  opts.jobs = 0;  // CLI default: auto (the library default stays serial)
  enum class Format { kText, kJson, kSarif };
  Format format = Format::kText;
  bool fix_hints = false;
  bool write_baseline = false;
  bool prune_baseline = false;
  bool stale_is_error = false;
  bool print_stats = false;
  std::string baseline_path;
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
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg == "--prune-baseline") {
      prune_baseline = true;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg.starts_with("--stale=")) {
      const std::string_view mode = arg.substr(8);
      if (mode == "error") {
        stale_is_error = true;
      } else if (mode == "warn") {
        stale_is_error = false;
      } else {
        std::fprintf(stderr, "spiderlint: unknown stale mode '%.*s'\n",
                     static_cast<int>(mode.size()), mode.data());
        return usage(argv[0]);
      }
    } else if (arg.starts_with("--baseline=")) {
      baseline_path = std::string(arg.substr(11));
    } else if (arg.starts_with("--format=")) {
      const std::string_view fmt = arg.substr(9);
      if (fmt == "json") {
        format = Format::kJson;
      } else if (fmt == "sarif") {
        format = Format::kSarif;
      } else if (fmt == "text") {
        format = Format::kText;
      } else {
        std::fprintf(stderr, "spiderlint: unknown format '%.*s'\n",
                     static_cast<int>(fmt.size()), fmt.data());
        return usage(argv[0]);
      }
    } else if (arg.starts_with("--rules=")) {
      opts.rules = RuleSet::none();
      std::string_view list = arg.substr(8);
      while (!list.empty()) {
        const std::size_t comma = list.find(',');
        const std::string_view id = list.substr(0, comma);
        if (id == "L1") {
          opts.rules.l1 = true;
        } else if (id == "L2") {
          opts.rules.l2 = true;
        } else if (id == "L3") {
          opts.rules.l3 = true;
        } else if (id == "L4") {
          opts.rules.l4 = true;
        } else if (id == "L5") {
          opts.rules.l5 = true;
        } else if (id == "L6") {
          opts.rules.l6 = true;
        } else if (id == "L7") {
          opts.rules.l7 = true;
        } else if (id == "L8") {
          opts.rules.l8 = true;
        } else if (id == "L9") {
          opts.rules.l9 = true;
        } else if (id == "L10") {
          opts.rules.l10 = true;
        } else if (id == "L11") {
          opts.rules.l11 = true;
        } else if (id == "L12") {
          opts.rules.l12 = true;
        } else {
          std::fprintf(stderr, "spiderlint: unknown rule '%.*s'\n",
                       static_cast<int>(id.size()), id.data());
          return usage(argv[0]);
        }
        if (comma == std::string_view::npos) break;
        list.remove_prefix(comma + 1);
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
    } else if (arg.starts_with("--jobs=")) {
      const std::string_view n = arg.substr(7);
      std::uint64_t jobs = 0;
      if (!spider::parse_count(n, jobs)) {
        std::fprintf(stderr, "spiderlint: bad --jobs value '%.*s'\n",
                     static_cast<int>(n.size()), n.data());
        return usage(argv[0]);
      }
      opts.jobs = static_cast<std::size_t>(jobs);
    } else if (arg.starts_with("--only=")) {
      const std::string_view pat = arg.substr(7);
      if (pat.empty()) {
        std::fprintf(stderr, "spiderlint: --only needs a path\n");
        return usage(argv[0]);
      }
      opts.report_only.emplace_back(pat);
    } else if (arg.starts_with("--")) {
      std::fprintf(stderr, "spiderlint: unknown option '%s'\n", argv[i]);
      return usage(argv[0]);
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty()) return usage(argv[0]);
  if (prune_baseline && baseline_path.empty()) {
    std::fprintf(stderr, "spiderlint: --prune-baseline needs --baseline=\n");
    return usage(argv[0]);
  }
  if (have_forced) opts.forced_class = forced;

  // Wall-clock for the stats line only — findings never depend on it.
  // spiderlint-file: nondet-ok — lint runtime telemetry, not simulation
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::string> errors;
  LintReport report = lint_paths(paths, opts, errors);
  const auto t1 = std::chrono::steady_clock::now();

  std::size_t stale_count = 0;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "spiderlint: cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::vector<BaselineEntry> entries =
        parse_baseline(buf.str(), errors);
    const std::vector<BaselineEntry> stale = apply_baseline(report, entries);
    stale_count = stale.size();
    if (!opts.report_only.empty()) {
      // A narrowed report cannot tell "fixed" from "not reported this
      // time": entries for files outside --only would all read as stale,
      // and pruning on that evidence would delete live entries.
      if (prune_baseline) {
        std::fprintf(stderr,
                     "spiderlint: refusing --prune-baseline with --only "
                     "(a narrowed report cannot judge staleness)\n");
        return 2;
      }
      stale_count = 0;
    } else if (prune_baseline) {
      std::size_t pruned = 0;
      const std::string rewritten =
          prune_baseline_text(buf.str(), stale, pruned);
      std::ofstream outf(baseline_path,
                         std::ios::binary | std::ios::trunc);
      if (!outf || !(outf << rewritten)) {
        std::fprintf(stderr, "spiderlint: cannot rewrite baseline '%s'\n",
                     baseline_path.c_str());
        return 2;
      }
      std::fprintf(stderr,
                   "spiderlint: pruned %zu stale baseline entr%s from %s\n",
                   pruned, pruned == 1 ? "y" : "ies", baseline_path.c_str());
      stale_count = 0;  // pruned away: nothing left to warn or fail on
    } else {
      for (const BaselineEntry& e : stale) {
        std::fprintf(stderr,
                     "spiderlint: %s baseline entry (fixed? delete it, or "
                     "run --prune-baseline): %s :: %s :: %s\n",
                     stale_is_error ? "STALE" : "stale", e.rule.c_str(),
                     e.file.c_str(), e.message.c_str());
      }
    }
  }

  for (const std::string& err : errors) {
    std::fprintf(stderr, "spiderlint: %s\n", err.c_str());
  }

  if (write_baseline) {
    std::fputs(render_baseline(report).c_str(), stdout);
    return errors.empty() ? 0 : 2;
  }

  std::string rendered;
  switch (format) {
    case Format::kJson: rendered = render_json(report); break;
    case Format::kSarif: rendered = render_sarif(report); break;
    case Format::kText: rendered = render_text(report, fix_hints); break;
  }
  std::fputs(rendered.c_str(), stdout);

  if (print_stats) {
    const auto wall_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0);
    std::fprintf(stderr,
                 "spiderlint-stats: files=%zu findings=%zu jobs=%zu "
                 "wall_ms=%lld scan_ms=%lld rules_ms=%lld global_ms=%lld\n",
                 report.files_scanned, report.findings.size(), opts.jobs,
                 static_cast<long long>(wall_ms.count()),
                 static_cast<long long>(report.scan_ms),
                 static_cast<long long>(report.rules_ms),
                 static_cast<long long>(report.global_ms));
  }

  if (!errors.empty()) return 2;
  if (!report.clean()) return 1;
  if (stale_is_error && stale_count != 0) return 1;
  return 0;
}
