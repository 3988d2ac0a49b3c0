// spiderfsck CLI — parallel namespace consistency checker and repairer.
//
// Usage: spiderfsck [options]
//   --files=N     synthetic namespace size (default 64)
//   --osts=N      OST count (default 8)
//   --churn=F     per-file unlink probability while populating (default 0.25)
//   --seed=S      population + corruption seed (default 2014)
//   --corrupt=N   apply N seeded corruptions before checking (default 0)
//   --jobs=N      phase-1 scan lanes (default 1; 0 = whole machine)
//   --shards=N    phase-1 scan shards (default 8)
//   --strided     strided instead of contiguous shard assignment
//   --dry-run     detect only; do not repair
//   --json        print the full fsck report as one JSON line
//
// The tool builds a deterministic synthetic namespace + op journal + DNE
// shard set from --seed, optionally damages it with seeded corruptions
// (cycling through every finding kind), then runs the three fsck phases.
// Output is byte-identical at any --jobs/--shards/--strided setting: shard
// results are buffered and merged in canonical order, so parallelism never
// leaks into stdout — the determinism bar scripts/check.sh diffs.
//
// Exit codes: 0 clean (dry run found nothing, or repair converged — the
// post-repair re-check found nothing), 1 findings remain (dry run found
// breaches, or repair failed to converge), 2 usage error.
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "tools/spiderfsck/fsck.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--files=N] [--osts=N] [--churn=F] [--seed=S]\n"
               "       [--corrupt=N] [--jobs=N] [--shards=N] [--strided]\n"
               "       [--dry-run] [--json]\n",
               argv0);
  return 2;
}

bool parse_count(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spider;

  tools::SyntheticFsConfig fs_cfg;
  tools::FsckOptions options;
  options.repair = true;
  std::uint64_t corruptions = 0;
  std::uint64_t jobs = 1;
  std::uint64_t shards = 0;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::uint64_t value = 0;
    if (arg.starts_with("--files=")) {
      if (!parse_count(arg.substr(8), value) || value == 0) {
        return usage(argv[0]);
      }
      fs_cfg.files = static_cast<std::size_t>(value);
    } else if (arg.starts_with("--osts=")) {
      if (!parse_count(arg.substr(7), value) || value == 0) {
        return usage(argv[0]);
      }
      fs_cfg.raid_groups = static_cast<std::size_t>(value);
    } else if (arg.starts_with("--churn=")) {
      try {
        fs_cfg.churn = std::stod(std::string(arg.substr(8)));
      } catch (const std::exception&) {
        return usage(argv[0]);
      }
      if (fs_cfg.churn < 0.0 || fs_cfg.churn > 1.0) return usage(argv[0]);
    } else if (arg.starts_with("--seed=")) {
      if (!parse_count(arg.substr(7), fs_cfg.seed)) return usage(argv[0]);
    } else if (arg.starts_with("--corrupt=")) {
      if (!parse_count(arg.substr(10), corruptions)) return usage(argv[0]);
    } else if (arg.starts_with("--jobs=")) {
      if (!parse_count(arg.substr(7), jobs)) return usage(argv[0]);
    } else if (arg.starts_with("--shards=")) {
      if (!parse_count(arg.substr(9), shards) || shards == 0) {
        return usage(argv[0]);
      }
    } else if (arg == "--strided") {
      options.assignment = tools::ShardAssignment::kStrided;
    } else if (arg == "--dry-run") {
      options.repair = false;
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "spiderfsck: unknown option '%s'\n", argv[i]);
      return usage(argv[0]);
    }
  }
  options.jobs = static_cast<std::size_t>(jobs);
  options.shards = static_cast<std::size_t>(shards);

  tools::SyntheticFs fs = tools::make_synthetic_fs(fs_cfg);
  tools::FsckTarget target = fs.target();

  // Seeded corruptions cycle through the finding kinds so --corrupt=10
  // exercises every detector; inapplicable kinds are skipped.
  Rng corrupt_rng(fs_cfg.seed ^ 0x5fc5ull);
  for (std::uint64_t c = 0; c < corruptions; ++c) {
    const tools::FindingKind kind =
        tools::kAllFindingKinds[c % std::size(tools::kAllFindingKinds)];
    const std::string what = tools::inject_corruption(target, kind, corrupt_rng);
    if (!what.empty()) {
      std::fprintf(stderr, "spiderfsck: injected [%s] %s\n",
                   std::string(tools::finding_kind_name(kind)).c_str(),
                   what.c_str());
    }
  }

  const tools::FsckReport report = tools::run_fsck(target, options);
  if (json) {
    std::printf("%s\n", tools::fsck_report_json(report).c_str());
  } else {
    std::printf(
        "spiderfsck: %llu slot(s), %llu live file(s), %llu OST(s), "
        "%llu journal record(s): %zu finding(s), %llu repair(s)\n",
        static_cast<unsigned long long>(report.slots_scanned),
        static_cast<unsigned long long>(report.live_files),
        static_cast<unsigned long long>(report.osts_scanned),
        static_cast<unsigned long long>(report.journal_records),
        report.findings.size(),
        static_cast<unsigned long long>(report.repairs_applied));
    for (const auto& f : report.findings) {
      std::printf("  [%s] %s%s%s\n",
                  std::string(tools::finding_kind_name(f.kind)).c_str(),
                  f.detail.c_str(), f.repaired ? " -- repaired: " : "",
                  f.repair.c_str());
    }
  }

  if (!options.repair) return report.clean() ? 0 : 1;

  // Repair mode: the bar is convergence — a re-check of the repaired tree
  // must come back clean. The re-check runs serially; fan-out has already
  // been exercised by the primary pass.
  tools::FsckOptions recheck;
  recheck.jobs = 1;
  recheck.shards = options.shards;
  const tools::FsckReport verify = tools::run_fsck(target, recheck);
  if (!verify.clean()) {
    std::fprintf(stderr,
                 "spiderfsck: repair did not converge: %zu finding(s) remain\n",
                 verify.findings.size());
    return 1;
  }
  return 0;
}
