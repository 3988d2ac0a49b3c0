// Incremental changelog accounting vs namespace scans (ROADMAP item 2).
//
// The Robinhood lesson made quantitative: a policy engine that answers from
// a daily namespace walk pays O(N) per epoch; one that consumes the MDS
// changelog pays O(Δ records). This bench builds synthetic namespaces of
// increasing size, then measures both epoch costs over the same churn:
//
//   scan_<N>         LustreDu::daily_scan walks (files/sec, O(N) per epoch)
//   rebuild_<N>      ChangelogAccounting full-history replay (records/sec)
//   incremental_<N>  per-epoch consume of a fixed churn delta (records/sec)
//   epoch_<N>        scan-epoch seconds vs incremental-epoch seconds, and
//                    the ratio — the number that must grow with N
//
// In-run correctness bars (shape checks, not timings): changelog-derived
// usage matches the namespace walk exactly after every churn phase, the
// incrementally consumed table hashes equal to a full-history replay, and
// the entire incremental phase — consume plus queries — moves the
// namespace walk counter by zero.
//
// Modes (mirrors bench_fsck):
//   --spider-json=PATH   write the machine-readable report (BENCH_changelog.json)
//   --baseline=FILE      gate scan/incremental throughput against a
//                        checked-in report (ci/bench-baseline-changelog.json)
//                        at a 0.60x noise floor
//   --smoke              seconds-long run sized for CI
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "fs/changelog.hpp"
#include "tools/lustredu.hpp"
#include "tools/spiderfsck/fsck.hpp"

namespace {

using namespace spider;

using Clock = std::chrono::steady_clock;  // spiderlint: nondet-ok

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Untimed consume epochs run before the measured loop in both modes.
constexpr std::size_t kWarmupEpochs = 8;

struct ChangelogBenchConfig {
  std::vector<std::size_t> sizes{4096, 16384, 65536};
  /// Scan reps are sized so each point walks about this many files.
  std::size_t target_files = 1 << 19;
  /// Churn epochs consumed incrementally, and ops per epoch.
  std::size_t epochs = 64;
  std::size_t delta_ops = 256;
};

ChangelogBenchConfig smoke_config() {
  ChangelogBenchConfig cfg;
  cfg.sizes = {4096, 16384};
  cfg.target_files = 1 << 16;
  cfg.epochs = 16;
  return cfg;
}

/// One churn op against the namespace; the attached log records it. The
/// pool tracks live ids locally so the bench never walks to find victims.
void churn_op(fs::FsNamespace& ns, std::vector<fs::FileId>& pool,
              sim::SimTime now, Rng& rng) {
  const std::uint64_t roll = rng.uniform_index(10);
  if (roll < 3 || pool.empty()) {
    const Bytes size = (4 + rng.uniform_index(61)) * 1_MiB;
    const auto project = static_cast<std::uint32_t>(rng.uniform_index(4));
    const fs::FileId id = ns.create_file(project, size, now, rng);
    if (id != fs::kNoFile) pool.push_back(id);
    return;
  }
  const std::size_t pick =
      static_cast<std::size_t>(rng.uniform_index(pool.size()));
  const fs::FileId victim = pool[pick];
  if (roll < 5) {
    if (ns.unlink(victim, now)) {
      pool[pick] = pool.back();
      pool.pop_back();
    }
  } else if (roll < 7) {
    ns.touch_file(victim, now);
  } else if (roll < 9) {
    const Bytes size = (4 + rng.uniform_index(61)) * 1_MiB;
    ns.resize_file(victim, size, now);
  } else {
    const auto project = static_cast<std::uint32_t>(rng.uniform_index(4));
    ns.set_project(victim, project, now);
  }
}

int run_bench(const std::string& json_path, const std::string& baseline_path,
              bool smoke) {
  const ChangelogBenchConfig cfg =
      smoke ? smoke_config() : ChangelogBenchConfig{};

  bench::banner("changelog accounting: incremental vs scan epoch cost");

  bench::JsonReport report("changelog", smoke ? "smoke" : "full");
  bench::ShapeChecker checker;

  std::string baseline_text;
  if (!baseline_path.empty() &&
      !bench::read_text_file(baseline_path, baseline_text)) {
    std::fprintf(stderr, "bench: cannot read baseline '%s'\n",
                 baseline_path.c_str());
    return 1;
  }
  const auto gate = [&](const std::string& name, const char* metric,
                        double measured) {
    if (baseline_text.empty()) return;
    double base = 0.0;
    if (!bench::json_number(baseline_text, name, metric, base)) {
      checker.check(false, name + ": baseline entry present");
      return;
    }
    const double ratio = base > 0.0 ? measured / base : 0.0;
    report.add(name, std::string("baseline_") + metric, base);
    report.add(name, "vs_baseline", ratio);
    char label[160];
    std::snprintf(label, sizeof(label),
                  "%s: %.2fx of baseline %.0f %s (floor 0.60x)", name.c_str(),
                  ratio, base, metric);
    checker.check(ratio >= 0.6, label);
  };

  for (const std::size_t files : cfg.sizes) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "%zu", files);

    tools::SyntheticFsConfig fs_cfg;
    fs_cfg.files = files;
    fs_cfg.churn = 0.25;
    tools::SyntheticFs fs = tools::make_synthetic_fs(fs_cfg);
    fs::FsNamespace& ns = *fs.ns;
    fs::OpLog& log = *fs.journal;
    // From here on every namespace mutation journals itself; the synthetic
    // history already in the log used identical record shapes.
    ns.attach_oplog(&log, fs::kLogDefault);

    // --- O(N) epoch: the daily scan --------------------------------------
    const std::size_t scan_reps =
        cfg.target_files >= files ? cfg.target_files / files : 1;
    tools::LustreDu scan_tool;
    const Clock::time_point scan_start = Clock::now();  // spiderlint: nondet-ok
    for (std::size_t r = 0; r < scan_reps; ++r) {
      scan_tool.daily_scan(ns, static_cast<sim::SimTime>(r));
    }
    const double scan_s = seconds_since(scan_start);
    const double scan_files_per_sec =
        scan_s > 0.0
            ? static_cast<double>(files * scan_reps) / scan_s
            : 0.0;
    const double scan_epoch_s =
        static_cast<double>(scan_s) / static_cast<double>(scan_reps);
    report.add(std::string("scan_") + suffix, "files_per_sec",
               scan_files_per_sec);
    report.add(std::string("scan_") + suffix, "epoch_s", scan_epoch_s);
    report.add(std::string("scan_") + suffix, "reps",
               static_cast<double>(scan_reps));
    std::printf("  scan_%-12s %12.0f files/sec  (%zu reps, %.6fs/epoch)\n",
                suffix, scan_files_per_sec, scan_reps, scan_epoch_s);

    // --- full-history replay (the crash-recovery path) --------------------
    fs::ChangelogAccounting acct;
    const Clock::time_point rebuild_start =
        Clock::now();  // spiderlint: nondet-ok
    const fs::ConsumeResult seeded = acct.rebuild(log);
    const double rebuild_s = seconds_since(rebuild_start);
    const double rebuild_rps =
        rebuild_s > 0.0 ? static_cast<double>(seeded.applied) / rebuild_s : 0.0;
    report.add(std::string("rebuild_") + suffix, "records_per_sec",
               rebuild_rps);
    report.add(std::string("rebuild_") + suffix, "records",
               static_cast<double>(seeded.applied));
    checker.check(!seeded.cursor_ahead && !seeded.gap,
                  std::string(suffix) + " files: history replays clean");

    // --- O(Δ) epochs: churn, commit, consume ------------------------------
    std::vector<fs::FileId> pool = ns.live_ids();
    Rng rng(2014 + files);
    sim::SimTime now = static_cast<sim::SimTime>(2 * files) * sim::kSecond;
    // Untimed warmup epochs: a consume epoch is microseconds of work, so
    // first-touch and branch-training costs would otherwise dominate short
    // (smoke) runs and make the 0.60x gate flap.
    for (std::size_t e = 0; e < kWarmupEpochs; ++e) {
      for (std::size_t op = 0; op < cfg.delta_ops; ++op) {
        now += sim::kSecond;
        churn_op(ns, pool, now, rng);
      }
      log.commit(log.last_txid());
      acct.consume(log);
    }
    const std::uint64_t walks_before = ns.full_walks();
    double consume_s = 0.0;
    std::uint64_t consumed = 0;
    Bytes queried = 0;
    for (std::size_t e = 0; e < cfg.epochs; ++e) {
      for (std::size_t op = 0; op < cfg.delta_ops; ++op) {
        now += sim::kSecond;
        churn_op(ns, pool, now, rng);
      }
      log.commit(log.last_txid());
      const Clock::time_point start = Clock::now();  // spiderlint: nondet-ok
      const fs::ConsumeResult res = acct.consume(log);
      for (std::uint32_t p = 0; p < 4; ++p) queried += acct.bytes_of(p);
      consume_s += seconds_since(start);
      consumed += res.applied;
    }
    const std::uint64_t query_walks = ns.full_walks() - walks_before;
    const double inc_rps =
        consume_s > 0.0 ? static_cast<double>(consumed) / consume_s : 0.0;
    const double inc_epoch_s = consume_s / static_cast<double>(cfg.epochs);
    report.add(std::string("incremental_") + suffix, "records_per_sec",
               inc_rps);
    report.add(std::string("incremental_") + suffix, "epoch_s", inc_epoch_s);
    report.add(std::string("incremental_") + suffix, "records",
               static_cast<double>(consumed));
    std::printf(
        "  incremental_%-6s %12.0f records/sec (%zu epochs, %.6fs/epoch)\n",
        suffix, inc_rps, cfg.epochs, inc_epoch_s);

    // The headline number: how many times cheaper an incremental epoch is.
    const double ratio = inc_epoch_s > 0.0 ? scan_epoch_s / inc_epoch_s : 0.0;
    report.add(std::string("epoch_") + suffix, "scan_s", scan_epoch_s);
    report.add(std::string("epoch_") + suffix, "incremental_s", inc_epoch_s);
    report.add(std::string("epoch_") + suffix, "scan_over_incremental", ratio);
    std::printf("  epoch_%-12s %12.1fx scan/incremental cost\n", suffix,
                ratio);
    char ratio_label[160];
    std::snprintf(ratio_label, sizeof(ratio_label),
                  "%s files: incremental epoch beats the scan (%.1fx)",
                  suffix, ratio);
    checker.check(ratio > 1.0, ratio_label);

    // Correctness bars: derived accounting equals ground truth; the
    // incremental phase walked nothing; epoch-by-epoch consumption built
    // the same table a full-history replay does.
    checker.check(query_walks == 0,
                  std::string(suffix) +
                      " files: consume+query phase took zero namespace walks");
    checker.check(acct.usage() == ns.usage_by_project(),
                  std::string(suffix) +
                      " files: changelog usage matches namespace ground truth");
    fs::ChangelogAccounting replayed;
    replayed.rebuild(log);
    checker.check(replayed.table_hash() == acct.table_hash(),
                  std::string(suffix) +
                      " files: incremental table matches full-history replay");
    (void)queried;

    gate(std::string("scan_") + suffix, "files_per_sec", scan_files_per_sec);
    gate(std::string("incremental_") + suffix, "records_per_sec", inc_rps);
  }

  if (!json_path.empty()) {
    if (!report.write_file(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return checker.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_changelog.json";
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
