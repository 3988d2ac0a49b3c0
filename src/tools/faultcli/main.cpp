// spiderfault CLI — deterministic fault-injection campaign runner.
//
// Usage: spiderfault [options] <plan.fplan>...
//   --seeds=N             run each plan under N consecutive seeds (default 1)
//   --base-seed=S         first seed (default: the plan's own seed)
//   --mutations=M         additionally run M seeded plan mutations per seed
//   --horizon-s=X         override every plan's horizon (finite, > 0, and
//                         within SimTime's range of ~9.22e9 s)
//   --jobs=N              run up to N campaigns concurrently (default 1)
//   --expect-violations   invert the verdict: exit 0 iff violations were found
//   --fsck                after each run: spiderfsck repair + re-run oracles
//                         (verdict JSON grows a "repair" section; a run whose
//                         repaired state re-checks dirty always fails)
//
// Churn mode (no plan files; the billion-entry changelog harness):
//   --churn                    run the metadata churn scenario instead of
//                              fault plans; one JSON verdict line, exit 0
//                              iff the changelog oracles stayed green and
//                              the query path cost zero namespace walks
//   --churn-namespaces=N       DNE namespaces (default 8)
//   --churn-files=N            initial physical records per namespace
//   --churn-cohort=N           logical files per physical record
//   --churn-ops=N              churn ops per actor (default 256)
//   --churn-epochs=N           consumer/oracle barriers (default 8)
//   --churn-crash              inject a log-rewind crash mid-run; the run
//                              fails unless consumers detect and resync
//   --churn-min-logical=N      fail the verdict below N logical files
//   --shards=N                 sharded-engine fan-out hosting the churn
//                              namespaces (default 4; churn mode only)
//   (--base-seed applies to churn mode too)
//
// One JSON verdict line per run: plan name, seed, replay hash, stream hash,
// telemetry, and the oracle violations (see docs/fault-injection.md for how
// to reproduce a violation from a verdict line).
//
// --jobs=N parallelism is output-invisible: the campaign list is enumerated
// up front in (plan, seed, mutation) order, runs execute concurrently on the
// shared thread pool, and verdict lines are buffered and printed in
// enumeration order — so stdout is byte-identical to --jobs=1.
//
// Exit codes: 0 campaign outcome matched expectation, 1 it did not,
// 2 usage / plan-parse / I/O error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "sim/faultplan.hpp"
#include "tools/faultcli/campaign.hpp"
#include "tools/faultcli/churn.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds=N] [--base-seed=S] [--mutations=M]\n"
               "       [--horizon-s=X] [--jobs=N] [--expect-violations]\n"
               "       [--fsck] <plan.fplan>...\n"
               "   or: %s --churn [--churn-namespaces=N] [--churn-files=N]\n"
               "       [--churn-cohort=N] [--churn-ops=N] [--churn-epochs=N]\n"
               "       [--churn-crash] [--churn-min-logical=N] [--shards=N]\n"
               "       [--base-seed=S]\n",
               argv0,
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spider;

  std::uint64_t seeds = 1;
  std::uint64_t base_seed = 0;
  bool have_base_seed = false;
  std::uint64_t mutations = 0;
  std::uint64_t jobs = 1;
  std::uint64_t engine_shards = 0;  // churn mode only
  double horizon_s = 0.0;
  bool expect_violations = false;
  bool fsck = false;
  bool churn = false;
  tools::ChurnRunConfig churn_cfg;
  std::vector<std::string> plan_paths;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--seeds=")) {
      if (!parse_count(arg.substr(8), seeds) || seeds == 0) {
        return usage(argv[0]);
      }
    } else if (arg.starts_with("--base-seed=")) {
      if (!parse_count(arg.substr(12), base_seed)) return usage(argv[0]);
      have_base_seed = true;
    } else if (arg.starts_with("--mutations=")) {
      if (!parse_count(arg.substr(12), mutations)) return usage(argv[0]);
    } else if (arg.starts_with("--jobs=")) {
      if (!parse_count(arg.substr(7), jobs) || jobs == 0) {
        return usage(argv[0]);
      }
    } else if (arg.starts_with("--shards=")) {
      if (!parse_count(arg.substr(9), engine_shards) || engine_shards == 0) {
        return usage(argv[0]);
      }
    } else if (arg.starts_with("--horizon-s=")) {
      if (!parse_finite(arg.substr(12), horizon_s) || horizon_s <= 0.0 ||
          !sim::seconds_in_range(horizon_s)) {
        return usage(argv[0]);
      }
    } else if (arg == "--churn") {
      churn = true;
    } else if (arg.starts_with("--churn-namespaces=")) {
      std::uint64_t v = 0;
      if (!parse_count(arg.substr(19), v) || v == 0) return usage(argv[0]);
      churn_cfg.params.namespaces = static_cast<std::size_t>(v);
    } else if (arg.starts_with("--churn-files=")) {
      std::uint64_t v = 0;
      if (!parse_count(arg.substr(14), v) || v == 0) return usage(argv[0]);
      churn_cfg.params.initial_files = static_cast<std::size_t>(v);
    } else if (arg.starts_with("--churn-cohort=")) {
      std::uint64_t v = 0;
      if (!parse_count(arg.substr(15), v) || v == 0) return usage(argv[0]);
      churn_cfg.params.cohort = v;
    } else if (arg.starts_with("--churn-ops=")) {
      std::uint64_t v = 0;
      if (!parse_count(arg.substr(12), v) || v == 0) return usage(argv[0]);
      churn_cfg.params.ops_per_actor = static_cast<std::size_t>(v);
    } else if (arg.starts_with("--churn-epochs=")) {
      std::uint64_t v = 0;
      if (!parse_count(arg.substr(15), v) || v == 0) return usage(argv[0]);
      churn_cfg.epochs = static_cast<std::size_t>(v);
    } else if (arg == "--churn-crash") {
      churn_cfg.crash = true;
    } else if (arg.starts_with("--churn-min-logical=")) {
      std::uint64_t v = 0;
      if (!parse_count(arg.substr(20), v)) return usage(argv[0]);
      churn_cfg.min_logical_files = v;
    } else if (arg == "--expect-violations") {
      expect_violations = true;
    } else if (arg == "--fsck") {
      fsck = true;
    } else if (arg.starts_with("--")) {
      std::fprintf(stderr, "spiderfault: unknown option '%s'\n", argv[i]);
      return usage(argv[0]);
    } else {
      plan_paths.emplace_back(arg);
    }
  }
  if (churn) {
    if (!plan_paths.empty()) {
      std::fprintf(stderr, "spiderfault: --churn takes no plan files\n");
      return usage(argv[0]);
    }
    if (engine_shards > 0) {
      churn_cfg.engine_shards = static_cast<std::size_t>(engine_shards);
    }
    if (have_base_seed) churn_cfg.params.seed = base_seed;
    const tools::ChurnVerdict verdict = tools::run_churn(churn_cfg);
    std::printf("%s\n", tools::churn_verdict_json(churn_cfg, verdict).c_str());
    return verdict.ok ? 0 : 1;
  }
  if (plan_paths.empty()) return usage(argv[0]);
  if (engine_shards > 0) {
    std::fprintf(stderr,
                 "spiderfault: --shards applies to --churn only; campaigns "
                 "run on the serial engine\n");
    return usage(argv[0]);
  }

  tools::CampaignConfig cfg;
  cfg.horizon_s = horizon_s;  // 0 = per-plan horizon

  // Enumerate every run up front, in (plan, seed, mutation) order. Mutation
  // derivation stays serial and seeded — mutant m derives from (plan, seed,
  // m) alone — so the job list, and therefore the output, is reproducible
  // from the command line regardless of --jobs.
  struct Job {
    sim::FaultPlan plan;
    std::uint64_t seed = 0;
  };
  std::vector<Job> run_jobs;
  for (const std::string& path : plan_paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "spiderfault: cannot open '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    sim::FaultPlan plan;
    try {
      plan = sim::parse_fault_plan(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "spiderfault: %s: %s\n", path.c_str(), e.what());
      return 2;
    }

    const std::uint64_t first_seed = have_base_seed ? base_seed : plan.seed;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const std::uint64_t seed = first_seed + s;
      run_jobs.push_back(Job{plan, seed});
      for (std::uint64_t m = 1; m <= mutations; ++m) {
        Rng mutation_rng(seed ^ (0x9e3779b97f4a7c15ull * m));
        run_jobs.push_back(Job{
            sim::mutate_plan(plan, tools::campaign_bounds(cfg), mutation_rng),
            seed});
      }
    }
  }

  // Campaigns are independent single-threaded simulations, so they fan out
  // across the shared pool. Verdict lines are buffered per job and emitted
  // in enumeration order below, keeping stdout byte-identical to --jobs=1.
  std::vector<tools::RunVerdict> verdicts(run_jobs.size());
  parallel_for(
      run_jobs.size(),
      [&](std::size_t i) {
        const Job& job = run_jobs[i];
        verdicts[i] =
            fsck ? tools::run_campaign_checked(job.plan, job.seed, cfg)
                 : tools::run_campaign(job.plan, job.seed, cfg);
      },
      static_cast<std::size_t>(jobs));

  std::uint64_t violating_runs = 0;
  bool repair_failed = false;
  for (const tools::RunVerdict& verdict : verdicts) {
    std::printf("%s\n", tools::verdict_json(verdict).c_str());
    if (!verdict.clean()) ++violating_runs;
    // A dirty repaired state is a tool failure, never an expected outcome —
    // --expect-violations does not excuse it.
    if (verdict.repair.ran && !verdict.repair.post_clean) repair_failed = true;
  }

  if (repair_failed) return 1;
  if (expect_violations) return violating_runs > 0 ? 0 : 1;
  return violating_runs == 0 ? 0 : 1;
}
