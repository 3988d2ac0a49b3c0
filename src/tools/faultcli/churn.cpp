#include "tools/faultcli/churn.hpp"

#include <memory>
#include <sstream>

#include "fs/purge.hpp"
#include "sim/sharded_sim.hpp"
#include "tools/faultcli/campaign.hpp"
#include "tools/lustredu.hpp"

namespace spider::tools {

namespace {

/// Sum of every namespace's walk counter — the fence reads this before and
/// after the query window.
std::uint64_t total_walks(const core::ChurnScenario& scenario) {
  std::uint64_t walks = 0;
  for (std::size_t i = 0; i < scenario.namespace_count(); ++i) {
    walks += scenario.ns(i).full_walks();
  }
  return walks;
}

void fold(ChurnVerdict& verdict, const fs::ConsumeResult& res) {
  verdict.records_applied += res.applied;
}

}  // namespace

ChurnVerdict run_churn(const ChurnRunConfig& cfg) {
  ChurnVerdict verdict;

  sim::ShardedConfig engine_cfg;
  engine_cfg.workers = cfg.workers;
  sim::ShardedSimulator engine(std::max<std::size_t>(1, cfg.engine_shards),
                               engine_cfg);
  const sim::ShardMap map(cfg.params.namespaces, engine.shards());
  core::ChurnScenario scenario(cfg.params, engine, map);
  scenario.seed_population();

  const std::size_t n = scenario.namespace_count();

  // Consumer stack: one du tool following every namespace, one purge
  // engine per namespace, and the oracle's own accounting per namespace.
  LustreDu du;
  fs::PurgeRules rules;
  rules.classes.push_back(
      fs::PurgeClass{cfg.purge_window_days, 0, cfg.purge_project});
  std::vector<std::unique_ptr<fs::PurgeEngine>> purgers;
  std::vector<std::unique_ptr<fs::ChangelogAccounting>> audit;
  std::vector<std::unique_ptr<sim::Oracle>> oracles;
  for (std::size_t i = 0; i < n; ++i) {
    du.follow(scenario.log(i));
    purgers.push_back(std::make_unique<fs::PurgeEngine>(
        scenario.ns(i), scenario.log(i), rules));
    audit.push_back(std::make_unique<fs::ChangelogAccounting>());
    oracles.push_back(
        make_changelog_oracle(scenario.ns(i), scenario.log(i), *audit.back()));
  }
  // Baseline: consumers absorb the seeded population before churn starts.
  fold(verdict, du.poll());
  for (auto& purger : purgers) fold(verdict, purger->poll());

  scenario.start();

  // Epoch horizon: actors go quiet after ~think * ops_per_actor; pad so the
  // final barrier lands after the last op.
  const sim::SimTime total_span =
      cfg.params.think * static_cast<sim::SimTime>(cfg.params.ops_per_actor + 2);
  const std::size_t epochs = std::max<std::size_t>(1, cfg.epochs);
  const sim::SimTime epoch_span =
      total_span / static_cast<sim::SimTime>(epochs) + 1;

  for (std::size_t e = 0; e < epochs; ++e) {
    const sim::SimTime horizon =
        epoch_span * static_cast<sim::SimTime>(e + 1);
    verdict.events += engine.run(horizon);
    scenario.commit_all();

    // MDS crash at the barrier: namespace 0's log rewinds below the
    // consumers' cursors — future appends will reuse the lost txids, so
    // silent absorption would corrupt every table downstream.
    if (cfg.crash && e == cfg.crash_epoch && !verdict.crash_injected) {
      fs::OpLog& log = scenario.log(0);
      log.truncate_to(log.committed() / 2);
      verdict.crash_injected = true;
    }

    // --- walk fence: everything in here must cost zero namespace walks ---
    bool rewound = false;
    {
      const std::uint64_t walks_before = total_walks(scenario);
      const fs::ConsumeResult du_res = du.poll();
      fold(verdict, du_res);
      rewound = rewound || du_res.cursor_ahead;
      for (auto& purger : purgers) {
        const fs::ConsumeResult res = purger->poll();
        if (!res.cursor_ahead) fold(verdict, res);
        rewound = rewound || res.cursor_ahead;
      }
      if (cfg.purge_every > 0 && (e + 1) % cfg.purge_every == 0) {
        for (auto& purger : purgers) {
          const fs::PurgeReport report = purger->sweep(horizon);
          verdict.purged += report.purged;
          verdict.purge_freed += report.freed;
        }
      }
      for (std::size_t p = 0; p < cfg.query_projects; ++p) {
        const DuCost cost = du.usage(static_cast<std::uint32_t>(p));
        if (cost.stale) {
          verdict.violations.push_back(sim::OracleViolation{
              "du-freshness", horizon,
              "du reported stale after the consumers had polled"});
        }
      }
      verdict.query_walks += total_walks(scenario) - walks_before;
    }
    // --- fence closed ----------------------------------------------------

    // Sweep unlinks are this barrier's MDS transaction; commit them so the
    // oracle audits a fully durable prefix.
    scenario.commit_all();

    if (rewound) {
      verdict.crash_detected = true;
      // Ground-truth resync (the Robinhood full-rescan escape hatch): the
      // committed prefix no longer describes the namespace, so replaying
      // it cannot help. These walks are recovery, not query cost.
      const std::uint64_t walks_before = total_walks(scenario);
      du.resync_feed(0, scenario.ns(0));
      audit[0]->rebuild_from_namespace(scenario.ns(0), scenario.log(0));
      // Best-effort for the purge engine: replay the surviving prefix.
      // Files created only in the lost tail age invisibly until the next
      // full resync — conservative, never unsafe.
      purgers[0]->rebuild();
      verdict.recovery_walks += total_walks(scenario) - walks_before;
    }

    // Oracle audit: changelog-derived accounting vs ground truth, every
    // namespace, every barrier. Walks deliberately (outside the fence).
    for (std::size_t i = 0; i < n; ++i) {
      oracles[i]->check(horizon, verdict.violations);
    }
  }

  verdict.epochs = epochs;
  verdict.totals = scenario.totals();
  verdict.logical_files = scenario.logical_files();
  verdict.logical_bytes = scenario.logical_bytes();
  verdict.ok = verdict.violations.empty() && verdict.query_walks == 0 &&
               (!cfg.crash || verdict.crash_detected) &&
               (cfg.min_logical_files == 0 ||
                verdict.logical_files >= cfg.min_logical_files);
  return verdict;
}

std::string churn_verdict_json(const ChurnRunConfig& cfg,
                               const ChurnVerdict& verdict) {
  std::ostringstream os;
  os << "{\"scenario\": \"churn\", \"namespaces\": " << cfg.params.namespaces
     << ", \"engine_shards\": " << cfg.engine_shards
     << ", \"cohort\": " << cfg.params.cohort
     << ", \"seed\": " << cfg.params.seed
     << ", \"epochs\": " << verdict.epochs
     << ", \"events\": " << verdict.events
     << ", \"logical_files\": " << verdict.logical_files
     << ", \"logical_bytes\": " << verdict.logical_bytes
     << ", \"creates\": " << verdict.totals.creates
     << ", \"unlinks\": " << verdict.totals.unlinks
     << ", \"touches\": " << verdict.totals.touches
     << ", \"resizes\": " << verdict.totals.resizes
     << ", \"setprojects\": " << verdict.totals.setprojects
     << ", \"refused\": " << verdict.totals.refused
     << ", \"records_applied\": " << verdict.records_applied
     << ", \"query_walks\": " << verdict.query_walks
     << ", \"recovery_walks\": " << verdict.recovery_walks
     << ", \"purged\": " << verdict.purged
     << ", \"purge_freed\": " << verdict.purge_freed
     << ", \"crash_injected\": " << (verdict.crash_injected ? "true" : "false")
     << ", \"crash_detected\": " << (verdict.crash_detected ? "true" : "false")
     << ", \"ok\": " << (verdict.ok ? "true" : "false")
     << ", \"violations\": " << sim::violations_json(verdict.violations)
     << "}";
  return os.str();
}

}  // namespace spider::tools
