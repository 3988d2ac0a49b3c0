// Billion-entry churn runner: the changelog era's acceptance harness.
//
// Drives core::ChurnScenario (DNE namespaces under create/unlink/touch/
// resize/setproject churn, cohort-scaled past 1e9 logical files) on the
// sharded engine — spiderfault --churn --shards=N sets its width, and
// namespaces really spread over the shards — with the full consumer stack
// attached, polled at each epoch barrier on the calling thread:
//
//   - tools::LustreDu following every namespace's changelog, one
//     accounting table per namespace,
//   - one fs::PurgeEngine per namespace sweeping on an epoch cadence,
//   - the changelog-consistency oracle (campaign.hpp) auditing
//     changelog-derived accounting against namespace ground truth at
//     every epoch barrier.
//
// The query path is fenced with FsNamespace::full_walks(): every du query
// and purge sweep runs inside a window where the walk counter must not
// move — the O(Δ)-not-O(N) claim, asserted, not assumed. Oracle audits
// and post-crash resyncs walk deliberately, outside the fence.
//
// --churn-crash injects an MDS crash at an epoch barrier: one namespace's
// log is truncated below its committed cursor (this is why the runner
// lives in faultcli — truncate_to belongs to the fault and repair
// tooling). Consumers must *detect* the rewind (cursor_ahead), resync
// from ground truth, and be green again at the next barrier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/churn_scenario.hpp"
#include "sim/oracle.hpp"

namespace spider::tools {

struct ChurnRunConfig {
  core::ChurnParams params;
  /// Sharded-engine fan-out hosting the scenario.
  std::size_t engine_shards = 4;
  /// Barriers at which consumers poll, queries run, and oracles audit.
  std::size_t epochs = 8;
  /// Purge policy window; sweeps fire every `purge_every` epochs (0 = off).
  /// The default (~86ms of sim time) is tuned to the default think/ops
  /// shape so sweeps actually purge: idle files age out within a run.
  double purge_window_days = 1e-6;
  std::size_t purge_every = 2;
  /// Purge class scope: only this project is swept (the scratch area).
  /// UINT32_MAX sweeps every project — with the tight default window that
  /// razes the whole population, so scope it when asserting 1B+ residents.
  std::uint32_t purge_project = 0;
  /// du queries per epoch (projects 0..query_projects-1).
  std::size_t query_projects = 4;
  /// Inject a log-rewind crash on namespace 0 after `crash_epoch` runs.
  bool crash = false;
  std::size_t crash_epoch = 3;
  /// Verdict fails below this logical-file floor (0 = don't check).
  std::uint64_t min_logical_files = 0;
};

struct ChurnVerdict {
  bool ok = false;
  std::uint64_t epochs = 0;
  std::uint64_t events = 0;
  std::uint64_t logical_files = 0;
  Bytes logical_bytes = 0;
  core::ChurnTotals totals;
  /// Changelog records folded into consumers (du + purge engines).
  std::uint64_t records_applied = 0;
  /// Namespace walks observed inside query/sweep fences. Must be zero:
  /// the whole point of the changelog is that answering costs no walk.
  std::uint64_t query_walks = 0;
  /// Walks spent on recovery resyncs (crash runs expect exactly these).
  std::uint64_t recovery_walks = 0;
  bool crash_injected = false;
  /// The rewind was detected via cursor_ahead — never silently absorbed.
  bool crash_detected = false;
  std::uint64_t purged = 0;
  Bytes purge_freed = 0;
  std::vector<sim::OracleViolation> violations;
};

/// Run the scenario on an auto-width lane team; deterministic in (cfg) —
/// engine shards and lanes never change the outcome, only the wall clock.
ChurnVerdict run_churn(const ChurnRunConfig& cfg);

/// One-line JSON verdict, shaped like the campaign's verdict lines.
std::string churn_verdict_json(const ChurnRunConfig& cfg,
                               const ChurnVerdict& verdict);

}  // namespace spider::tools
