// Billion-entry churn runner: the changelog era's acceptance harness.
//
// Drives core::ChurnScenario (DNE namespaces under create/unlink/touch/
// resize/setproject churn, cohort-scaled past 1e9 logical files) on one
// serial sim::Simulator, run to a barrier per epoch, with the full consumer
// stack attached and polled at each barrier:
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
// --churn-crash injects an MDS crash at the middle barrier, zero-based
// index (epochs - 1) / 2 (barrier 3 of 0..7 at the default 8 epochs), so
// every epoch count crashes: one namespace's log is truncated below its
// committed cursor (this is why the runner lives in faultcli — truncate_to
// belongs to the fault and repair tooling). Consumers must *detect* the
// rewind (cursor_ahead) and resync from ground truth at that barrier, and
// the oracles must stay green from then on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/churn_scenario.hpp"
#include "sim/oracle.hpp"

namespace spider::tools {

struct ChurnRunConfig {
  core::ChurnParams params;
  /// Barriers at which consumers poll, queries run, and oracles audit.
  std::size_t epochs = 8;
  /// Inject a log-rewind crash on namespace 0 at the middle barrier.
  bool crash = false;
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

/// Run the scenario; deterministic in (cfg).
ChurnVerdict run_churn(const ChurnRunConfig& cfg);

/// One-line JSON verdict, shaped like the campaign's verdict lines.
std::string churn_verdict_json(const ChurnRunConfig& cfg,
                               const ChurnVerdict& verdict);

}  // namespace spider::tools
