// Fault-campaign engine: binds declarative FaultPlans to a concrete cluster.
//
// sim/faultplan.hpp is deliberately subsystem-agnostic — it only knows when
// injections fire. This layer supplies the *what*: a small but complete
// Spider-style cluster (one SSU of RAID-6 groups behind a controller pair,
// OSTs, a namespace with MDS and purge, and a flow network modelling the
// OST/controller/LNET-router path), one binding per FaultKind, predicates
// for the conditioned triggers, a deterministic background workload, and the
// invariant-oracle set from the ISSUE catalogue:
//
//   flow-conservation   utilization/served/delivered bounds (sim/oracle.hpp)
//   write-accounting    bytes acked never exceed bytes issued
//   raid-read-safety    reads are never served from non-online members
//   rebuild-monotone    rebuild progress never moves backwards
//   namespace-journal   namespace counters match the op journal replay
//   purge-age           purge never deletes files younger than the policy
//
// Everything — cluster construction, workload, injections, oracle sweeps —
// derives from (plan, seed), so a campaign's verdict is reproducible
// bit-for-bit and its replay hash can be diffed across processes.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "block/ssu.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fs/changelog.hpp"
#include "fs/fs_namespace.hpp"
#include "fs/ost.hpp"
#include "fs/purge.hpp"
#include "sim/faultplan.hpp"
#include "sim/flow_network.hpp"
#include "sim/oracle.hpp"
#include "sim/replay.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "tools/spiderfsck/fsck.hpp"

namespace spider::tools {

/// Write-path accounting shared between the workload and its oracle: bytes
/// issued when a write flow starts, bytes acked when it completes.
struct WriteLedger {
  double issued = 0.0;
  double acked = 0.0;
};

/// Metadata-operation journal the namespace-journal oracle replays against
/// the namespace's own counters.
struct OpJournal {
  std::uint64_t creates = 0;
  std::uint64_t unlinks = 0;
};

/// Records rebuild progress samples; the rebuild-monotone oracle asserts
/// per-group fractions never decrease within one rebuild.
class RebuildTracker {
 public:
  struct Sample {
    std::size_t group = 0;
    double fraction = 0.0;
    bool fresh = false;  ///< first sample of a new rebuild (resets tracking)
  };

  void on_start(std::size_t group, sim::SimTime now, double duration_s);
  void on_finish(std::size_t group);
  void on_abort(std::size_t group);
  /// Append one progress sample per active rebuild at `now`.
  void sample(sim::SimTime now);

  const std::vector<Sample>& samples() const { return samples_; }
  /// Mutable access so negative tests can seed a hostile sample.
  std::vector<Sample>& samples_mutable() { return samples_; }
  std::size_t active_rebuilds() const { return active_.size(); }

 private:
  struct Active {
    sim::SimTime start = 0;
    double duration_s = 0.0;
  };
  std::map<std::size_t, Active> active_;
  std::vector<Sample> samples_;
};

// --- oracle factories (each checks one ISSUE-catalogue invariant) ----------
std::unique_ptr<sim::Oracle> make_accounting_oracle(const WriteLedger& ledger);
std::unique_ptr<sim::Oracle> make_raid_read_oracle(
    std::vector<const block::Raid6Group*> groups);
std::unique_ptr<sim::Oracle> make_rebuild_monotone_oracle(
    const RebuildTracker& tracker);
std::unique_ptr<sim::Oracle> make_namespace_journal_oracle(
    const fs::FsNamespace& ns, const OpJournal& journal);
std::unique_ptr<sim::Oracle> make_purge_age_oracle(
    const std::vector<fs::PurgeReport>& reports, double window_days);
/// Changelog-consistency oracle (ROADMAP item 2): each sweep folds newly
/// committed records into `accounting`, then asserts the derived
/// per-project usage and live-file count equal the namespace ground truth.
/// Fires on crash-rewound cursors (and rebuilds) and on interior txid
/// gaps. Wired into the churn runner; campaigns can add it when their
/// namespace has the log attached.
std::unique_ptr<sim::Oracle> make_changelog_oracle(
    const fs::FsNamespace& ns, const fs::OpLog& log,
    fs::ChangelogAccounting& accounting);

/// Cluster and workload shape of one campaign run.
struct CampaignConfig {
  std::size_t raid_groups = 8;
  std::size_t enclosures = 10;
  /// 0 = use the plan's horizon_s.
  Seconds horizon_s = 0.0;
  sim::SimTime oracle_interval = 5 * sim::kSecond;
  sim::SimTime create_interval = 2 * sim::kSecond;
  sim::SimTime read_interval = 3 * sim::kSecond;
  sim::SimTime purge_interval = 60 * sim::kSecond;
  /// Purge window small enough that sweeps actually delete files within a
  /// few-hundred-second horizon (the production 14d cadence is exercised by
  /// fs tests; campaigns need churn).
  double purge_window_days = 0.002;
};

/// Mutation target bounds matching the cluster `cfg` builds.
sim::PlanBounds campaign_bounds(const CampaignConfig& cfg = {});

/// Outcome of one campaign run: identity, reproducibility hashes, telemetry,
/// and every oracle violation observed.
struct RunVerdict {
  std::string plan;
  std::uint64_t seed = 0;
  /// Site-inclusive replay hash (events + flow telemetry) — the cross-process
  /// determinism check.
  std::uint64_t replay_hash = 0;
  /// Site-free (when, id) stream hash — stable across line-number refactors,
  /// pinned by golden tests.
  std::uint64_t stream_hash = 0;
  std::uint64_t events = 0;
  std::size_t injections_fired = 0;
  std::size_t reverts_fired = 0;
  std::uint64_t files_created = 0;
  std::uint64_t files_purged = 0;
  double delivered = 0.0;  ///< flow units delivered end-to-end
  bool data_lost = false;
  std::vector<sim::OracleViolation> violations;

  /// Outcome of the post-run fsck stage (inject -> detect -> fsck ->
  /// re-run oracles). Populated by run_campaign_checked(); `ran` stays
  /// false — and the JSON keeps its historical shape — otherwise.
  struct RepairSummary {
    bool ran = false;
    std::uint64_t findings = 0;
    std::uint64_t repairs = 0;
    /// Distinct finding-kind names, canonical order.
    std::vector<std::string> kinds;
    std::uint64_t findings_hash = 0;
    std::uint64_t state_hash = 0;
    std::uint64_t post_violations = 0;
    /// fsck re-check came back clean AND the post-repair oracle sweep
    /// observed no violations.
    bool post_clean = false;
  };
  RepairSummary repair;

  bool clean() const { return violations.empty(); }
};

/// Render a verdict as one JSON object (stable field order; hashes as hex).
std::string verdict_json(const RunVerdict& verdict);

/// Site-free FNV-1a over the (when, id) pairs of a recorded event stream.
std::uint64_t stream_hash(const sim::ReplayRecorder& recorder);

/// One deterministic fault-campaign run over a plan.
class FaultCampaign {
 public:
  FaultCampaign(const sim::FaultPlan& plan, std::uint64_t seed,
                const CampaignConfig& cfg = {});

  /// Arm the plan, drive workload + oracle sweeps to the horizon, and
  /// return the verdict. Call once per instance.
  RunVerdict run();

  sim::Simulator& simulator() { return sim_; }
  sim::OracleSuite& oracles() { return suite_; }
  sim::FaultInjector& injector() { return injector_; }
  fs::FsNamespace& ns() { return *ns_; }
  block::Ssu& ssu() { return ssu_; }
  sim::FlowNetwork& network() { return net_; }
  WriteLedger& ledger() { return ledger_; }
  OpJournal& journal() { return journal_; }
  /// The redo log every create/purge-unlink lands in (fs/journal.hpp);
  /// what spiderfsck cross-references the namespace against.
  fs::OpLog& oplog() { return oplog_; }
  RebuildTracker& rebuilds() { return rebuilds_; }
  /// The purge-report log the purge-age oracle watches.
  std::vector<fs::PurgeReport>& purge_log() { return purge_reports_; }

  /// The namespace + op journal as one fsck target (no DNE facet: the
  /// campaign cluster models a single-MDS namespace).
  FsckTarget fsck_target();

  /// Post-run fsck stage: repair the namespace/journal/OSTs, re-check that
  /// the repair converged, refresh the campaign's journal counters from the
  /// op-log replay, and re-run every oracle against the repaired state.
  /// Call after run() — it checks state, not the event stream.
  struct FsckOutcome {
    FsckReport report;      ///< primary (repairing) pass
    bool converged = false; ///< dry re-check found nothing
    std::vector<sim::OracleViolation> post_violations;
    bool post_clean() const { return converged && post_violations.empty(); }
  };
  FsckOutcome fsck_and_reverify();

 private:
  /// Arm the plan and schedule the workload drivers + oracle sweeps.
  void prepare();
  /// Collect telemetry into the verdict once the horizon is reached.
  RunVerdict finish();
  void bind_faults();
  void bind_triggers();
  void add_oracles();
  void sync_network();
  void start_rebuild(std::size_t g, std::size_t m);
  /// Schedule `fn` every `interval` until the horizon (first run at
  /// `interval`). The driver closure lives in drivers_ so recurrence needs
  /// no self-owning shared state.
  void every(sim::SimTime interval, std::function<void()> fn);
  void do_create();
  void do_read();
  void do_purge();

  sim::FaultPlan plan_;
  std::uint64_t seed_;
  CampaignConfig cfg_;
  sim::Simulator sim_;
  Rng rng_;
  block::Ssu ssu_;
  std::vector<fs::Ost> osts_;
  std::unique_ptr<fs::FsNamespace> ns_;
  sim::FlowNetwork net_;
  sim::FaultInjector injector_;
  sim::OracleSuite suite_;
  sim::ReplayRecorder recorder_;
  WriteLedger ledger_;
  OpJournal journal_;
  fs::OpLog oplog_;
  RebuildTracker rebuilds_;
  std::vector<fs::PurgeReport> purge_reports_;
  std::vector<fs::FileId> files_;
  std::list<std::function<void()>> drivers_;
  std::vector<sim::ResourceId> ost_res_;
  sim::ResourceId controller_res_ = 0;
  sim::ResourceId router_res_ = 0;
  double router_base_capacity_ = 0.0;
  sim::SimTime horizon_ = 0;
};

/// Convenience: build, run, and return the verdict for (plan, seed).
RunVerdict run_campaign(const sim::FaultPlan& plan, std::uint64_t seed,
                        const CampaignConfig& cfg = {});

/// run_campaign plus the fsck stage: after the horizon, repair the cluster
/// state, re-run every oracle, and fold the outcome into verdict.repair.
/// The event-stream hashes are untouched — fsck runs outside the simulation.
RunVerdict run_campaign_checked(const sim::FaultPlan& plan, std::uint64_t seed,
                                const CampaignConfig& cfg = {});

}  // namespace spider::tools
