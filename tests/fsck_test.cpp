// spiderfsck breach-proof and determinism tests.
//
// Two bars are pinned here:
//   1. Breach-proofing: for every finding kind, a seeded corruption is
//      detected by a dry run, repaired by one repairing pass, and the
//      repaired tree re-checks clean — with every campaign oracle passing
//      again on the repaired state (the inject -> detect -> fsck ->
//      re-run-oracles loop from docs/fsck.md).
//   2. Determinism: the findings list, report JSON, and repaired-state hash
//      are invariant across worker counts (--jobs 1/2/4/8), shard counts,
//      and shard-assignment permutations — parallel fsck output is
//      byte-identical to serial.
//
// The DISABLED_UnrepairedCorruptTreeMustFail test is registered separately
// in tests/CMakeLists.txt with WILL_FAIL: it asserts a corrupt tree checks
// clean, which must fail — pinning that the detectors actually detect (a
// fsck that reports clean on damage would pass every other test here).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/faultplan.hpp"
#include "tools/faultcli/campaign.hpp"
#include "tools/spiderfsck/fsck.hpp"

namespace {

using namespace spider;

// A quiet campaign: background workload and oracle sweeps, no injections.
// Corruption comes from inject_corruption, not the fault plan, so every
// oracle violation observed post-repair is the fsck stage's fault. The
// horizon is long enough for purge sweeps to unlink files (the campaign
// purge window is ~173s), so the op log holds both create and unlink
// records for the journal-facing injections to chew on.
sim::FaultPlan quiet_plan() {
  return sim::parse_fault_plan(R"(
name = "fsck-quiet"
horizon_s = 420
)");
}

constexpr tools::FindingKind kCampaignKinds[] = {
    tools::FindingKind::kBadRecordId,
    tools::FindingKind::kDanglingStripe,
    tools::FindingKind::kJournalMissingCreate,
    tools::FindingKind::kJournalMissingUnlink,
    tools::FindingKind::kJournalGhostUnlink,
    tools::FindingKind::kLiveCountDrift,
    tools::FindingKind::kCreateCountDrift,
    tools::FindingKind::kOrphanObjects,
    tools::FindingKind::kLostObjects,
};

bool has_kind(const tools::FsckReport& report, tools::FindingKind kind) {
  for (const tools::Finding& f : report.findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

TEST(FsckBreach, EveryKindIsDetectedRepairedAndOraclesPassAgain) {
  for (const tools::FindingKind kind : kCampaignKinds) {
    SCOPED_TRACE(std::string(tools::finding_kind_name(kind)));
    tools::FaultCampaign campaign(quiet_plan(), 2014);
    const tools::RunVerdict verdict = campaign.run();
    ASSERT_TRUE(verdict.clean()) << tools::verdict_json(verdict);

    Rng rng(7 + static_cast<std::uint64_t>(kind));
    const std::string damage =
        tools::inject_corruption(campaign.fsck_target(), kind, rng);
    ASSERT_FALSE(damage.empty());

    // Detect: a dry run names the injected kind and reports dirty.
    const tools::FsckReport dry =
        tools::run_fsck(campaign.fsck_target(), tools::FsckOptions{});
    EXPECT_FALSE(dry.clean()) << damage;
    EXPECT_TRUE(has_kind(dry, kind))
        << damage << "\n" << tools::fsck_report_json(dry);

    // Repair: one pass converges and all six oracles pass on the repaired
    // state (PR-3 oracle suite re-run via recheck_now()).
    const tools::FaultCampaign::FsckOutcome out = campaign.fsck_and_reverify();
    EXPECT_FALSE(out.report.clean());
    EXPECT_GT(out.report.repairs_applied, 0u);
    EXPECT_TRUE(out.converged) << tools::fsck_report_json(out.report);
    EXPECT_TRUE(out.post_violations.empty())
        << sim::violations_json(out.post_violations);
    EXPECT_TRUE(out.post_clean());
  }
}

TEST(FsckBreach, DneLoadDriftIsDetectedAndRepaired) {
  // The campaign cluster models a single-MDS namespace; the DNE facet is
  // exercised on the synthetic cluster instead.
  tools::SyntheticFs fs = tools::make_synthetic_fs();
  Rng rng(99);
  const std::string damage = tools::inject_corruption(
      fs.target(), tools::FindingKind::kDneLoadDrift, rng);
  ASSERT_FALSE(damage.empty());
  const tools::FsckReport dry = tools::run_fsck(fs.target());
  EXPECT_TRUE(has_kind(dry, tools::FindingKind::kDneLoadDrift));

  tools::FsckOptions repair;
  repair.repair = true;
  EXPECT_FALSE(tools::run_fsck(fs.target(), repair).clean());
  EXPECT_TRUE(tools::run_fsck(fs.target()).clean());
}

TEST(FsckBreach, EveryListedKindRoundTripsOnTheSyntheticCluster) {
  // kAllFindingKinds is the kind census: it lists the enumerators in order
  // and ends where the named ones do. The synthetic cluster carries every
  // facet a kind can damage (journal and DNE), so each kind must inject, be
  // named by a dry run, and repair to a clean tree.
  const std::size_t kinds = std::size(tools::kAllFindingKinds);
  EXPECT_EQ(tools::finding_kind_name(static_cast<tools::FindingKind>(kinds)),
            "unknown");
  for (std::size_t i = 0; i < kinds; ++i) {
    const tools::FindingKind kind = tools::kAllFindingKinds[i];
    SCOPED_TRACE(std::string(tools::finding_kind_name(kind)));
    EXPECT_EQ(static_cast<std::size_t>(kind), i);
    tools::SyntheticFs fs = tools::make_synthetic_fs();
    Rng rng(7 + i);
    const std::string damage = tools::inject_corruption(fs.target(), kind, rng);
    ASSERT_FALSE(damage.empty());
    const tools::FsckReport dry = tools::run_fsck(fs.target());
    EXPECT_TRUE(has_kind(dry, kind))
        << damage << "\n" << tools::fsck_report_json(dry);

    tools::FsckOptions repair;
    repair.repair = true;
    EXPECT_FALSE(tools::run_fsck(fs.target(), repair).clean());
    const tools::FsckReport after = tools::run_fsck(fs.target());
    EXPECT_TRUE(after.clean()) << tools::fsck_report_json(after);
  }
}

TEST(FsckBreach, CleanTreesProduceNoFindings) {
  tools::SyntheticFs fs = tools::make_synthetic_fs();
  const tools::FsckReport report = tools::run_fsck(fs.target());
  EXPECT_TRUE(report.clean()) << tools::fsck_report_json(report);
  EXPECT_EQ(report.slots_scanned, fs.ns->slot_count());
  EXPECT_EQ(report.live_files, fs.ns->live_files());

  tools::FaultCampaign campaign(quiet_plan(), 2014);
  campaign.run();
  const tools::FsckReport campaign_report =
      tools::run_fsck(campaign.fsck_target());
  EXPECT_TRUE(campaign_report.clean())
      << tools::fsck_report_json(campaign_report);
}

// WILL_FAIL pin (see tests/CMakeLists.txt): a corrupt, unrepaired tree must
// NOT check clean. If a detector regresses into reporting clean, this test
// starts passing and the WILL_FAIL registration fails the build.
TEST(FsckBreach, DISABLED_UnrepairedCorruptTreeMustFail) {
  tools::SyntheticFs fs = tools::make_synthetic_fs();
  Rng rng(13);
  for (const tools::FindingKind kind : kCampaignKinds) {
    tools::inject_corruption(fs.target(), kind, rng);
  }
  const tools::FsckReport report = tools::run_fsck(fs.target());
  EXPECT_TRUE(report.clean()) << "corrupt tree correctly detected as dirty:\n"
                              << tools::fsck_report_json(report);
}

// --- determinism / metamorphic ---------------------------------------------

/// One deterministically corrupted synthetic tree (fresh copy per call —
/// repairs mutate, so every configuration must start from identical state).
tools::SyntheticFs corrupted_fs() {
  tools::SyntheticFs fs = tools::make_synthetic_fs();
  Rng rng(4242);
  for (const tools::FindingKind kind : kCampaignKinds) {
    tools::inject_corruption(fs.target(), kind, rng);
  }
  Rng dne_rng(4243);
  tools::inject_corruption(fs.target(), tools::FindingKind::kDneLoadDrift,
                           dne_rng);
  return fs;
}

TEST(FsckDeterminism, FindingsInvariantAcrossJobs) {
  tools::SyntheticFs fs = corrupted_fs();
  const tools::FsckReport serial = tools::run_fsck(fs.target());
  ASSERT_FALSE(serial.clean());
  const std::string serial_json = tools::fsck_report_json(serial);
  for (const std::size_t jobs : {2u, 4u, 8u}) {
    tools::FsckOptions options;
    options.jobs = jobs;
    const tools::FsckReport report = tools::run_fsck(fs.target(), options);
    EXPECT_EQ(report.findings_hash, serial.findings_hash) << "jobs=" << jobs;
    EXPECT_EQ(tools::fsck_report_json(report), serial_json) << "jobs=" << jobs;
  }
}

TEST(FsckDeterminism, FindingsInvariantAcrossShardAssignment) {
  tools::SyntheticFs fs = corrupted_fs();
  const std::string serial_json =
      tools::fsck_report_json(tools::run_fsck(fs.target()));
  for (const std::size_t shards : {1u, 2u, 5u, 8u, 13u}) {
    for (const tools::ShardAssignment assignment :
         {tools::ShardAssignment::kContiguous,
          tools::ShardAssignment::kStrided}) {
      tools::FsckOptions options;
      options.jobs = 4;
      options.shards = shards;
      options.assignment = assignment;
      const tools::FsckReport report = tools::run_fsck(fs.target(), options);
      EXPECT_EQ(tools::fsck_report_json(report), serial_json)
          << "shards=" << shards << " strided="
          << (assignment == tools::ShardAssignment::kStrided);
    }
  }
}

TEST(FsckDeterminism, RepairedStateHashMatchesSerialAtAnyFanout) {
  // Reference: serial repair.
  tools::SyntheticFs reference = corrupted_fs();
  tools::FsckOptions serial;
  serial.repair = true;
  const tools::FsckReport serial_report =
      tools::run_fsck(reference.target(), serial);
  ASSERT_TRUE(tools::run_fsck(reference.target()).clean());

  for (const std::size_t jobs : {2u, 4u, 8u}) {
    for (const tools::ShardAssignment assignment :
         {tools::ShardAssignment::kContiguous,
          tools::ShardAssignment::kStrided}) {
      tools::SyntheticFs fs = corrupted_fs();
      tools::FsckOptions options;
      options.repair = true;
      options.jobs = jobs;
      options.shards = 5;
      options.assignment = assignment;
      const tools::FsckReport report = tools::run_fsck(fs.target(), options);
      EXPECT_EQ(report.state_hash, serial_report.state_hash)
          << "jobs=" << jobs;
      EXPECT_EQ(tools::fsck_state_hash(fs.target()),
                tools::fsck_state_hash(reference.target()))
          << "jobs=" << jobs;
      EXPECT_TRUE(tools::run_fsck(fs.target()).clean()) << "jobs=" << jobs;
    }
  }
}

TEST(FsckDeterminism, CampaignFsckStageIsJobInvariant) {
  // The spiderfault --fsck path: verdict JSON (repair section included) is
  // identical whether the fsck scan runs serial or fanned out.
  tools::FsckOptions serial_fsck;
  const tools::RunVerdict serial =
      tools::run_campaign_checked(quiet_plan(), 2014, {}, serial_fsck);
  ASSERT_TRUE(serial.repair.ran);
  EXPECT_TRUE(serial.repair.post_clean);
  tools::FsckOptions fanned_fsck;
  fanned_fsck.jobs = 8;
  const tools::RunVerdict fanned =
      tools::run_campaign_checked(quiet_plan(), 2014, {}, fanned_fsck);
  EXPECT_EQ(tools::verdict_json(serial), tools::verdict_json(fanned));
}

// --- journal-cursor replay (fs/recovery) ------------------------------------

TEST(FsckJournal, RepairAdvancesCommittedCursorOverBackfilledTail) {
  tools::SyntheticFs fs = tools::make_synthetic_fs();
  const std::uint64_t committed_before = fs.journal->committed();
  Rng rng(5);
  ASSERT_FALSE(tools::inject_corruption(
                   fs.target(), tools::FindingKind::kJournalMissingCreate, rng)
                   .empty());
  tools::FsckOptions repair;
  repair.repair = true;
  const tools::FsckReport report = tools::run_fsck(fs.target(), repair);
  EXPECT_TRUE(has_kind(report, tools::FindingKind::kJournalMissingCreate));
  // The backfilled create landed past the old cursor and the cursor replay
  // folded it into the durable prefix.
  EXPECT_GT(report.journal_replayed, 0u);
  EXPECT_EQ(fs.journal->committed(), fs.journal->last_txid());
  EXPECT_GE(fs.journal->committed(), committed_before);
  EXPECT_TRUE(tools::run_fsck(fs.target()).clean());
}

}  // namespace
