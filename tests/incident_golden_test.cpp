// Golden-trace regression for the fault path.
//
// Two traces are pinned under fixed seeds:
//   1. bench_c13_incident_replay's computation — replay_incident_2010 under
//      Rng(2014) for the 5- and 10-enclosure designs — with its final
//      telemetry folded into one FNV-1a hash.
//   2. A fault-campaign run (storm plan, seed 2014) — its site-free stream
//      hash and final telemetry.
//
// These values change ONLY when fault-path behavior changes. A refactor that
// trips this test must update the goldens deliberately (and say why in the
// commit); see docs/fault-injection.md#golden-traces.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "block/failure.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "sim/faultplan.hpp"
#include "tools/faultcli/campaign.hpp"

namespace {

using namespace spider;

std::uint64_t outcome_hash(const block::IncidentOutcome& outcome) {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a(h, outcome.enclosures);
  h = fnv1a(h, outcome.data_lost ? 1 : 0);
  h = fnv1a(h, outcome.groups_lost);
  h = fnv1a(h, outcome.journal_files_lost);
  h = fnv1a(h, static_cast<std::uint64_t>(outcome.recovered_fraction * 1e6));
  h = fnv1a(h, static_cast<std::uint64_t>(outcome.recovery_days * 1e6));
  for (const std::string& line : outcome.timeline) h = fnv1a_bytes(h, line);
  return h;
}

block::IncidentOutcome replay(std::size_t enclosures) {
  Rng rng(2014);
  block::IncidentConfig cfg;
  cfg.enclosures = enclosures;
  return replay_incident_2010(cfg, rng);
}

TEST(IncidentGolden, FiveEnclosureDesignTelemetryIsPinned) {
  const block::IncidentOutcome outcome = replay(5);
  EXPECT_TRUE(outcome.data_lost);
  EXPECT_EQ(outcome.groups_lost, 1u);
  EXPECT_EQ(outcome.journal_files_lost, 1'200'000u);
  EXPECT_DOUBLE_EQ(outcome.recovered_fraction, 0.95);
  EXPECT_EQ(outcome_hash(outcome), 0xcf4671747726fd31ull)
      << "actual: 0x" << std::hex << outcome_hash(outcome);
}

TEST(IncidentGolden, TenEnclosureDesignTelemetryIsPinned) {
  const block::IncidentOutcome outcome = replay(10);
  EXPECT_FALSE(outcome.data_lost);
  EXPECT_EQ(outcome.groups_lost, 0u);
  EXPECT_EQ(outcome.journal_files_lost, 0u);
  EXPECT_EQ(outcome_hash(outcome), 0xf919a8f805da0a6cull)
      << "actual: 0x" << std::hex << outcome_hash(outcome);
}

TEST(IncidentGolden, IncidentReplayIsSeedDeterministic) {
  EXPECT_EQ(outcome_hash(replay(5)), outcome_hash(replay(5)));
  EXPECT_EQ(outcome_hash(replay(10)), outcome_hash(replay(10)));
}

sim::FaultPlan golden_storm_plan() {
  return sim::parse_fault_plan(R"(
name = "golden-storm"
horizon_s = 120
[[inject]]
kind = "disk-fail"
at_s = 20
group = 1
member = 2
[[inject]]
kind = "enclosure-loss"
trigger = "rebuild-active"
at_s = 20
duration_s = 40
enclosure = 7
[[inject]]
kind = "congestion-spike"
at_s = 80
duration_s = 20
magnitude = 8
)");
}

TEST(IncidentGolden, CampaignStreamHashIsPinned) {
  const sim::FaultPlan plan = golden_storm_plan();
  const tools::RunVerdict verdict = tools::run_campaign(plan, 2014);
  EXPECT_TRUE(verdict.clean()) << tools::verdict_json(verdict);
  // The site-free stream hash pins event (time, id) order; telemetry pins
  // the workload outcome. Both are independent of source line numbers.
  EXPECT_EQ(verdict.stream_hash, 0x0710faa19bdba7aaull)
      << "actual: 0x" << std::hex << verdict.stream_hash << "\n"
      << tools::verdict_json(verdict);
  EXPECT_EQ(verdict.events, 273u) << tools::verdict_json(verdict);
  EXPECT_EQ(verdict.files_created, 60u) << tools::verdict_json(verdict);
  EXPECT_EQ(verdict.injections_fired, 3u);
  EXPECT_EQ(verdict.reverts_fired, 2u);
}

TEST(IncidentGolden, CorruptRepairTraceIsPinned) {
  // Golden corrupt -> repair trace (docs/fsck.md): the storm campaign's
  // final state is damaged by a fixed seeded corruption set, then repaired
  // by spiderfsck. The findings hash pins what the detectors see; the state
  // hash pins what the repairers leave behind. Like the stream-hash pins
  // above, these change ONLY when fsck behavior changes — update them
  // deliberately and say why in the commit.
  tools::FaultCampaign campaign(golden_storm_plan(), 2014);
  const tools::RunVerdict verdict = campaign.run();
  ASSERT_TRUE(verdict.clean()) << tools::verdict_json(verdict);
  // The fsck stage runs outside the simulation: the pinned stream hash must
  // be untouched by journaling the campaign's creates and purge-unlinks.
  ASSERT_EQ(verdict.stream_hash, 0x0710faa19bdba7aaull);

  Rng rng(2014);
  for (const tools::FindingKind kind :
       {tools::FindingKind::kBadRecordId, tools::FindingKind::kDanglingStripe,
        tools::FindingKind::kJournalMissingCreate,
        tools::FindingKind::kLiveCountDrift,
        tools::FindingKind::kOrphanObjects}) {
    ASSERT_FALSE(
        tools::inject_corruption(campaign.fsck_target(), kind, rng).empty());
  }

  const tools::FaultCampaign::FsckOutcome out = campaign.fsck_and_reverify();
  EXPECT_TRUE(out.post_clean()) << tools::fsck_report_json(out.report);
  // Six findings from five injections: the dangling-stripe repair reclaims
  // the pruned ref's bytes as an orphan-objects finding on the victim OST.
  EXPECT_EQ(out.report.repairs_applied, 6u)
      << tools::fsck_report_json(out.report);
  EXPECT_EQ(out.report.findings_hash, 0xeb00dba43860647full)
      << "actual: 0x" << std::hex << out.report.findings_hash << "\n"
      << tools::fsck_report_json(out.report);
  EXPECT_EQ(out.report.state_hash, 0xf54f6b019c57f2ffull)
      << "actual: 0x" << std::hex << out.report.state_hash;
  EXPECT_EQ(tools::fsck_state_hash(campaign.fsck_target()),
            out.report.state_hash);
}

TEST(IncidentGolden, ShardedCampaignReproducesSerialGolden) {
  // The sharded engine's acceptance bar: the same campaign hosted on a
  // ShardedSimulator must reproduce the pinned serial goldens — verdict JSON
  // included — at every shard count. The epoch barriers are invisible in the
  // replay stream.
  const sim::FaultPlan plan = golden_storm_plan();
  const std::string serial_json =
      tools::verdict_json(tools::run_campaign(plan, 2014));
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const tools::RunVerdict verdict =
        tools::run_campaign_sharded(plan, 2014, {}, shards, /*workers=*/1);
    EXPECT_EQ(verdict.stream_hash, 0x0710faa19bdba7aaull)
        << "shards=" << shards << " actual: 0x" << std::hex
        << verdict.stream_hash;
    EXPECT_EQ(verdict.events, 273u) << "shards=" << shards;
    EXPECT_EQ(tools::verdict_json(verdict), serial_json)
        << "shards=" << shards;
  }
  // And with the epoch fan-out actually enabled (workers = auto).
  const tools::RunVerdict fanned =
      tools::run_campaign_sharded(plan, 2014, {}, 4, 0);
  EXPECT_EQ(tools::verdict_json(fanned), serial_json);
}

}  // namespace
