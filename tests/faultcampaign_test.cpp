// End-to-end tests for the fault-campaign engine: benign runs stay clean,
// identical (plan, seed) pairs produce identical replay hashes, every
// catalogued oracle fires under a seeded breach, and verdict JSON carries
// what docs/fault-injection.md promises.
#include "tools/faultcli/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "sim/faultplan.hpp"
#include "sim/time.hpp"

namespace {

using namespace spider;
using namespace spider::sim;
using namespace spider::tools;

FaultPlan benign_plan(double horizon_s = 120.0) {
  FaultPlan plan;
  plan.name = "benign";
  plan.horizon_s = horizon_s;
  return plan;
}

FaultPlan stormy_plan() {
  FaultPlan plan = parse_fault_plan(R"(
name = "storm"
horizon_s = 240
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
kind = "controller-failover"
at_s = 60
duration_s = 30
[[inject]]
kind = "mds-stall"
at_s = 100
duration_s = 30
[[inject]]
kind = "congestion-spike"
at_s = 140
duration_s = 30
magnitude = 8
[[inject]]
kind = "slow-disk-onset"
at_s = 170
group = 4
member = 3
magnitude = 5
)");
  return plan;
}

TEST(FaultCampaign, BenignPlanRunsCleanWithLiveWorkload) {
  // Horizon must exceed the campaign purge window (~173 s) or no file can
  // ever age out.
  const RunVerdict verdict = run_campaign(benign_plan(360.0), 1);
  EXPECT_TRUE(verdict.clean()) << verdict_json(verdict);
  EXPECT_GT(verdict.files_created, 10u);
  EXPECT_GT(verdict.files_purged, 0u);
  EXPECT_GT(verdict.delivered, 0.0);
  EXPECT_GT(verdict.events, 100u);
  EXPECT_EQ(verdict.injections_fired, 0u);
  EXPECT_FALSE(verdict.data_lost);
}

TEST(FaultCampaign, StormPlanFiresInjectionsAndStaysClean) {
  const RunVerdict verdict = run_campaign(stormy_plan(), 7);
  EXPECT_TRUE(verdict.clean()) << verdict_json(verdict);
  EXPECT_EQ(verdict.injections_fired, 6u);
  // enclosure-loss, failover, stall, and congestion all carry durations and
  // revert within the horizon.
  EXPECT_EQ(verdict.reverts_fired, 4u);
  EXPECT_GT(verdict.files_created, 10u);
}

TEST(FaultCampaign, EveryFaultKindHasAnInjectorBinding) {
  // The plan parser accepts every kind, but arm() throws on an unbound one
  // only once some plan uses it: check the whole table up front.
  FaultCampaign campaign(benign_plan(), 1);
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const auto kind = static_cast<FaultKind>(i);
    EXPECT_TRUE(campaign.injector().bound(kind)) << to_string(kind);
  }
}

TEST(FaultCampaign, IdenticalPlanAndSeedGiveIdenticalHashes) {
  const RunVerdict a = run_campaign(stormy_plan(), 7);
  const RunVerdict b = run_campaign(stormy_plan(), 7);
  EXPECT_EQ(a.replay_hash, b.replay_hash);
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.files_created, b.files_created);
  EXPECT_EQ(a.delivered, b.delivered);
}

TEST(FaultCampaign, DifferentSeedsDiverge) {
  const RunVerdict a = run_campaign(benign_plan(), 1);
  const RunVerdict b = run_campaign(benign_plan(), 2);
  EXPECT_NE(a.replay_hash, b.replay_hash);
}

TEST(FaultCampaign, MutatedPlansStayDeterministic) {
  const FaultPlan base = stormy_plan();
  Rng ma(11);
  Rng mb(11);
  const FaultPlan mutant_a = mutate_plan(base, campaign_bounds(), ma);
  const FaultPlan mutant_b = mutate_plan(base, campaign_bounds(), mb);
  const RunVerdict a = run_campaign(mutant_a, 3);
  const RunVerdict b = run_campaign(mutant_b, 3);
  EXPECT_EQ(a.replay_hash, b.replay_hash) << "identical mutants must replay "
                                             "identically";
}

TEST(FaultCampaign, MdsStallSuppressesCreates) {
  FaultPlan stall;
  stall.name = "stall";
  stall.horizon_s = 120.0;
  Injection inj;
  inj.kind = FaultKind::kMdsStall;
  inj.at = 10 * kSecond;
  inj.duration = 200 * kSecond;  // outlasts the horizon: no revert
  stall.injections.push_back(inj);

  const RunVerdict stalled = run_campaign(stall, 5);
  const RunVerdict free_run = run_campaign(benign_plan(), 5);
  EXPECT_TRUE(stalled.clean()) << verdict_json(stalled);
  EXPECT_LT(stalled.files_created, free_run.files_created / 2);
}

// Every catalogued oracle must demonstrably fire on a seeded breach — a
// safety net that never trips is indistinguishable from no safety net.
TEST(FaultCampaign, AllSixOraclesFireOnSeededBreaches) {
  FaultCampaign campaign(benign_plan(), 42);

  // 1. flow-conservation: pathless flow whose rate escapes every capacity.
  FlowDesc rogue;
  rogue.size = 1e12;
  rogue.rate_cap = 1e18;
  campaign.network().start_flow(std::move(rogue));
  // 2. write-accounting: acked bytes with no matching issue.
  campaign.ledger().acked += 1e9;
  // 3. raid-read-safety: a read served from a failed member.
  campaign.ssu().group(0).fail_member(0);
  campaign.ssu().group(0).note_read(0);
  // 4. rebuild-monotone: progress that moves backwards.
  campaign.rebuilds().samples_mutable().push_back({2, 0.5, true});
  campaign.rebuilds().samples_mutable().push_back({2, 0.1, false});
  // 5. namespace-journal: a create that bypasses the journal.
  Rng rng(1);
  campaign.ns().create_file(0, 8_MiB, 0, rng);
  // 6. purge-age: a sweep that deleted a file younger than the window.
  fs::PurgeReport bad;
  bad.purged = 1;
  bad.min_purged_age_s = 0.5;
  campaign.purge_log().push_back(bad);

  campaign.oracles().check_now();
  const auto fired = campaign.oracles().fired_oracles();
  const std::vector<std::string> expected{
      "flow-conservation", "write-accounting",  "raid-read-safety",
      "rebuild-monotone",  "namespace-journal", "purge-age"};
  for (const std::string& name : expected) {
    EXPECT_NE(std::find(fired.begin(), fired.end(), name), fired.end())
        << "oracle '" << name << "' did not fire; fired: "
        << violations_json(campaign.oracles().violations());
  }
  EXPECT_GE(fired.size(), 6u);
}

TEST(FaultCampaign, PurgeAgeOracleGuardsTheNothingPurgedSentinel) {
  // Regression: PurgeReport::min_purged_age_s defaults to +infinity. A
  // sweep that purged nothing used to push +inf into the age comparison —
  // vacuously passing, but also serialized as bare `inf`. The oracle now
  // skips empty sweeps, and flags purged > 0 with no recorded age as a
  // malformed report.
  std::vector<fs::PurgeReport> reports;
  fs::PurgeReport idle;
  idle.scanned = 100;  // purged == 0, min age left at the +inf sentinel
  reports.push_back(idle);

  const auto oracle = make_purge_age_oracle(reports, 14.0);
  std::vector<sim::OracleViolation> out;
  oracle->check(0, out);
  EXPECT_TRUE(out.empty()) << violations_json(out);

  fs::PurgeReport healthy;
  healthy.purged = 2;
  healthy.min_purged_age_s = 15.0 * 86400.0;
  reports.push_back(healthy);
  oracle->check(1, out);
  EXPECT_TRUE(out.empty()) << violations_json(out);

  fs::PurgeReport malformed;
  malformed.purged = 3;  // +inf age despite purging: malformed
  reports.push_back(malformed);
  oracle->check(2, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].detail.find("no minimum age"), std::string::npos)
      << out[0].detail;

  fs::PurgeReport young;
  young.purged = 1;
  young.min_purged_age_s = 0.5;  // genuinely too young: still fires
  reports.push_back(young);
  oracle->check(3, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[1].detail.find("younger than"), std::string::npos)
      << out[1].detail;
}

TEST(FaultCampaign, ChangelogOracleGreenOnConsistentRedOnCorruption) {
  FaultCampaign campaign(benign_plan(), 7);
  Rng rng(2);
  for (int i = 0; i < 24; ++i) {
    campaign.ns().create_file(static_cast<std::uint32_t>(i % 3), 8_MiB, 0,
                              rng);
  }
  campaign.oplog().commit(campaign.oplog().last_txid());

  fs::ChangelogAccounting acct;
  const auto oracle =
      make_changelog_oracle(campaign.ns(), campaign.oplog(), acct);
  std::vector<sim::OracleViolation> out;
  oracle->check(0, out);
  EXPECT_TRUE(out.empty()) << violations_json(out);

  // More churn lands, but one record is lost in flight — interior
  // corruption in the range the next sweep will consume. The sweep must
  // call the accounting untrustworthy, naming the hole.
  for (int i = 0; i < 8; ++i) {
    campaign.ns().create_file(static_cast<std::uint32_t>(i % 3), 8_MiB, 0,
                              rng);
  }
  campaign.oplog().commit(campaign.oplog().last_txid());
  auto& recs = campaign.oplog().records_mutable();
  const std::size_t cut = recs.size() - 4;
  const fs::OpRecord lost = recs[cut];
  recs.erase(recs.begin() + static_cast<std::ptrdiff_t>(cut));
  oracle->check(1, out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].oracle, "changelog-consistency");
  EXPECT_NE(out[0].detail.find("gap"), std::string::npos) << out[0].detail;

  // Repair the log (spiderfsck's backfill), force a full replay, and the
  // oracle goes green again.
  recs.insert(recs.begin() + static_cast<std::ptrdiff_t>(cut), lost);
  acct.rebuild(campaign.oplog());
  out.clear();
  oracle->check(2, out);
  EXPECT_TRUE(out.empty()) << violations_json(out);
}

TEST(FaultCampaign, ChangelogOracleDetectsCrashRewoundCursor) {
  FaultCampaign campaign(benign_plan(), 11);
  Rng rng(3);
  for (int i = 0; i < 16; ++i) {
    campaign.ns().create_file(0, 8_MiB, 0, rng);
  }
  campaign.oplog().commit(campaign.oplog().last_txid());

  fs::ChangelogAccounting acct;
  const auto oracle =
      make_changelog_oracle(campaign.ns(), campaign.oplog(), acct);
  std::vector<sim::OracleViolation> out;
  oracle->check(0, out);
  ASSERT_TRUE(out.empty()) << violations_json(out);

  // Crash: the log rewinds under live namespace state. The oracle must
  // call out the rewound cursor, not silently re-consume reused txids.
  campaign.oplog().truncate_to(campaign.oplog().committed() / 2);
  oracle->check(1, out);
  ASSERT_FALSE(out.empty());
  EXPECT_NE(out[0].detail.find("rewound"), std::string::npos)
      << out[0].detail;

  // Recovery is a ground-truth resync (the committed prefix can no longer
  // describe the live namespace); afterwards the oracle is green again.
  acct.rebuild_from_namespace(campaign.ns(), campaign.oplog());
  out.clear();
  oracle->check(2, out);
  EXPECT_TRUE(out.empty()) << violations_json(out);
}

TEST(FaultCampaign, DataLossScenarioIsReportedNotMasked) {
  // Three members of one group fail: beyond RAID-6 parity. The verdict must
  // carry data_lost while accounting stays consistent (no oracle fires for
  // the loss itself — losing data is legal, lying about bytes is not).
  FaultPlan plan;
  plan.name = "triple-fault";
  plan.horizon_s = 120.0;
  for (std::uint32_t m = 0; m < 3; ++m) {
    Injection inj;
    inj.kind = FaultKind::kDiskFail;
    inj.at = (10 + m) * kSecond;
    inj.group = 2;
    inj.member = m;
    plan.injections.push_back(inj);
  }
  const RunVerdict verdict = run_campaign(plan, 9);
  EXPECT_TRUE(verdict.data_lost);
  EXPECT_TRUE(verdict.clean()) << verdict_json(verdict);
  EXPECT_EQ(verdict.injections_fired, 3u);
}

TEST(FaultCampaign, VerdictJsonCarriesReproductionRecipe) {
  const RunVerdict verdict = run_campaign(benign_plan(60.0), 17);
  const std::string json = verdict_json(verdict);
  EXPECT_NE(json.find("\"plan\": \"benign\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"seed\": 17"), std::string::npos) << json;
  EXPECT_NE(json.find("\"replay_hash\": \"0x"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stream_hash\": \"0x"), std::string::npos) << json;
  EXPECT_NE(json.find("\"clean\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"violations\": []"), std::string::npos) << json;
}

TEST(FaultCampaign, ParallelCampaignsMatchSerialVerdictsExactly) {
  // The spiderfault --jobs=N contract in miniature: campaigns fanned out via
  // parallel_for must produce verdict JSON byte-identical to the same
  // campaigns run serially. Campaign state is all run-local, so parallel
  // runs may not perturb hashes, telemetry, or oracle outcomes.
  std::vector<std::pair<sim::FaultPlan, std::uint64_t>> runs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    runs.emplace_back(benign_plan(90.0), seed);
    runs.emplace_back(stormy_plan(), seed);
  }

  std::vector<std::string> serial(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    serial[i] = verdict_json(run_campaign(runs[i].first, runs[i].second));
  }

  std::vector<std::string> parallel(runs.size());
  parallel_for(
      runs.size(),
      [&](std::size_t i) {
        parallel[i] = verdict_json(run_campaign(runs[i].first, runs[i].second));
      },
      8);

  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "run " << i;
  }
}

TEST(FaultCampaign, CampaignBoundsMatchClusterShape) {
  CampaignConfig cfg;
  cfg.raid_groups = 6;
  cfg.enclosures = 5;
  const PlanBounds bounds = campaign_bounds(cfg);
  EXPECT_EQ(bounds.groups, 6u);
  EXPECT_EQ(bounds.members, 10u);
  EXPECT_EQ(bounds.enclosures, 5u);
  EXPECT_EQ(bounds.resources, 8u);
}

}  // namespace
