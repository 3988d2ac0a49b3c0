// Changelog consumer layer (fs/changelog.hpp) + incremental purge engine:
// cursor/crash contract, per-project accounting, and the
// policy-class sweep — the unit tier behind ROADMAP item 2.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "block/disk.hpp"
#include "block/raid.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fs/changelog.hpp"
#include "fs/fs_namespace.hpp"
#include "fs/journal.hpp"
#include "fs/purge.hpp"

namespace {

using namespace spider;
using namespace spider::fs;

std::vector<block::Disk> healthy_members(std::size_t n = 10) {
  std::vector<block::Disk> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(block::DiskParams{}, static_cast<std::uint32_t>(i), 1.0,
                     1e-4);
  }
  return out;
}

/// A small self-owning OST fleet (same shape fs_test uses).
struct Fleet {
  std::vector<std::unique_ptr<block::Raid6Group>> groups;
  std::vector<std::unique_ptr<Ost>> osts;
  std::vector<Ost*> ptrs;

  explicit Fleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      groups.push_back(std::make_unique<block::Raid6Group>(
          block::RaidParams{}, healthy_members()));
      osts.push_back(
          std::make_unique<Ost>(static_cast<std::uint32_t>(i), groups.back().get()));
      ptrs.push_back(osts.back().get());
    }
  }
};

// --- record emission ---------------------------------------------------------

TEST(Changelog, OpKindNamesCoverAllKinds) {
  EXPECT_STREQ(op_kind_name(OpKind::kCreate), "create");
  EXPECT_STREQ(op_kind_name(OpKind::kUnlink), "unlink");
  EXPECT_STREQ(op_kind_name(OpKind::kSetattr), "setattr");
  EXPECT_STREQ(op_kind_name(OpKind::kResize), "resize");
  EXPECT_STREQ(op_kind_name(OpKind::kSetProject), "setproject");
}

TEST(Changelog, AttachedNamespaceJournalsEveryMutationKind) {
  Fleet fleet(4);
  FsNamespace ns("chg", fleet.ptrs);
  OpLog log;
  ns.attach_oplog(&log, kLogDefault);
  Rng rng(7);

  const FileId id = ns.create_file(3, 8_MiB, 10, rng);
  ASSERT_NE(id, kNoFile);
  ns.touch_file(id, 20);
  ASSERT_TRUE(ns.resize_file(id, 12_MiB, 30));
  ASSERT_TRUE(ns.set_project(id, 5, 40));
  ASSERT_TRUE(ns.unlink(id, 50));

  ASSERT_EQ(log.records().size(), 5u);
  const auto& recs = log.records();
  EXPECT_EQ(recs[0].kind, OpKind::kCreate);
  EXPECT_EQ(recs[0].project, 3u);
  EXPECT_EQ(recs[0].size, 8_MiB);
  EXPECT_EQ(recs[1].kind, OpKind::kSetattr);
  EXPECT_EQ(recs[2].kind, OpKind::kResize);
  EXPECT_EQ(recs[2].size, 12_MiB);
  EXPECT_EQ(recs[2].prev_size, 8_MiB);
  EXPECT_EQ(recs[3].kind, OpKind::kSetProject);
  EXPECT_EQ(recs[3].project, 5u);
  EXPECT_EQ(recs[3].prev_project, 3u);
  EXPECT_EQ(recs[4].kind, OpKind::kUnlink);
  EXPECT_EQ(recs[4].project, 5u);
  EXPECT_EQ(recs[4].size, 12_MiB);
  // Every record names the same file and carries its mutation time.
  for (const OpRecord& rec : recs) EXPECT_EQ(rec.file, id);
  EXPECT_EQ(recs[4].at, 50);
}

TEST(Changelog, AtimeRecordsAreMaskedOffByDefault) {
  Fleet fleet(2);
  FsNamespace ns("chg", fleet.ptrs);
  OpLog log;
  ns.attach_oplog(&log, kLogDefault);
  Rng rng(7);
  const FileId id = ns.create_file(0, 4_MiB, 0, rng);
  ns.read_file(id, 5);
  EXPECT_EQ(log.records().size(), 1u);  // the create only

  FsNamespace ns2("chg2", fleet.ptrs);
  OpLog log2;
  ns2.attach_oplog(&log2, kLogAll);
  const FileId id2 = ns2.create_file(0, 4_MiB, 0, rng);
  ns2.read_file(id2, 5);
  ASSERT_EQ(log2.records().size(), 2u);
  EXPECT_EQ(log2.records()[1].kind, OpKind::kSetattr);
}

TEST(Changelog, MaskFiltersRecordKinds) {
  Fleet fleet(2);
  FsNamespace ns("chg", fleet.ptrs);
  OpLog log;
  ns.attach_oplog(&log, kLogCreate);  // creates only
  Rng rng(7);
  const FileId id = ns.create_file(0, 4_MiB, 0, rng);
  ns.touch_file(id, 1);
  ASSERT_TRUE(ns.unlink(id, 2));
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].kind, OpKind::kCreate);
}

TEST(Changelog, SameProjectSetProjectEmitsNoRecord) {
  Fleet fleet(2);
  FsNamespace ns("chg", fleet.ptrs);
  OpLog log;
  ns.attach_oplog(&log, kLogDefault);
  Rng rng(7);
  const FileId id = ns.create_file(2, 4_MiB, 0, rng);
  ASSERT_TRUE(ns.set_project(id, 2, 1));  // no-op reassignment
  EXPECT_EQ(log.records().size(), 1u);
}

TEST(Changelog, FailedResizeLeavesNoRecord) {
  Fleet fleet(1);
  FsNamespace ns("chg", fleet.ptrs);
  OpLog log;
  ns.attach_oplog(&log, kLogDefault);
  Rng rng(7);
  const FileId id = ns.create_file(0, 4_MiB, 0, rng);
  const Bytes absurd = ns.ost(0).capacity() * 4;
  EXPECT_FALSE(ns.resize_file(id, absurd, 1));
  EXPECT_EQ(log.records().size(), 1u);  // just the create
  EXPECT_EQ(ns.file(id).size, 4_MiB);
}

// --- cursor / crash contract -------------------------------------------------

TEST(ChangelogCursor, ConsumesOnlyTheCommittedPrefix) {
  OpLog log;
  for (int i = 0; i < 5; ++i) {
    log.append(OpKind::kCreate, 100 + i, 0, 1_MiB, i);
  }
  log.commit(3);
  ChangelogCursor cursor;
  std::vector<std::uint64_t> seen;
  ConsumeResult res =
      cursor.consume(log, [&](const OpRecord& rec) { seen.push_back(rec.txid); });
  EXPECT_EQ(res.applied, 3u);
  EXPECT_EQ(res.cursor, 3u);
  EXPECT_FALSE(res.cursor_ahead);
  EXPECT_FALSE(res.gap);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));

  log.commit(5);
  res = cursor.consume(log, [&](const OpRecord& rec) { seen.push_back(rec.txid); });
  EXPECT_EQ(res.applied, 2u);
  EXPECT_EQ(res.cursor, 5u);
  EXPECT_EQ(seen.size(), 5u);
}

TEST(ChangelogCursor, CrashRewindIsDetectedNotAbsorbed) {
  OpLog log;
  for (int i = 0; i < 6; ++i) {
    log.append(OpKind::kCreate, 100 + i, 0, 1_MiB, i);
  }
  log.commit(6);
  ChangelogCursor cursor;
  std::uint64_t applied = 0;
  cursor.consume(log, [&](const OpRecord&) { ++applied; });
  ASSERT_EQ(applied, 6u);

  // MDS crash: the log rewinds below the consumer's durable cursor. The
  // next appends will REUSE txids 4..6 for different operations, so the
  // consumer must refuse to continue rather than silently double-apply.
  log.truncate_to(3);
  const ConsumeResult res =
      cursor.consume(log, [&](const OpRecord&) { ++applied; });
  EXPECT_TRUE(res.cursor_ahead);
  EXPECT_EQ(res.applied, 0u);
  EXPECT_EQ(applied, 6u);  // nothing re-applied
  EXPECT_EQ(cursor.position(), 6u);  // cursor untouched until a rebuild
}

TEST(ChangelogCursor, InteriorGapIsDiagnosedWithFirstMissingTxid) {
  OpLog log;
  for (int i = 0; i < 5; ++i) {
    log.append(OpKind::kCreate, 100 + i, 0, 1_MiB, i);
  }
  log.commit(5);
  // Seeded corruption: drop record 3 (records_mutable is the corruption
  // surface for tests and the fault tooling).
  auto& recs = log.records_mutable();
  recs.erase(recs.begin() + 2);
  ChangelogCursor cursor;
  std::uint64_t applied = 0;
  const ConsumeResult res =
      cursor.consume(log, [&](const OpRecord&) { ++applied; });
  EXPECT_TRUE(res.gap);
  EXPECT_EQ(res.first_gap_txid, 3u);
  EXPECT_EQ(res.applied, 4u);  // surviving records still applied
  EXPECT_EQ(applied, 4u);
}

TEST(ChangelogCursor, MissingCommittedTailIsAGap) {
  OpLog log;
  for (int i = 0; i < 4; ++i) {
    log.append(OpKind::kCreate, 100 + i, 0, 1_MiB, i);
  }
  log.commit(4);
  auto& recs = log.records_mutable();
  recs.pop_back();  // committed txid 4 has no record behind it
  ChangelogCursor cursor;
  const ConsumeResult res = cursor.consume(log, [](const OpRecord&) {});
  EXPECT_TRUE(res.gap);
  EXPECT_EQ(res.first_gap_txid, 4u);
}

// --- accounting --------------------------------------------------------------

TEST(ChangelogAccounting, DerivedUsageMatchesNamespaceWalk) {
  Fleet fleet(4);
  FsNamespace ns("acct", fleet.ptrs);
  OpLog log;
  ns.attach_oplog(&log, kLogDefault);
  Rng rng(11);

  std::vector<FileId> ids;
  for (int i = 0; i < 64; ++i) {
    const FileId id = ns.create_file(static_cast<std::uint32_t>(i % 5),
                                     (1 + i % 7) * 1_MiB, i, rng);
    ASSERT_NE(id, kNoFile);
    ids.push_back(id);
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) ns.touch_file(ids[i], 100);
  for (std::size_t i = 0; i < ids.size(); i += 4) {
    ns.resize_file(ids[i], 9_MiB, 110);
  }
  for (std::size_t i = 0; i < ids.size(); i += 5) {
    ns.set_project(ids[i], 7, 120);
  }
  for (std::size_t i = 0; i < ids.size(); i += 6) ns.unlink(ids[i], 130);
  log.commit(log.last_txid());

  ChangelogAccounting acct;
  const ConsumeResult res = acct.consume(log);
  EXPECT_FALSE(res.cursor_ahead);
  EXPECT_FALSE(res.gap);
  EXPECT_EQ(acct.usage(), ns.usage_by_project());

  std::uint64_t derived_files = 0;
  for (const auto& [project, row] : acct.rows()) derived_files += row.files;
  EXPECT_EQ(derived_files, ns.live_files());
}

TEST(ChangelogAccounting, SetProjectMovesBytesBetweenProjects) {
  OpLog log;
  log.append(OpKind::kCreate, 1, 2, 10_MiB, 0);
  log.append(OpKind::kSetProject, 1, 5, 10_MiB, 1, /*prev_project=*/2);
  log.commit(2);
  ChangelogAccounting acct;
  acct.consume(log);
  EXPECT_EQ(acct.bytes_of(2), 0u);
  EXPECT_EQ(acct.files_of(2), 0u);
  EXPECT_EQ(acct.bytes_of(5), 10_MiB);
  EXPECT_EQ(acct.files_of(5), 1u);
}

TEST(ChangelogAccounting, ProjectsSharingALookupSlotStaySeparate) {
  // Projects 3, 11 and 2^32 - 5 are all 3 mod 8, so they share one slot of
  // consume()'s row cache; records interleave them one by one.
  const std::uint32_t projects[] = {3, 11, 4294967291u};
  OpLog log;
  std::uint64_t file = 1;
  for (int round = 0; round < 4; ++round) {
    for (const std::uint32_t p : projects) {
      log.append(OpKind::kCreate, file++, p, (round + 1) * 1_MiB, round);
    }
  }
  // File 1 (project 3, 1 MiB) moves to project 11.
  log.append(OpKind::kSetProject, 1, 11, 1_MiB, 9, /*prev_project=*/3);
  log.commit(log.last_txid());
  ChangelogAccounting acct;
  acct.consume(log);
  EXPECT_EQ(acct.bytes_of(3), 9_MiB);
  EXPECT_EQ(acct.files_of(3), 3u);
  EXPECT_EQ(acct.bytes_of(11), 11_MiB);
  EXPECT_EQ(acct.files_of(11), 5u);
  EXPECT_EQ(acct.bytes_of(4294967291u), 10_MiB);
  EXPECT_EQ(acct.files_of(4294967291u), 4u);
}

TEST(ChangelogAccounting, RebuildFromNamespaceResyncsAfterLostRecords) {
  Fleet fleet(4);
  FsNamespace ns("acct", fleet.ptrs);
  OpLog log;
  ns.attach_oplog(&log, kLogDefault);
  Rng rng(17);
  for (int i = 0; i < 32; ++i) {
    ns.create_file(static_cast<std::uint32_t>(i % 3), 2_MiB, i, rng);
  }
  log.commit(log.last_txid());

  ChangelogAccounting acct;
  acct.consume(log);
  // Crash: lose half the committed log under live namespace state. A
  // prefix replay can never reconcile this — only ground truth can.
  log.truncate_to(16);
  EXPECT_TRUE(acct.consume(log).cursor_ahead);

  acct.rebuild_from_namespace(ns, log);
  EXPECT_EQ(acct.usage(), ns.usage_by_project());
  EXPECT_EQ(acct.cursor(), log.committed());

  // Incremental again after the resync: new mutations reuse lost txids
  // and the cursor picks them up cleanly.
  Rng rng2(18);
  ns.create_file(1, 4_MiB, 200, rng2);
  log.commit(log.last_txid());
  const ConsumeResult res = acct.consume(log);
  EXPECT_FALSE(res.cursor_ahead);
  EXPECT_EQ(res.applied, 1u);
  EXPECT_EQ(acct.usage(), ns.usage_by_project());
}

// --- incremental purge engine ------------------------------------------------

struct PurgeRig {
  Fleet fleet{4};
  FsNamespace ns{"purge", fleet.ptrs};
  OpLog log;

  PurgeRig() { ns.attach_oplog(&log, kLogDefault); }
};

TEST(PurgeEngine, SweepsOnlyFilesOlderThanTheWindow) {
  PurgeRig rig;
  Rng rng(19);
  const FileId old_file = rig.ns.create_file(0, 4_MiB, 0, rng);
  const FileId young = rig.ns.create_file(0, 4_MiB, 10 * sim::kDay, rng);
  rig.log.commit(rig.log.last_txid());

  PurgeRules rules;
  rules.classes.push_back(PurgeClass{/*window_days=*/7.0});
  PurgeEngine engine(rig.ns, rig.log, rules);
  engine.poll();

  const std::uint64_t walks_before = rig.ns.full_walks();
  const PurgeReport report = engine.sweep(11 * sim::kDay);
  EXPECT_EQ(rig.ns.full_walks(), walks_before);  // zero namespace walks
  EXPECT_EQ(report.purged, 1u);
  EXPECT_EQ(report.freed, 4_MiB);
  EXPECT_TRUE(report.has_min_age());
  EXPECT_GE(report.min_purged_age_s, 7.0 * 86400.0);
  EXPECT_FALSE(rig.ns.exists(old_file));
  EXPECT_TRUE(rig.ns.exists(young));

  // The engine's own unlink comes back as a record; the next poll must
  // treat it as a harmless echo.
  rig.log.commit(rig.log.last_txid());
  const ConsumeResult echo = engine.poll();
  EXPECT_FALSE(echo.cursor_ahead);
  EXPECT_FALSE(echo.gap);
}

TEST(PurgeEngine, AnyTouchRefreshesTheAgeIndex) {
  PurgeRig rig;
  Rng rng(23);
  const FileId touched = rig.ns.create_file(0, 4_MiB, 0, rng);
  const FileId resized = rig.ns.create_file(0, 4_MiB, 0, rng);
  const FileId moved = rig.ns.create_file(0, 4_MiB, 0, rng);
  const FileId idle = rig.ns.create_file(0, 4_MiB, 0, rng);
  rig.ns.touch_file(touched, 9 * sim::kDay);
  rig.ns.resize_file(resized, 6_MiB, 9 * sim::kDay);
  rig.ns.set_project(moved, 1, 9 * sim::kDay);
  rig.log.commit(rig.log.last_txid());

  PurgeRules rules;
  rules.classes.push_back(PurgeClass{/*window_days=*/7.0});
  PurgeEngine engine(rig.ns, rig.log, rules);
  engine.poll();
  const PurgeReport report = engine.sweep(12 * sim::kDay);
  EXPECT_EQ(report.purged, 1u);
  EXPECT_FALSE(rig.ns.exists(idle));
  EXPECT_TRUE(rig.ns.exists(touched));
  EXPECT_TRUE(rig.ns.exists(resized));
  EXPECT_TRUE(rig.ns.exists(moved));
}

TEST(PurgeEngine, PolicyClassesScopeBySizeAndProject) {
  PurgeRig rig;
  Rng rng(29);
  const FileId small_scratch = rig.ns.create_file(0, 1_MiB, 0, rng);
  const FileId big_scratch = rig.ns.create_file(0, 64_MiB, 0, rng);
  const FileId big_prod = rig.ns.create_file(1, 64_MiB, 0, rng);
  rig.log.commit(rig.log.last_txid());

  // One class: project 0 files of at least 32 MiB, idle 7 days.
  PurgeRules rules;
  rules.classes.push_back(PurgeClass{7.0, 32_MiB, 0});
  PurgeEngine engine(rig.ns, rig.log, rules);
  engine.poll();
  const PurgeReport report = engine.sweep(10 * sim::kDay);
  EXPECT_EQ(report.purged, 1u);
  EXPECT_TRUE(rig.ns.exists(small_scratch));
  EXPECT_FALSE(rig.ns.exists(big_scratch));
  EXPECT_TRUE(rig.ns.exists(big_prod));
}

TEST(PurgeEngine, ExemptProjectSurvivesEveryClass) {
  PurgeRig rig;
  Rng rng(31);
  const FileId exempt = rig.ns.create_file(4, 4_MiB, 0, rng);
  const FileId doomed = rig.ns.create_file(0, 4_MiB, 0, rng);
  rig.log.commit(rig.log.last_txid());

  PurgeRules rules;
  rules.classes.push_back(PurgeClass{7.0});
  rules.exempt_project = 4;
  PurgeEngine engine(rig.ns, rig.log, rules);
  engine.poll();
  const PurgeReport report = engine.sweep(10 * sim::kDay);
  EXPECT_EQ(report.purged, 1u);
  EXPECT_TRUE(rig.ns.exists(exempt));
  EXPECT_FALSE(rig.ns.exists(doomed));
}

TEST(PurgeEngine, NothingPurgedReportsNoMinimumAge) {
  PurgeRig rig;
  Rng rng(37);
  rig.ns.create_file(0, 4_MiB, 0, rng);
  rig.log.commit(rig.log.last_txid());

  PurgeRules rules;
  rules.classes.push_back(PurgeClass{/*window_days=*/365.0});
  PurgeEngine engine(rig.ns, rig.log, rules);
  engine.poll();
  const PurgeReport report = engine.sweep(2 * sim::kDay);
  EXPECT_EQ(report.purged, 0u);
  EXPECT_FALSE(report.has_min_age());
  EXPECT_TRUE(std::isinf(report.min_purged_age_s));
  const std::string json = purge_report_json(report);
  EXPECT_NE(json.find("\"min_purged_age_s\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(PurgeEngine, ReportJsonCarriesFiniteAgeWhenPurging) {
  PurgeRig rig;
  Rng rng(41);
  rig.ns.create_file(0, 4_MiB, 0, rng);
  rig.log.commit(rig.log.last_txid());
  PurgeRules rules;
  rules.classes.push_back(PurgeClass{1.0});
  PurgeEngine engine(rig.ns, rig.log, rules);
  engine.poll();
  const PurgeReport report = engine.sweep(3 * sim::kDay);
  ASSERT_EQ(report.purged, 1u);
  ASSERT_TRUE(report.has_min_age());
  const std::string json = purge_report_json(report);
  EXPECT_EQ(json.find("null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"min_purged_age_s\":"), std::string::npos) << json;
}

TEST(PurgeEngine, RulesFromPolicyPreserveWindowAndExemption) {
  PurgePolicy policy;
  policy.window_days = 3.5;
  policy.exempt_project = 9;
  const PurgeRules rules = rules_from_policy(policy);
  ASSERT_EQ(rules.classes.size(), 1u);
  EXPECT_DOUBLE_EQ(rules.classes[0].window_days, 3.5);
  EXPECT_EQ(rules.classes[0].min_size, 0u);
  EXPECT_EQ(rules.exempt_project, 9u);
}

}  // namespace
