// spiderfsck: consistency checking and repair for one namespace.
//
// Lesson 5 / Section IV-D: at Spider scale an ldiskfs fsck of a single OST
// took "multiple days", and OLCF funded distributed metadata verification
// work precisely because serial checking cannot keep up with petabyte
// namespaces. This tool reproduces the structure of that answer, phased
// like pFSCK:
//
//   phase 1  scan     one serial pass over the inode table: record ids,
//                     dangling stripe refs, the live set, and the
//                     bytes/objects every live stripe map says each OST
//                     holds;
//   phase 2  cross    serial cross-reference of the scan: orphaned/lost
//                     OST objects, namespace-vs-journal disagreement
//                     (fs/recovery replay), counter drift, DNE accounting
//                     drift;
//   phase 3  repair   serial, canonically ordered mutation of the
//                     namespace/journal/OSTs, then a journal-cursor replay
//                     (fs/recovery) to advance the committed cursor over
//                     any backfilled tail.
//
// Phase 1 is 7-11% of a run; the journal replay and the create map in
// phase 2 are 40-52% (docs/fsck.md), so a parallel fsck would start there,
// as pFSCK's parallel cross-checks do. Findings are sorted into one
// canonical order, so the report JSON and both hashes are a function of
// the target alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "block/ssu.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fs/dne.hpp"
#include "fs/fs_namespace.hpp"
#include "fs/journal.hpp"
#include "fs/ost.hpp"

namespace spider::tools {

/// Everything one fsck pass operates on. `ns` is required; `journal` and
/// `dne` are optional facets (skipped when null). Pointers are non-owning.
struct FsckTarget {
  fs::FsNamespace* ns = nullptr;
  fs::OpLog* journal = nullptr;
  fs::DneNamespace* dne = nullptr;
  /// Project id damaged files are relinked to during repair (lost+found).
  std::uint32_t lost_found_project = 9999;
};

struct FsckOptions {
  /// False = detect only (dry run); true = phase 3 mutates the target.
  bool repair = false;
};

/// Finding kinds, declared in canonical repair order: the repair phase
/// applies findings sorted by (kind, file, ost, detail), so structural
/// repairs (record ids, stripe maps) land before the journal backfills
/// that read the repaired records, and counter reconciliation lands after
/// the journal is whole again.
enum class FindingKind : std::uint8_t {
  /// Record id does not encode the slot holding it (zombie/corrupt inode).
  kBadRecordId = 0,
  /// Stripe map names an unknown OST or overruns the stripe pool.
  kDanglingStripe,
  /// Table-live file absent from the journal's live set.
  kJournalMissingCreate,
  /// Journal-live file the table says is dead (lost unlink record).
  kJournalMissingUnlink,
  /// Journal unlinks a file it never created (corrupt record).
  kJournalGhostUnlink,
  /// live_files() counter disagrees with a ground-truth recount.
  kLiveCountDrift,
  /// total_created() disagrees with the journal replay (post-backfill).
  kCreateCountDrift,
  /// OST holds more bytes/objects than the live stripe maps reference.
  kOrphanObjects,
  /// OST holds fewer bytes/objects than the live stripe maps reference.
  kLostObjects,
  /// DNE per-MDT accounted load is negative or non-finite.
  kDneLoadDrift,
};

/// Every finding kind, in declaration order: what the CLI's --corrupt cycle,
/// the bench's corrupt-everything pass, and the per-kind round-trip test
/// iterate. The name, inject, and repair switches over FindingKind have no
/// default, so under -Werror a new enumerator does not build until it has
/// all three cases; fsck_test then fails until it is listed here too.
inline constexpr FindingKind kAllFindingKinds[] = {
    FindingKind::kBadRecordId,          FindingKind::kDanglingStripe,
    FindingKind::kJournalMissingCreate, FindingKind::kJournalMissingUnlink,
    FindingKind::kJournalGhostUnlink,   FindingKind::kLiveCountDrift,
    FindingKind::kCreateCountDrift,     FindingKind::kOrphanObjects,
    FindingKind::kLostObjects,          FindingKind::kDneLoadDrift,
};

/// Stable lowercase-kebab name (JSON `kind` field, test assertions).
std::string_view finding_kind_name(FindingKind kind);

/// One detected inconsistency, plus what the repair phase did about it.
struct Finding {
  FindingKind kind = FindingKind::kBadRecordId;
  /// Canonical file id (what the record id *should* be), 0 if not
  /// file-scoped.
  std::uint64_t file = 0;
  /// OST index (kOrphanObjects/kLostObjects) or MDT index (kDneLoadDrift),
  /// -1 if not device-scoped.
  std::int64_t ost = -1;
  /// Kind-specific expectations captured at detection time (bytes/objects
  /// for OST drift; counter values for count drift).
  std::uint64_t expect_a = 0;
  std::uint64_t expect_b = 0;
  std::string detail;
  bool repaired = false;
  std::string repair;  ///< what phase 3 did (empty on dry runs)
};

struct FsckReport {
  std::vector<Finding> findings;  ///< canonical order (kind, file, ost, detail)
  std::uint64_t slots_scanned = 0;
  std::uint64_t live_files = 0;  ///< ground-truth recount from the scan
  std::uint64_t osts_scanned = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t repairs_applied = 0;
  /// Journal-cursor replay outcome (phase 3): records replayed past the
  /// committed cursor and the cursor after advancing it.
  std::uint64_t journal_replayed = 0;
  std::uint64_t journal_cursor = 0;
  /// FNV-1a over (kind, file, ost, detail) of every finding, in order.
  std::uint64_t findings_hash = 0;
  /// FNV-1a over the post-run target state (see fsck_state_hash).
  std::uint64_t state_hash = 0;
  bool repaired = false;  ///< phase 3 ran (options.repair)

  bool clean() const { return findings.empty(); }
};

/// Run the three phases over `target`. Phase 3 mutates the target only when
/// `options.repair` is set. A repaired target re-checks clean: repairs are
/// chosen so one pass converges (the breach-proof tests pin this).
FsckReport run_fsck(const FsckTarget& target, const FsckOptions& options = {});

/// Render a report as one JSON object: stable field order, hashes as hex,
/// findings in canonical order.
std::string fsck_report_json(const FsckReport& report);

/// FNV-1a digest of the target's observable state: every inode slot, the
/// stripe pool, OST counters, journal records and cursor, DNE loads.
std::uint64_t fsck_state_hash(const FsckTarget& target);

// --- seeded corruption (tests, CLI --corrupt, property harness) -------------

/// Deterministically break `target` so a subsequent fsck detects `kind`.
/// Returns a description of what was damaged, or "" when the target lacks
/// the facet (no journal / no DNE / no live files to damage).
std::string inject_corruption(const FsckTarget& target, FindingKind kind,
                              Rng& rng);

// --- synthetic cluster (CLI, tests, bench share one builder) ----------------

struct SyntheticFsConfig {
  std::size_t raid_groups = 8;  ///< one OST per RAID group
  std::size_t files = 64;
  double churn = 0.25;  ///< per-file unlink probability after creation
  std::uint64_t seed = 2014;
  std::size_t mdts = 4;
};

/// A self-contained namespace + journal + DNE shard set, populated with a
/// deterministic create/unlink history (journaled, committed). Movable;
/// target() re-derives pointers so moves stay safe.
struct SyntheticFs {
  std::unique_ptr<block::Ssu> ssu;
  std::vector<fs::Ost> osts;
  std::unique_ptr<fs::FsNamespace> ns;
  std::unique_ptr<fs::OpLog> journal;
  std::unique_ptr<fs::DneNamespace> dne;

  FsckTarget target() {
    FsckTarget t;
    t.ns = ns.get();
    t.journal = journal.get();
    t.dne = dne.get();
    return t;
  }
};

SyntheticFs make_synthetic_fs(const SyntheticFsConfig& cfg = {});

}  // namespace spider::tools
