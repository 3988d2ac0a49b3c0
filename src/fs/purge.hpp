// Automatic purge engine (Lesson 10).
//
// "Files that are not created, modified, or accessed within a contiguous
// 14 day range are deleted by an automated process. This mechanism allows
// for automatic capacity trimming" — keeping scratch fullness below the
// 70% severe-degradation point.
//
// Two implementations live here. run_purge is the scan-era sweep: walk
// every live file, compare ages, unlink. PurgeEngine is the changelog era
// (ROADMAP item 2): it consumes the namespace's OpLog into a per-file
// last-touch table plus an age index, so a sweep costs O(candidates) and
// maintenance costs O(Δ records) — no namespace walk anywhere, which is
// the only shape that still works at 1e9 entries (Robinhood's lesson).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "fs/changelog.hpp"
#include "fs/fs_namespace.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace spider::fs {

struct PurgePolicy {
  /// Files untouched (atime, mtime, and ctime) for this long are purged.
  double window_days = 14.0;
  /// Purge runs can exempt projects (e.g. under an active extension).
  std::uint32_t exempt_project = UINT32_MAX;
};

struct PurgeReport {
  std::uint64_t scanned = 0;
  std::uint64_t purged = 0;
  Bytes freed = 0;
  /// Weighted MDS ops the sweep itself cost (scan stats + unlinks).
  double mds_ops = 0.0;
  /// Age (now - last touch) of the youngest file this sweep deleted;
  /// +infinity when nothing was purged. The purge-age oracle asserts this
  /// never drops below the policy window.
  Seconds min_purged_age_s = std::numeric_limits<double>::infinity();

  /// True once a sweep actually purged something: min_purged_age_s is only
  /// meaningful then. Consumers must check this before comparing or
  /// serializing the age (a bare +inf is not valid JSON).
  bool has_min_age() const { return std::isfinite(min_purged_age_s); }
};

/// Serialize a report as one JSON object. `min_purged_age_s` is `null`
/// when the sweep purged nothing — never the bare `inf` token.
std::string purge_report_json(const PurgeReport& report);

/// One purge sweep over a namespace at simulated time `now`.
PurgeReport run_purge(FsNamespace& ns, sim::SimTime now,
                      const PurgePolicy& policy = {});

/// Schedule the production cadence: one sweep per day at `hour_of_day`
/// (OLCF runs it off-hours), for `days` days starting from the
/// simulator's current day. Reports accumulate into `*reports` if given.
void schedule_daily_purge(sim::Simulator& sim, FsNamespace& ns,
                          const PurgePolicy& policy, int days,
                          double hour_of_day = 2.0,
                          std::vector<PurgeReport>* reports = nullptr);

// --- incremental purge (changelog consumer) ---------------------------------

/// One purge policy class: a file is eligible when it matches the age,
/// size, and owner filters simultaneously. A rules set purges a file when
/// ANY class matches (center policy is usually one broad scratch class
/// plus narrower per-project ones).
struct PurgeClass {
  /// Age threshold: eligible when now - last_touch exceeds this window.
  double window_days = 14.0;
  /// Size floor: only files at least this big (0 = any size). Lets a
  /// center purge bulk data aggressively while sparing small config files.
  Bytes min_size = 0;
  /// Owner filter: restrict the class to one project (UINT32_MAX = any).
  std::uint32_t project = UINT32_MAX;
};

struct PurgeRules {
  std::vector<PurgeClass> classes;
  /// Projects never purged regardless of class matches.
  std::uint32_t exempt_project = UINT32_MAX;
};

/// The scan-era policy expressed as one broad class (for apples-to-apples
/// comparisons between run_purge and PurgeEngine sweeps).
PurgeRules rules_from_policy(const PurgePolicy& policy);

/// Incremental purge engine: a changelog consumer owning a per-file
/// (project, size, last-touch) table plus an age index ordered by
/// (last_touch, id). poll() folds newly committed records in at O(Δ);
/// sweep() walks only the age-index prefix older than the loosest class
/// window — never the namespace. Last touch is defined as the latest
/// changelog record for the file; atime-only reads are visible exactly
/// when the namespace's mask includes kLogAtime.
class PurgeEngine {
 public:
  /// `ns` must have `log` attached (the engine unlinks through `ns`, and
  /// those unlinks must land in the same changelog every other consumer
  /// reads). The engine never commits or truncates the log.
  PurgeEngine(FsNamespace& ns, const OpLog& log, PurgeRules rules);

  /// Consume newly committed records into the tables. On cursor_ahead the
  /// tables were untouched — call rebuild(). A gap means the tables are
  /// suspect (apply what exists, escalate to spiderfsck).
  ConsumeResult poll();

  /// Evaluate the policy classes against the age index and unlink every
  /// eligible file, at simulated time `now`. PurgeReport::scanned counts
  /// age-index candidates examined, not namespace entries — the namespace
  /// is never walked (FsNamespace::full_walks() proves it).
  PurgeReport sweep(sim::SimTime now);

  /// Forget everything and re-consume the whole committed prefix — the
  /// recovery path after a crash rewound the log (cursor_ahead).
  ConsumeResult rebuild();

  std::uint64_t cursor() const { return cursor_.position(); }
  const PurgeRules& rules() const { return rules_; }

 private:
  struct Tracked {
    std::uint32_t project = 0;
    Bytes size = 0;
    std::int64_t last_touch = 0;
  };

  void apply(const OpRecord& rec);
  void touch(std::uint64_t file, std::int64_t at);
  void drop(std::uint64_t file);

  FsNamespace& ns_;
  const OpLog& log_;
  PurgeRules rules_;
  ChangelogCursor cursor_;
  std::map<std::uint64_t, Tracked> files_;
  /// (last_touch, file) in ascending order: the sweep reads a prefix.
  std::set<std::pair<std::int64_t, std::uint64_t>> by_age_;
};

}  // namespace spider::fs
