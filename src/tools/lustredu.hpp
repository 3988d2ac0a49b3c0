// LustreDU and the cost of client-side `du` (Section VI-C, Lesson 19).
//
// "du imposes a heavy load on the Lustre MDS when run at this scale.
// Therefore we developed the LustreDU tool, which gathers disk usage
// metadata from the Lustre servers once per day." Client `du` stats every
// file through the MDS; LustreDU answers from a daily server-side snapshot
// at near-zero marginal cost.
//
// The daily scan itself is still an O(N) namespace walk, which stops
// working around 1e9 entries (the Robinhood lesson, ROADMAP item 2). The
// changelog era replaces it: follow() attaches the tool to one or more
// namespace changelogs and poll() folds newly committed records into one
// fs::ChangelogAccounting table per log, so answers stay fresh at O(Δ records)
// per epoch with zero namespace walks.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/units.hpp"
#include "fs/changelog.hpp"
#include "fs/fs_namespace.hpp"
#include "sim/time.hpp"

namespace spider::tools {

struct DuCost {
  /// Weighted MDS ops the query itself consumed.
  double mds_ops = 0.0;
  /// Wall time as seen by the admin, assuming the MDS is otherwise at the
  /// given background utilization.
  double wall_s = 0.0;
  Bytes bytes_reported = 0;
  /// Cold query: the tool has no basis to answer (no daily_scan yet in
  /// snapshot mode, no poll yet in changelog mode). bytes_reported is 0
  /// but means "don't know", NOT "empty project" — callers must check.
  bool stale = false;
};

/// Client-side `du` over one project: lookup + stat per file through the
/// MDS. `background_util` in [0,1) is competing MDS load.
DuCost client_du(fs::FsNamespace& ns, std::uint32_t project,
                 double background_util = 0.0);

/// Server-side usage tool: daily-snapshot mode and changelog mode.
class LustreDu {
 public:
  /// Scan the namespace from the server side (once per day in production);
  /// cost is independent of query volume and does not touch the MDS.
  void daily_scan(const fs::FsNamespace& ns, sim::SimTime now);

  /// Changelog mode: follow a namespace's op log; answers come from the
  /// accounting table as of the last poll() instead of the snapshot. May
  /// be called once per DNE namespace — usage() sums across feeds.
  void follow(const fs::OpLog& log);

  /// Consume newly committed records from every followed log. Diagnostics
  /// are merged: applied sums; cursor_ahead/gap OR across feeds (any feed
  /// needing a rebuild makes the whole tool suspect).
  fs::ConsumeResult poll();

  /// Recover a crash-rewound feed: drop and re-consume every feed's
  /// committed prefix.
  void rebuild_feeds();

  /// Last-resort resync of one feed from namespace ground truth — the
  /// daily-scan escape hatch for a log whose committed prefix no longer
  /// describes the namespace (an MDS crash rewound the log under live
  /// state). One namespace walk; the feed is incremental again afterwards.
  void resync_feed(std::size_t i, const fs::FsNamespace& ns);

  sim::SimTime last_scan_time() const { return last_scan_; }
  /// A daily scan has actually run (an empty map alone proves nothing —
  /// an empty namespace scans to an empty map).
  bool has_snapshot() const { return scanned_; }
  bool following() const { return !feeds_.empty(); }
  std::size_t feed_count() const { return feeds_.size(); }
  const fs::ChangelogAccounting& feed(std::size_t i) const {
    return feeds_.at(i).accounting;
  }

  /// Query: O(1), zero MDS ops, zero namespace walks. Changelog mode wins
  /// when active; otherwise the daily snapshot answers. Cold tools return
  /// stale = true (see DuCost).
  DuCost usage(std::uint32_t project) const;

 private:
  struct Feed {
    const fs::OpLog* log = nullptr;
    fs::ChangelogAccounting accounting;
  };

  /// Ordered by project id: the daily snapshot enumerates deterministically.
  std::map<std::uint32_t, Bytes> usage_;
  sim::SimTime last_scan_ = 0;
  bool scanned_ = false;
  std::vector<Feed> feeds_;
  bool polled_ = false;
};

}  // namespace spider::tools
