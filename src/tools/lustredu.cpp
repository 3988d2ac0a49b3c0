#include "tools/lustredu.hpp"

#include <algorithm>

namespace spider::tools {

DuCost client_du(fs::FsNamespace& ns, std::uint32_t project,
                 double background_util) {
  DuCost cost;
  const double before = ns.mds().accounted_load();
  ns.for_each_file([&](const fs::FileRecord& rec) {
    if (rec.project != project) {
      // Directory traversal still pays a lookup to skip the entry.
      ns.mds().account(fs::MetaOp::kLookup);
      return;
    }
    ns.mds().account(fs::MetaOp::kLookup);
    ns.mds().account(fs::MetaOp::kStat, rec.stripe_count);
    cost.bytes_reported += rec.size;
  });
  cost.mds_ops = ns.mds().accounted_load() - before;
  const double usable =
      ns.mds().capacity_ops() * std::max(0.01, 1.0 - background_util);
  cost.wall_s = cost.mds_ops / usable;
  return cost;
}

void LustreDu::daily_scan(const fs::FsNamespace& ns, sim::SimTime now) {
  usage_ = ns.usage_by_project();
  last_scan_ = now;
  scanned_ = true;
}

void LustreDu::follow(const fs::OpLog& log) {
  feeds_.push_back(Feed{&log, {}});
}

fs::ConsumeResult LustreDu::poll() {
  fs::ConsumeResult merged;
  for (Feed& feed : feeds_) {
    const fs::ConsumeResult one = feed.accounting.consume(*feed.log);
    merged.applied += one.applied;
    merged.cursor_ahead = merged.cursor_ahead || one.cursor_ahead;
    if (one.gap && !merged.gap) {
      merged.gap = true;
      merged.first_gap_txid = one.first_gap_txid;
    }
    merged.cursor = one.cursor;  // meaningful when following one log
  }
  polled_ = true;
  return merged;
}

void LustreDu::rebuild_feeds() {
  for (Feed& feed : feeds_) feed.accounting.rebuild(*feed.log);
  polled_ = true;
}

void LustreDu::resync_feed(std::size_t i, const fs::FsNamespace& ns) {
  Feed& feed = feeds_.at(i);
  feed.accounting.rebuild_from_namespace(ns, *feed.log);
  polled_ = true;
}

DuCost LustreDu::usage(std::uint32_t project) const {
  DuCost cost;
  cost.mds_ops = 0.0;
  cost.wall_s = 10e-6;  // one indexed database lookup
  if (!feeds_.empty()) {
    if (!polled_) {
      cost.stale = true;  // followed but never polled: no basis to answer
      return cost;
    }
    for (const Feed& feed : feeds_) {
      cost.bytes_reported += feed.accounting.bytes_of(project);
    }
    return cost;
  }
  if (!scanned_) {
    // Cold tool: 0 bytes would be indistinguishable from a genuinely
    // empty project, which is exactly the bug the stale flag closes.
    cost.stale = true;
    return cost;
  }
  auto it = usage_.find(project);
  cost.bytes_reported = it == usage_.end() ? 0 : it->second;
  return cost;
}

}  // namespace spider::tools
