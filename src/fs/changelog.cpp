#include "fs/changelog.hpp"

#include <array>

#include "common/hash.hpp"

namespace spider::fs {

namespace {

/// Row lookups for one consume() batch, through a small direct-mapped
/// cache. Records name projects in no order, so a std::map descent per
/// record mispredicts its branches; bench_changelog's incremental epochs
/// ran at ~0.6x without the cache. Map nodes never move, so the cached
/// pointers stay valid for the batch.
class RowCache {
 public:
  explicit RowCache(std::map<std::uint32_t, ProjectUsage>& table)
      : table_(table) {}

  ProjectUsage& operator[](std::uint32_t project) {
    Slot& slot = slots_[project % slots_.size()];
    if (slot.row == nullptr || slot.project != project) {
      slot = Slot{project, &table_[project]};
    }
    return *slot.row;
  }

 private:
  struct Slot {
    std::uint32_t project = 0;
    ProjectUsage* row = nullptr;
  };
  std::map<std::uint32_t, ProjectUsage>& table_;
  std::array<Slot, 8> slots_{};
};

void apply(const OpRecord& rec, RowCache& rows) {
  switch (rec.kind) {
    case OpKind::kCreate: {
      ProjectUsage& u = rows[rec.project];
      u.bytes += rec.size;
      ++u.files;
      ++u.creates;
      if (rec.at > u.last_activity) u.last_activity = rec.at;
      break;
    }
    case OpKind::kUnlink: {
      ProjectUsage& u = rows[rec.project];
      u.bytes -= rec.size;
      --u.files;
      ++u.unlinks;
      if (rec.at > u.last_activity) u.last_activity = rec.at;
      break;
    }
    case OpKind::kSetattr: {
      ProjectUsage& u = rows[rec.project];
      if (rec.at > u.last_activity) u.last_activity = rec.at;
      break;
    }
    case OpKind::kResize: {
      ProjectUsage& u = rows[rec.project];
      u.bytes += rec.size;
      u.bytes -= rec.prev_size;
      if (rec.at > u.last_activity) u.last_activity = rec.at;
      break;
    }
    case OpKind::kSetProject: {
      ProjectUsage& from = rows[rec.prev_project];
      from.bytes -= rec.size;
      --from.files;
      if (rec.at > from.last_activity) from.last_activity = rec.at;
      ProjectUsage& to = rows[rec.project];
      to.bytes += rec.size;
      ++to.files;
      if (rec.at > to.last_activity) to.last_activity = rec.at;
      break;
    }
  }
}

}  // namespace

ConsumeResult ChangelogAccounting::consume(const OpLog& log) {
  RowCache rows(table_);
  return cursor_.consume(log, [this, &rows](const OpRecord& rec) {
    ++records_applied_;
    apply(rec, rows);
  });
}

Bytes ChangelogAccounting::bytes_of(std::uint32_t project) const {
  const ProjectUsage* u = find(project);
  return u == nullptr ? 0 : u->bytes;
}

std::uint64_t ChangelogAccounting::files_of(std::uint32_t project) const {
  const ProjectUsage* u = find(project);
  return u == nullptr ? 0 : u->files;
}

const ProjectUsage* ChangelogAccounting::find(std::uint32_t project) const {
  const auto it = table_.find(project);
  return it == table_.end() ? nullptr : &it->second;
}

std::map<std::uint32_t, Bytes> ChangelogAccounting::usage() const {
  std::map<std::uint32_t, Bytes> live;
  for (const auto& [project, u] : table_) {
    // Projects whose every file is gone still have a row (creates ==
    // unlinks history is worth keeping); report them only while live
    // bytes remain, matching usage_by_project's live-walk shape.
    if (u.bytes != 0 || u.files != 0) live[project] = u.bytes;
  }
  return live;
}

std::uint64_t ChangelogAccounting::table_hash() const {
  std::uint64_t h = kFnvOffsetBasis;
  for (const auto& [project, u] : table_) {
    h = fnv1a(h, project);
    h = fnv1a(h, u.bytes);
    h = fnv1a(h, u.files);
    h = fnv1a(h, u.creates);
    h = fnv1a(h, u.unlinks);
    h = fnv1a(h, static_cast<std::uint64_t>(u.last_activity));
  }
  return h;
}

ConsumeResult ChangelogAccounting::rebuild(const OpLog& log) {
  table_.clear();
  records_applied_ = 0;
  cursor_.reset();
  return consume(log);
}

void ChangelogAccounting::rebuild_from_namespace(const FsNamespace& ns,
                                                 const OpLog& log) {
  table_.clear();
  records_applied_ = 0;
  ns.for_each_file([this](const FileRecord& rec) {
    ProjectUsage& u = table_[rec.project];
    u.bytes += rec.size;
    ++u.files;
    const auto at = static_cast<std::int64_t>(rec.mtime);
    if (at > u.last_activity) u.last_activity = at;
  });
  cursor_.reset(log.committed());
}

}  // namespace spider::fs
