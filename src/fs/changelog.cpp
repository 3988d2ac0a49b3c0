#include "fs/changelog.hpp"

#include <stdexcept>

#include "common/hash.hpp"

namespace spider::fs {

ChangelogAccounting::ChangelogAccounting(std::uint32_t shards)
    : tables_(shards == 0 ? 1 : shards) {}

ConsumeResult ChangelogAccounting::consume(const OpLog& log) {
  return cursor_.consume(log, [this](const OpRecord& rec) { apply(rec); });
}

void ChangelogAccounting::apply(const OpRecord& rec) {
  ++records_applied_;
  const std::uint32_t n = shards();
  auto row = [this, n](std::uint32_t project) -> ProjectUsage& {
    return tables_[project % n][project];
  };
  switch (rec.kind) {
    case OpKind::kCreate: {
      ProjectUsage& u = row(rec.project);
      u.bytes += rec.size;
      ++u.files;
      ++u.creates;
      if (rec.at > u.last_activity) u.last_activity = rec.at;
      break;
    }
    case OpKind::kUnlink: {
      ProjectUsage& u = row(rec.project);
      u.bytes -= rec.size;
      --u.files;
      ++u.unlinks;
      if (rec.at > u.last_activity) u.last_activity = rec.at;
      break;
    }
    case OpKind::kSetattr: {
      ProjectUsage& u = row(rec.project);
      if (rec.at > u.last_activity) u.last_activity = rec.at;
      break;
    }
    case OpKind::kResize: {
      ProjectUsage& u = row(rec.project);
      u.bytes += rec.size;
      u.bytes -= rec.prev_size;
      if (rec.at > u.last_activity) u.last_activity = rec.at;
      break;
    }
    case OpKind::kSetProject: {
      // The record spans two shards; each applies exactly its half, so the
      // merged table is invariant under the shard count.
      ProjectUsage& from = row(rec.prev_project);
      from.bytes -= rec.size;
      --from.files;
      if (rec.at > from.last_activity) from.last_activity = rec.at;
      ProjectUsage& to = row(rec.project);
      to.bytes += rec.size;
      ++to.files;
      if (rec.at > to.last_activity) to.last_activity = rec.at;
      break;
    }
  }
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
  const auto& table = tables_[project % shards()];
  const auto it = table.find(project);
  return it == table.end() ? nullptr : &it->second;
}

std::map<std::uint32_t, Bytes> ChangelogAccounting::usage() const {
  std::map<std::uint32_t, Bytes> merged;
  for (const auto& table : tables_) {
    for (const auto& [project, u] : table) {
      // Projects whose every file is gone still have a row (creates ==
      // unlinks history is worth keeping); report them only while live
      // bytes remain, matching usage_by_project's live-walk shape.
      if (u.bytes != 0 || u.files != 0) merged[project] = u.bytes;
    }
  }
  return merged;
}

std::map<std::uint32_t, ProjectUsage> ChangelogAccounting::rows() const {
  std::map<std::uint32_t, ProjectUsage> merged;
  for (const auto& table : tables_) {
    for (const auto& [project, u] : table) merged[project] = u;
  }
  return merged;
}

std::uint64_t ChangelogAccounting::table_hash() const {
  std::uint64_t h = kFnvOffsetBasis;
  for (const auto& [project, u] : rows()) {
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
  for (auto& table : tables_) table.clear();
  records_applied_ = 0;
  cursor_.reset();
  return consume(log);
}

void ChangelogAccounting::rebuild_from_namespace(const FsNamespace& ns,
                                                 const OpLog& log) {
  for (auto& table : tables_) table.clear();
  records_applied_ = 0;
  const std::uint32_t n = shards();
  ns.for_each_file([this, n](const FileRecord& rec) {
    ProjectUsage& u = tables_[rec.project % n][rec.project];
    u.bytes += rec.size;
    ++u.files;
    const auto at = static_cast<std::int64_t>(rec.mtime);
    if (at > u.last_activity) u.last_activity = at;
  });
  cursor_.reset(log.committed());
}

}  // namespace spider::fs
