#include "fs/fs_namespace.hpp"

#include <algorithm>
#include <stdexcept>

namespace spider::fs {

namespace {
// Local aliases for the public codec in fs_namespace.hpp.
constexpr FileId make_id(std::uint32_t generation, std::size_t slot) {
  return file_id_for_slot(generation, slot);
}
constexpr std::size_t slot_of(FileId id) { return slot_of_file_id(id); }
constexpr std::uint32_t generation_of(FileId id) {
  return generation_of_file_id(id);
}
}  // namespace

FsNamespace::FsNamespace(std::string name, std::vector<Ost*> osts,
                         const MdsParams& mds_params, AllocatorMode alloc_mode,
                         StripePolicy default_policy)
    : name_(std::move(name)),
      osts_(std::move(osts)),
      mds_(mds_params),
      allocator_(osts_, alloc_mode),
      default_policy_(default_policy) {
  if (osts_.empty()) throw std::invalid_argument("FsNamespace: no OSTs");
}

FileId FsNamespace::create_file(std::uint32_t project, Bytes size,
                                sim::SimTime now, Rng& rng,
                                std::optional<StripePolicy> policy) {
  const StripePolicy p = policy.value_or(default_policy_);
  auto chosen = allocator_.allocate(p.stripe_count, size, rng);
  if (chosen.empty()) return kNoFile;
  mds_.account(MetaOp::kCreate);

  // Pick the slot without mutating anything so the changelog append below
  // genuinely precedes every namespace-state change.
  const bool reuse = !free_slots_.empty();
  const std::size_t slot = reuse ? free_slots_.back() : files_.size();
  const std::uint32_t generation =
      reuse ? generation_of(files_[slot].id) + 1 : 0;
  const FileId id = make_id(generation, slot);
  if (oplog_ != nullptr && (oplog_mask_ & kLogCreate) != 0) {
    oplog_->append(OpKind::kCreate, id, project, size,
                   static_cast<std::int64_t>(now));
  }

  if (reuse) {
    free_slots_.pop_back();
  } else {
    files_.emplace_back();
  }
  FileRecord& rec = files_[slot];
  rec.id = make_id(generation, slot);
  rec.project = project;
  rec.size = size;
  rec.atime = rec.mtime = rec.ctime = now;
  rec.stripe_offset = static_cast<std::uint32_t>(stripe_pool_.size());
  rec.stripe_count = static_cast<std::uint32_t>(chosen.size());
  rec.alive = true;
  stripe_pool_.insert(stripe_pool_.end(), chosen.begin(), chosen.end());
  ++live_files_;
  ++total_created_;
  return rec.id;
}

bool FsNamespace::exists(FileId id) const {
  if (id == kNoFile) return false;
  const std::size_t slot = slot_of(id);
  return slot < files_.size() && files_[slot].alive && files_[slot].id == id;
}

const FileRecord& FsNamespace::file(FileId id) const {
  if (!exists(id)) throw std::out_of_range("FsNamespace::file: no such file");
  return files_[slot_of(id)];
}

FileRecord& FsNamespace::record(FileId id) {
  if (!exists(id)) throw std::out_of_range("FsNamespace: no such file");
  return files_[slot_of(id)];
}

void FsNamespace::read_file(FileId id, sim::SimTime now) {
  FileRecord& rec = record(id);
  // Atime-only records are masked off by default (atime churn at 1e9
  // entries would dwarf every other record kind, exactly why `lctl
  // changelog` ships with them off).
  if (oplog_ != nullptr && (oplog_mask_ & kLogAtime) != 0) {
    oplog_->append(OpKind::kSetattr, id, rec.project, rec.size,
                   static_cast<std::int64_t>(now));
  }
  rec.atime = now;
  mds_.account(MetaOp::kLookup);
  mds_.account(MetaOp::kStat, rec.stripe_count);
}

void FsNamespace::touch_file(FileId id, sim::SimTime now) {
  FileRecord& rec = record(id);
  if (oplog_ != nullptr && (oplog_mask_ & kLogSetattr) != 0) {
    oplog_->append(OpKind::kSetattr, id, rec.project, rec.size,
                   static_cast<std::int64_t>(now));
  }
  rec.mtime = now;
  rec.atime = now;
  mds_.account(MetaOp::kSetattr);
}

void FsNamespace::stat_file(FileId id) {
  const FileRecord& rec = record(id);
  mds_.account(MetaOp::kStat, rec.stripe_count);
}

bool FsNamespace::resize_file(FileId id, Bytes new_size, sim::SimTime now) {
  if (!exists(id)) return false;
  FileRecord& rec = files_[slot_of(id)];
  const Bytes old_size = rec.size;
  if (new_size != old_size) {
    // OST reservation first: a grow that does not fit must leave no record
    // and no state change. OST counters are derived data-path state (fsck
    // phase 2 recounts them), so the record below still precedes every
    // *namespace* mutation.
    if (!allocator_.resize(stripes_of(rec), old_size, new_size)) return false;
  }
  if (oplog_ != nullptr && (oplog_mask_ & kLogResize) != 0) {
    oplog_->append(OpKind::kResize, id, rec.project, new_size,
                   static_cast<std::int64_t>(now), /*prev_project=*/0,
                   /*prev_size=*/old_size);
  }
  rec.size = new_size;
  rec.mtime = now;
  rec.ctime = now;
  mds_.account(MetaOp::kSetattr);
  return true;
}

bool FsNamespace::set_project(FileId id, std::uint32_t new_project,
                              sim::SimTime now) {
  if (!exists(id)) return false;
  FileRecord& rec = files_[slot_of(id)];
  const std::uint32_t old_project = rec.project;
  if (oplog_ != nullptr && (oplog_mask_ & kLogSetProject) != 0 &&
      new_project != old_project) {
    oplog_->append(OpKind::kSetProject, id, new_project, rec.size,
                   static_cast<std::int64_t>(now),
                   /*prev_project=*/old_project);
  }
  rec.project = new_project;
  rec.ctime = now;
  mds_.account(MetaOp::kSetattr);
  return true;
}

bool FsNamespace::unlink(FileId id, sim::SimTime now) {
  if (!exists(id)) return false;
  FileRecord& rec = files_[slot_of(id)];
  if (oplog_ != nullptr && (oplog_mask_ & kLogUnlink) != 0) {
    oplog_->append(OpKind::kUnlink, id, rec.project, rec.size,
                   static_cast<std::int64_t>(now));
  }
  allocator_.release(stripes_of(rec), rec.size);
  mds_.account(MetaOp::kUnlink);
  rec.alive = false;
  free_slots_.push_back(slot_of(id));
  --live_files_;
  return true;
}

void FsNamespace::for_each_file(
    const std::function<void(const FileRecord&)>& fn) const {
  // Walk telemetry, not namespace state: the changelog oracle reads
  // full_walks() to prove incremental query paths never scan.
  ++full_walks_;
  for (const auto& rec : files_) {
    if (rec.alive) fn(rec);
  }
}

std::vector<FileId> FsNamespace::live_ids() const {
  ++full_walks_;  // walk telemetry, see for_each_file
  std::vector<FileId> ids;
  ids.reserve(live_files_);
  for (const auto& rec : files_) {
    if (rec.alive) ids.push_back(rec.id);
  }
  return ids;
}

std::uint64_t FsNamespace::recount_live() const {
  ++full_walks_;  // walk telemetry, see for_each_file
  std::uint64_t n = 0;
  for (const auto& rec : files_) {
    if (rec.alive) ++n;
  }
  return n;
}

std::span<std::uint32_t> FsNamespace::fsck_stripes(const FileRecord& rec) {
  const std::size_t begin =
      std::min<std::size_t>(rec.stripe_offset, stripe_pool_.size());
  const std::size_t count =
      std::min<std::size_t>(rec.stripe_count, stripe_pool_.size() - begin);
  return {stripe_pool_.data() + begin, count};
}

Bytes FsNamespace::capacity() const {
  Bytes total = 0;
  for (const Ost* o : osts_) total += o->capacity();
  return total;
}

Bytes FsNamespace::used() const {
  Bytes total = 0;
  for (const Ost* o : osts_) total += o->used();
  return total;
}

double FsNamespace::fullness() const {
  const Bytes cap = capacity();
  return cap == 0 ? 1.0 : static_cast<double>(used()) / static_cast<double>(cap);
}

std::map<std::uint32_t, Bytes> FsNamespace::usage_by_project() const {
  std::map<std::uint32_t, Bytes> usage;
  for_each_file([&usage](const FileRecord& rec) { usage[rec.project] += rec.size; });
  return usage;
}

Bandwidth FsNamespace::aggregate_ost_bw(block::IoMode mode, block::IoDir dir,
                                        Bytes request_size) const {
  double total = 0.0;
  for (const Ost* o : osts_) total += o->bandwidth(mode, dir, request_size);
  return total;
}

std::span<const std::uint32_t> FsNamespace::stripes_of(const FileRecord& rec) const {
  return {stripe_pool_.data() + rec.stripe_offset, rec.stripe_count};
}

}  // namespace spider::fs
