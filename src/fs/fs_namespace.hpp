// A Lustre namespace: one MDS plus a set of OSTs with a file table.
//
// Section IV-C: OLCF splits capacity into multiple namespaces (four on
// Spider I, two on Spider II) because one MDS cannot sustain the center's
// metadata rate and a single namespace couples every resource to any
// problem. Each namespace spans half the Spider II hardware, which is why
// the Figure 3/4 experiments top out near half the system's 1 TB/s.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "fs/journal.hpp"
#include "fs/mds.hpp"
#include "fs/ost.hpp"
#include "fs/striping.hpp"
#include "sim/time.hpp"

namespace spider::fs {

using FileId = std::uint64_t;
inline constexpr FileId kNoFile = 0;

// FileId layout: (generation << 32) | (slot + 1). Slot reuse bumps the
// generation so stale ids never alias a new file. The codec is public so
// spiderfsck can verify a record's id against its table position (and
// rewrite it when corrupt).
inline constexpr FileId file_id_for_slot(std::uint32_t generation,
                                         std::size_t slot) {
  return (static_cast<FileId>(generation) << 32) |
         static_cast<FileId>(slot + 1);
}
inline constexpr std::size_t slot_of_file_id(FileId id) {
  return static_cast<std::size_t>((id & 0xffffffffULL) - 1);
}
inline constexpr std::uint32_t generation_of_file_id(FileId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

struct FileRecord {
  FileId id = kNoFile;
  std::uint32_t project = 0;
  Bytes size = 0;
  sim::SimTime atime = 0;
  sim::SimTime mtime = 0;
  sim::SimTime ctime = 0;
  std::uint32_t stripe_offset = 0;  ///< into the namespace stripe pool
  std::uint32_t stripe_count = 0;
  bool alive = false;
};

class FsNamespace {
 public:
  /// OST pointers are non-owning and must outlive the namespace.
  FsNamespace(std::string name, std::vector<Ost*> osts,
              const MdsParams& mds_params = {},
              AllocatorMode alloc_mode = AllocatorMode::kQosWeighted,
              StripePolicy default_policy = {});

  const std::string& name() const { return name_; }
  Mds& mds() { return mds_; }
  const Mds& mds() const { return mds_; }
  OstAllocator& allocator() { return allocator_; }
  std::size_t num_osts() const { return osts_.size(); }
  Ost& ost(std::size_t i) { return *osts_.at(i); }
  const Ost& ost(std::size_t i) const { return *osts_.at(i); }
  const StripePolicy& default_policy() const { return default_policy_; }

  // --- changelog attachment (ROADMAP item 2) ------------------------------
  // When an OpLog is attached, every mutation path selected by the mask
  // appends its record *before* touching namespace state, so consumers
  // (fs/changelog.hpp) can rebuild per-project accounting from the
  // committed prefix alone. The log is non-owning and the namespace never
  // commits: the durability cursor belongs to whoever owns the log.
  void attach_oplog(OpLog* log, ChangelogMask mask = kLogDefault) {
    oplog_ = log;
    oplog_mask_ = mask;
  }
  OpLog* oplog() const { return oplog_; }

  // --- file operations (metadata accounted on the MDS) -------------------
  /// Create a file; returns kNoFile when no space can be found.
  FileId create_file(std::uint32_t project, Bytes size, sim::SimTime now,
                     Rng& rng, std::optional<StripePolicy> policy = {});
  bool exists(FileId id) const;
  const FileRecord& file(FileId id) const;
  /// Read access: bumps atime, accounts lookup + stat. Emits kSetattr only
  /// under kLogAtime (atime churn is masked off by default, as in Lustre).
  void read_file(FileId id, sim::SimTime now);
  /// Modify: bumps mtime (changelog kSetattr).
  void touch_file(FileId id, sim::SimTime now);
  /// stat() only (no data access).
  void stat_file(FileId id);
  /// Grow or shrink a file in place on its existing stripes (changelog
  /// kResize carrying prev_size). Returns false — with no state change and
  /// no record — when a grow does not fit.
  bool resize_file(FileId id, Bytes new_size, sim::SimTime now);
  /// Reassign a file to a new project/owner (changelog kSetProject carrying
  /// prev_project). Returns false for unknown ids.
  bool set_project(FileId id, std::uint32_t new_project, sim::SimTime now);
  bool unlink(FileId id, sim::SimTime now);

  /// Visit every live file. Counts as a full namespace walk.
  void for_each_file(const std::function<void(const FileRecord&)>& fn) const;

  /// Number of full-namespace enumerations ever taken (for_each_file,
  /// live_ids, recount_live, and everything built on them). The changelog
  /// oracle asserts incremental purge/LustreDU query paths leave this
  /// untouched — the whole point of ROADMAP item 2 is zero walks at 1e9
  /// entries.
  std::uint64_t full_walks() const { return full_walks_; }

  // --- stable enumeration (spiderfsck scan phases, spiderlint L1) ---------
  // The inode table is a slot vector, so slot index IS the canonical walk
  // order: ascending, gap-free, identical at any scan fan-out. Dead slots
  // are exposed too — fsck inspects them for zombie records.
  /// Number of inode-table slots ever allocated (live + dead).
  std::size_t slot_count() const { return files_.size(); }
  /// Record in slot `i`, alive or not.
  const FileRecord& slot_record(std::size_t i) const { return files_.at(i); }
  /// Live file ids in ascending slot order — the canonical stable walk
  /// (sort the result for ascending-id order; both are deterministic).
  std::vector<FileId> live_ids() const;
  /// Ground-truth recount of live records (fsck checks live_files() drift
  /// against this).
  std::uint64_t recount_live() const;
  std::size_t stripe_pool_size() const { return stripe_pool_.size(); }

  // --- fsck repair / seeded-corruption surface ----------------------------
  // Deliberately blunt mutators, named so call sites are greppable: only
  // tools/spiderfsck (repair phase) and seeded-corruption tests may touch
  // them. They bypass aliveness checks because fsck must reach zombies.
  /// Mutable record access by slot, dead slots included.
  FileRecord& fsck_record(std::size_t slot) { return files_.at(slot); }
  /// Mutable view of a record's stripe entries, clamped to the pool (a
  /// corrupt record can claim a span past the pool's end).
  std::span<std::uint32_t> fsck_stripes(const FileRecord& rec);
  /// Overwrite the live-file counter (fsck live-count repair).
  void fsck_set_live_files(std::uint64_t n) { live_files_ = n; }
  /// Overwrite the created-file counter (fsck journal reconciliation).
  void fsck_set_total_created(std::uint64_t n) { total_created_ = n; }

  // --- capacity ----------------------------------------------------------
  Bytes capacity() const;
  Bytes used() const;
  double fullness() const;
  std::uint64_t live_files() const { return live_files_; }
  std::uint64_t total_created() const { return total_created_; }
  /// Per-project usage, ordered by project id so reports and snapshot
  /// consumers (LustreDU) see a canonical order.
  std::map<std::uint32_t, Bytes> usage_by_project() const;

  /// Aggregate OST-side bandwidth (server-side ceiling is the center
  /// model's business).
  Bandwidth aggregate_ost_bw(block::IoMode mode, block::IoDir dir,
                             Bytes request_size = 1_MiB) const;

  std::span<const std::uint32_t> stripes_of(const FileRecord& rec) const;

 private:
  FileRecord& record(FileId id);

  std::string name_;
  std::vector<Ost*> osts_;
  Mds mds_;
  OstAllocator allocator_;
  StripePolicy default_policy_;
  std::vector<FileRecord> files_;
  std::vector<std::uint32_t> stripe_pool_;
  std::vector<std::size_t> free_slots_;
  std::uint64_t live_files_ = 0;
  std::uint64_t total_created_ = 0;
  OpLog* oplog_ = nullptr;  ///< non-owning; null when no changelog attached
  ChangelogMask oplog_mask_ = kLogDefault;
  mutable std::uint64_t full_walks_ = 0;  ///< telemetry: full enumerations
};

}  // namespace spider::fs
