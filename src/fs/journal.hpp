// Lustre journaling model.
//
// Section IV-D: OLCF direct-funded "high-performance Lustre journaling"
// because stock ldiskfs journal commits serialized small synchronous writes
// on the data spindles and cost double-digit write bandwidth. The model
// expresses journaling as a write-efficiency factor plus a commit latency,
// with three modes: synchronous on-data-disk journal (worst), asynchronous
// commit (stock tuning), and the OLCF hardware/async journaling work (best).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace spider::fs {

enum class JournalMode {
  /// Journal on the data disks, synchronous transactions.
  kSyncOnData,
  /// Asynchronous journal commit (batched transactions).
  kAsync,
  /// OLCF-funded high-performance journaling (dedicated device + async).
  kHighPerformance,
};

struct JournalModel {
  JournalMode mode = JournalMode::kHighPerformance;

  /// Multiplier on OST write bandwidth from journal traffic.
  double write_efficiency() const;
  /// Added latency per write RPC batch, seconds.
  double commit_latency_s() const;
};

// --- metadata op journal ----------------------------------------------------
//
// The MDS changelog (ROADMAP item 2, Robinhood direction): every namespace
// mutation lands here with a monotone transaction id, and a committed cursor
// marks the durable prefix. Consumers (fs/changelog.hpp accounting tables,
// the incremental purge engine, tools::LustreDu) rebuild namespace-level
// state by replaying the committed prefix instead of rescanning the
// namespace — the scan-free policy path that keeps working at 1e9 entries,
// where full MDS sweeps stop (docs/metadata-changelog.md). spiderfsck
// (tools/spiderfsck) cross-references the same log against the inode table.

enum class OpKind : std::uint8_t {
  kCreate,
  kUnlink,
  /// Touch: mtime/atime advance (`at` is the new last-touch time). Records
  /// carry the file's current project/size so consumers stay stateless.
  kSetattr,
  /// Size change: `size` is the new size, `prev_size` the old one, so a
  /// consumer can apply the delta without a lookup.
  kResize,
  /// Project reassignment: `project` is the new owner, `prev_project` the
  /// old one; `size` is the file's current size (it moves between owners).
  kSetProject,
};

/// Canonical lowercase name ("create", "setattr", ...) for reports.
const char* op_kind_name(OpKind kind);

/// One journaled metadata operation. `file` is the fs::FileId value (kept as
/// a raw integer here so the journal stays below fs_namespace.hpp in the
/// include graph).
struct OpRecord {
  std::uint64_t txid = 0;  ///< monotone from 1; gaps mean lost records
  OpKind kind = OpKind::kCreate;
  std::uint64_t file = 0;
  std::uint32_t project = 0;
  Bytes size = 0;
  std::int64_t at = 0;  ///< sim::SimTime value of the operation
  std::uint32_t prev_project = 0;  ///< kSetProject: owner before the move
  Bytes prev_size = 0;             ///< kResize: size before the change
};

// Which mutation paths an attached namespace emits into its changelog.
// Mirrors Lustre's changelog record mask: atime-only updates (reads) are
// costly at scale and masked off by default, exactly as `lctl changelog`
// ships; scenarios that drive atime-based purge opt in with kLogAtime.
using ChangelogMask = std::uint32_t;
inline constexpr ChangelogMask kLogCreate = 1u << 0;
inline constexpr ChangelogMask kLogUnlink = 1u << 1;
inline constexpr ChangelogMask kLogSetattr = 1u << 2;  ///< touch (mtime)
inline constexpr ChangelogMask kLogResize = 1u << 3;
inline constexpr ChangelogMask kLogSetProject = 1u << 4;
inline constexpr ChangelogMask kLogAtime = 1u << 5;  ///< read-path atime bumps
inline constexpr ChangelogMask kLogDefault =
    kLogCreate | kLogUnlink | kLogSetattr | kLogResize | kLogSetProject;
inline constexpr ChangelogMask kLogAll = kLogDefault | kLogAtime;

/// Append-only op journal with a committed cursor. Records are held in txid
/// order; truncate_to models a crash that loses the uncommitted tail, and
/// records_mutable lets seeded-corruption tests drop interior records (the
/// breaches spiderfsck must detect).
class OpLog {
 public:
  /// Append one record; returns its txid. The prev_* fields only matter for
  /// kResize (prev_size) and kSetProject (prev_project) and default to 0.
  std::uint64_t append(OpKind kind, std::uint64_t file, std::uint32_t project,
                       Bytes size, std::int64_t at,
                       std::uint32_t prev_project = 0, Bytes prev_size = 0);

  const std::vector<OpRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  std::uint64_t last_txid() const { return next_txid_ - 1; }

  /// Durable prefix: records with txid <= committed() survived the crash.
  std::uint64_t committed() const { return committed_; }
  /// Advance the cursor (clamped to last_txid; never moves backwards).
  void commit(std::uint64_t txid);

  /// Crash-lose every record with txid > `txid`; the cursor clamps and the
  /// next append reuses txid + 1 (the tail genuinely never happened).
  void truncate_to(std::uint64_t txid);

  /// Corruption surface for fsck tests: direct record access. Dropping an
  /// interior record leaves a txid gap the checker must notice via the
  /// namespace cross-reference.
  std::vector<OpRecord>& records_mutable() { return records_; }

 private:
  std::vector<OpRecord> records_;
  std::uint64_t next_txid_ = 1;
  std::uint64_t committed_ = 0;
};

}  // namespace spider::fs
