// RAID-6 (8 data + 2 parity) group — the Lustre OST building block.
//
// Spider II organized 20,160 disks into 2,016 RAID-6 8+2 groups, one per
// OST (Section V-A). The group model captures:
//   - striped performance pinned by the slowest member (why slow-disk
//     culling matters, Lesson 13);
//   - read-modify-write penalty for sub-stripe writes and parity overhead
//     for full-stripe writes;
//   - the failure state machine: up to two concurrent member losses are
//     tolerated, a third loses data (the 2010 incident, Lesson 11);
//   - rebuild windows with degraded delivered bandwidth.
#pragma once

#include <cstdint>
#include <vector>

#include "block/disk.hpp"
#include "common/units.hpp"

namespace spider::block {

enum class RaidState { kNormal, kDegraded, kRebuilding, kFailed };
enum class MemberState { kOnline, kFailed, kRebuilding };

struct RaidParams {
  std::size_t data_disks = 8;
  std::size_t parity_disks = 2;
  /// Per-disk chunk; full stripe data = chunk * data_disks (1 MiB default,
  /// matching the Lustre 1 MB RPC sweet spot of Figure 3).
  Bytes chunk = 128_KiB;
  /// Per-disk rebuild rate (traditional rebuild; parity-declustered rebuild
  /// multiplies this, see rebuild_speedup).
  Bandwidth rebuild_rate = 50.0 * kMBps;
  /// Delivered-bandwidth multiplier with a failed member (parity reconstruct).
  double degraded_factor = 0.70;
  /// Delivered-bandwidth multiplier while rebuilding.
  double rebuilding_factor = 0.55;
  /// Full-stripe write efficiency (parity generation + controller work).
  double full_stripe_write_eff = 0.90;
  /// Sub-stripe write efficiency (read-modify-write).
  double rmw_eff = 0.25;
  /// Parity-declustering rebuild speedup (vendor feature OLCF pushed for,
  /// Section IV-A); 1.0 = classic rebuild.
  double rebuild_speedup = 1.0;
};

class Raid6Group {
 public:
  /// `members` must have exactly data_disks + parity_disks entries.
  Raid6Group(const RaidParams& params, std::vector<Disk> members);

  std::size_t width() const { return members_.size(); }
  Bytes full_stripe() const { return params_.chunk * params_.data_disks; }
  /// Usable (data) capacity.
  Bytes capacity() const;
  const RaidParams& params() const { return params_; }

  const Disk& member(std::size_t i) const { return members_.at(i); }
  MemberState member_state(std::size_t i) const { return states_.at(i); }
  /// Swap in a replacement unit (slow-disk culling or post-failure spare).
  /// The new member starts Online; callers model rebuild separately.
  void replace_member(std::size_t i, Disk replacement);

  /// Performance factor of the slowest online member; striped bandwidth is
  /// proportional to it.
  double min_member_factor() const;

  /// Degrade one member's performance factor in place (latent slow-disk
  /// onset or partial media failure under fault injection). Forwards to
  /// Disk::degrade; throws std::invalid_argument for factors outside (0, 1].
  void degrade_member(std::size_t i, double factor);

  /// Indices of members that are safe to read from (kOnline). Ordered by
  /// member index, so iteration is deterministic.
  std::vector<std::size_t> readable_members() const;

  /// Record a read served from member `i`. Reads from non-online members are
  /// counted as unsafe — the RAID read-safety oracle asserts this stays 0.
  void note_read(std::size_t i);
  std::uint64_t unsafe_reads() const { return unsafe_reads_; }

  /// Delivered bandwidth for a uniform stream of `request_size` requests in
  /// the given mode/direction, at the current state.
  Bandwidth bandwidth(IoMode mode, IoDir dir, Bytes request_size = 1_MiB) const;

  // --- failure machinery -------------------------------------------------
  RaidState state() const;
  std::size_t unavailable_members() const;
  bool data_lost() const { return data_lost_; }

  /// Mark a member failed. More than parity_disks concurrent unavailable
  /// members marks the group's data lost (sticky until rebuilt from backup).
  void fail_member(std::size_t i);
  /// Begin rebuilding a failed member onto a spare.
  void start_rebuild(std::size_t i);
  /// Time to rebuild one member at the configured rate.
  double rebuild_time_s() const;
  /// Rebuild finished: member returns online.
  void finish_rebuild(std::size_t i);
  /// A previously failed member comes back intact (e.g. enclosure restored
  /// before the group exceeded parity).
  void restore_member(std::size_t i);

 private:
  void check_data_loss();

  RaidParams params_;
  std::vector<Disk> members_;
  std::vector<MemberState> states_;
  bool data_lost_ = false;
  std::uint64_t unsafe_reads_ = 0;
};

}  // namespace spider::block
