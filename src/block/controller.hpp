// Storage controller pair (DDN S2A/SFA class).
//
// Each SSU is fronted by an active-active controller pair. The pair caps
// the SSU's delivered bandwidth (the pre-upgrade Spider II controllers were
// the namespace bottleneck: 320 GB/s, raised to 510 GB/s by a CPU/memory
// upgrade — Section V-C). The pair also holds the write-back journal whose
// loss in the 2010 incident cost more than a million files (Lesson 11).
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace spider::block {

struct ControllerParams {
  /// Delivered bandwidth of one controller. Spider II pre-upgrade default:
  /// the pair caps an SSU at ~17.8 GB/s (36 SSUs * 17.8 / 2 namespaces
  /// ≈ 320 GB/s per namespace).
  Bandwidth per_controller_bw = 8.9 * kGBps;
};

/// Upgraded controller generation (post CPU/memory refresh): the pair caps
/// an SSU at ~28.4 GB/s, which moves the bottleneck back to the disks and
/// yields ~510 GB/s per namespace.
inline constexpr Bandwidth kUpgradedControllerBw = 14.2 * kGBps;
ControllerParams upgraded_controller_params();

enum class PairState { kActiveActive, kFailedOver, kOffline };

class ControllerPair {
 public:
  explicit ControllerPair(const ControllerParams& params);

  const ControllerParams& params() const { return params_; }
  PairState state() const { return state_; }

  /// In-place hardware refresh (the Spider II CPU/memory upgrade).
  void upgrade(const ControllerParams& params) { params_ = params; }

  /// Aggregate bandwidth the pair can move in its current state.
  Bandwidth delivered_bw() const;

  /// One controller fails; the partner takes over all LUNs (design-intended
  /// behaviour in the 2010 incident).
  void fail_one();
  /// Failed controller restored; back to active-active.
  void recover();
  /// Take the pair offline. If `graceful`, the journal flushes first;
  /// otherwise uncommitted journal entries are dropped (returned count).
  std::uint64_t take_offline(bool graceful);
  void bring_online();

  // --- write-back journal -------------------------------------------------
  /// Record `files` files' worth of uncommitted journal entries.
  void journal_add(std::uint64_t files);
  /// Flush the journal to stable storage.
  void journal_commit();
  std::uint64_t journal_entries() const { return journal_entries_; }
  std::uint64_t journal_lost_total() const { return journal_lost_total_; }

 private:
  ControllerParams params_;
  PairState state_ = PairState::kActiveActive;
  std::uint64_t journal_entries_ = 0;
  std::uint64_t journal_lost_total_ = 0;
};

}  // namespace spider::block
