// Object Storage Target: one RAID-6 group exposed through the obdfilter
// layer, with capacity tracking and the fullness-degradation model.
//
// Two operational facts from the paper are encoded here:
//   - Lesson 10 / Section VI-C: "severe performance degradation after the
//     resource is 70% or more full" and "direct performance degradation
//     when the utilization of the filesystem is greater than 50%". The
//     fullness factor is 1.0 up to 50%, declines gently to 70%, then
//     steeply (free-space fragmentation forces random-ish allocation).
//   - Lesson 12: the file-system layer costs measurable bandwidth over the
//     block layer (obdfilter efficiency + journaling).
#pragma once

#include <algorithm>
#include <cstdint>

#include "block/raid.hpp"
#include "common/units.hpp"
#include "fs/journal.hpp"

namespace spider::fs {

struct OstParams {
  /// obdfilter efficiency over raw block for reads/writes (Lesson 12's
  /// measured FS-vs-block delta).
  double obdfilter_read_eff = 0.95;
  double obdfilter_write_eff = 0.92;
  JournalModel journal;
  /// Fullness model knee points.
  double fullness_knee1 = 0.50;  ///< degradation onset
  double fullness_knee2 = 0.70;  ///< severe degradation onset
  double factor_at_knee2 = 0.90; ///< delivered fraction at knee2
  double factor_floor = 0.35;    ///< asymptotic delivered fraction when full
};

class Ost {
 public:
  /// `group` is non-owning and must outlive the Ost.
  Ost(std::uint32_t id, block::Raid6Group* group, const OstParams& params = {});

  std::uint32_t id() const { return id_; }
  const block::Raid6Group& group() const { return *group_; }
  block::Raid6Group& group() { return *group_; }
  const OstParams& params() const { return params_; }

  Bytes capacity() const { return group_->capacity(); }
  Bytes used() const { return used_; }
  double fullness() const;
  std::uint64_t object_count() const { return objects_; }

  /// Reserve space for a new object; returns false if it doesn't fit.
  bool allocate(Bytes size);
  /// Release a previously allocated object.
  void release(Bytes size);
  /// Force the used-space counter (fill-state experiments).
  void set_used(Bytes used) { used_ = std::min(used, capacity()); }
  /// Overwrite the object counter (spiderfsck orphan reclaim / lost-object
  /// accounting repair, and the seeded corruptions its tests inject).
  void fsck_set_object_count(std::uint64_t objects) { objects_ = objects; }

  /// Bandwidth multiplier from free-space state, piecewise linear with the
  /// knees documented above.
  double fullness_factor() const;

  /// Delivered OST bandwidth: RAID group bandwidth x obdfilter efficiency
  /// x journaling (writes) x fullness factor.
  Bandwidth bandwidth(block::IoMode mode, block::IoDir dir,
                      Bytes request_size = 1_MiB) const;

 private:
  std::uint32_t id_;
  block::Raid6Group* group_;
  OstParams params_;
  Bytes used_ = 0;
  std::uint64_t objects_ = 0;
};

}  // namespace spider::fs
