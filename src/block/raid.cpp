#include "block/raid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace spider::block {

Raid6Group::Raid6Group(const RaidParams& params, std::vector<Disk> members)
    : params_(params), members_(std::move(members)) {
  if (members_.size() != params_.data_disks + params_.parity_disks) {
    throw std::invalid_argument("Raid6Group: wrong member count");
  }
  states_.assign(members_.size(), MemberState::kOnline);
}

Bytes Raid6Group::capacity() const {
  Bytes min_cap = members_.front().capacity();
  for (const auto& d : members_) min_cap = std::min(min_cap, d.capacity());
  return min_cap * params_.data_disks;
}

void Raid6Group::replace_member(std::size_t i, Disk replacement) {
  members_.at(i) = std::move(replacement);
  states_.at(i) = MemberState::kOnline;
}

double Raid6Group::min_member_factor() const {
  double f = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (states_[i] == MemberState::kOnline) {
      f = std::min(f, members_[i].perf_factor());
    }
  }
  return std::isinf(f) ? 0.0 : f;
}

void Raid6Group::degrade_member(std::size_t i, double factor) {
  members_.at(i).degrade(factor);
}

std::vector<std::size_t> Raid6Group::readable_members() const {
  std::vector<std::size_t> out;
  out.reserve(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (states_[i] == MemberState::kOnline) out.push_back(i);
  }
  return out;
}

void Raid6Group::note_read(std::size_t i) {
  if (states_.at(i) != MemberState::kOnline) ++unsafe_reads_;
}

RaidState Raid6Group::state() const {
  if (data_lost_) return RaidState::kFailed;
  bool rebuilding = false;
  std::size_t down = 0;
  for (auto s : states_) {
    if (s == MemberState::kRebuilding) rebuilding = true;
    if (s != MemberState::kOnline) ++down;
  }
  if (rebuilding) return RaidState::kRebuilding;
  if (down > 0) return RaidState::kDegraded;
  return RaidState::kNormal;
}

std::size_t Raid6Group::unavailable_members() const {
  std::size_t down = 0;
  for (auto s : states_) {
    if (s != MemberState::kOnline) ++down;
  }
  return down;
}

void Raid6Group::fail_member(std::size_t i) {
  states_.at(i) = MemberState::kFailed;
  check_data_loss();
}

void Raid6Group::start_rebuild(std::size_t i) {
  if (states_.at(i) != MemberState::kFailed) {
    throw std::logic_error("start_rebuild: member is not failed");
  }
  states_[i] = MemberState::kRebuilding;
}

double Raid6Group::rebuild_time_s() const {
  const double cap = static_cast<double>(members_.front().capacity());
  return cap / (params_.rebuild_rate * params_.rebuild_speedup);
}

void Raid6Group::finish_rebuild(std::size_t i) {
  if (states_.at(i) != MemberState::kRebuilding) {
    throw std::logic_error("finish_rebuild: member is not rebuilding");
  }
  states_[i] = MemberState::kOnline;
}

void Raid6Group::restore_member(std::size_t i) {
  if (data_lost_) return;  // loss is sticky
  states_.at(i) = MemberState::kOnline;
}

void Raid6Group::check_data_loss() {
  if (unavailable_members() > params_.parity_disks) data_lost_ = true;
}

Bandwidth Raid6Group::bandwidth(IoMode mode, IoDir dir, Bytes request_size) const {
  if (data_lost_) return 0.0;
  // Striped transfer paced by the slowest online member. Positioning
  // efficiency is evaluated at full request granularity rather than the
  // per-disk chunk: the storage controller coalesces the stripe's chunk
  // accesses and prefetches, so each spindle sees near-request-sized
  // contiguous work. This keeps the model on the paper's calibration point
  // (random 1 MB ≈ 20-25% of sequential per disk at the array level).
  Bandwidth min_bw = 0.0;
  bool first = true;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (states_[i] != MemberState::kOnline) continue;
    const Bandwidth bw = members_[i].effective_bw(mode, dir, request_size);
    if (first || bw < min_bw) {
      min_bw = bw;
      first = false;
    }
  }
  if (first) return 0.0;  // no online members
  double eff = 1.0;
  if (dir == IoDir::kWrite) {
    eff = request_size >= full_stripe() ? params_.full_stripe_write_eff
                                        : params_.rmw_eff;
  }
  switch (state()) {
    case RaidState::kDegraded:
      eff *= params_.degraded_factor;
      break;
    case RaidState::kRebuilding:
      eff *= params_.rebuilding_factor;
      break;
    case RaidState::kNormal:
    case RaidState::kFailed:
      break;
  }
  return static_cast<double>(params_.data_disks) * min_bw * eff;
}

}  // namespace spider::block
