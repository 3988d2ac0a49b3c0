#include "block/controller.hpp"

#include <stdexcept>

namespace spider::block {

ControllerParams upgraded_controller_params() {
  ControllerParams p;
  p.per_controller_bw = kUpgradedControllerBw;
  return p;
}

ControllerPair::ControllerPair(const ControllerParams& params) : params_(params) {
  if (params_.per_controller_bw <= 0.0) {
    throw std::invalid_argument("controller bandwidth must be > 0");
  }
}

Bandwidth ControllerPair::delivered_bw() const {
  switch (state_) {
    case PairState::kActiveActive:
      return 2.0 * params_.per_controller_bw;
    case PairState::kFailedOver:
      return params_.per_controller_bw;
    case PairState::kOffline:
      return 0.0;
  }
  return 0.0;
}

void ControllerPair::fail_one() {
  if (state_ == PairState::kActiveActive) state_ = PairState::kFailedOver;
}

void ControllerPair::recover() {
  if (state_ == PairState::kFailedOver) state_ = PairState::kActiveActive;
}

std::uint64_t ControllerPair::take_offline(bool graceful) {
  std::uint64_t lost = 0;
  if (graceful) {
    journal_commit();
  } else {
    lost = journal_entries_;
    journal_lost_total_ += lost;
    journal_entries_ = 0;
  }
  state_ = PairState::kOffline;
  return lost;
}

void ControllerPair::bring_online() { state_ = PairState::kActiveActive; }

void ControllerPair::journal_add(std::uint64_t files) { journal_entries_ += files; }

void ControllerPair::journal_commit() { journal_entries_ = 0; }

}  // namespace spider::block
