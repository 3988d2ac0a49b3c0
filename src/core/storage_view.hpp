// The center as a placement library sees it: the storage wiring plus a
// utilization snapshot, both plain data. CenterModel produces them and
// tools::LibPio (tools/libpio.hpp) consumes them, so they live here in the
// core layer and neither side has to include the other's header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spider::core {

/// Snapshot of component utilizations, indexed by component id.
struct LoadSnapshot {
  std::vector<double> ost_load;
  std::vector<double> oss_load;
  std::vector<double> router_load;
};

/// Static wiring libPIO needs: which OSS serves each OST, and which IB
/// leaf each OSS and router sit on.
struct StorageTopology {
  std::vector<std::uint32_t> ost_to_oss;
  std::vector<std::size_t> oss_to_leaf;
  std::vector<std::size_t> router_to_leaf;
};

}  // namespace spider::core
