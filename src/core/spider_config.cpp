#include "core/spider_config.hpp"

#include <algorithm>
#include <cmath>

namespace spider::core {

CenterConfig spider2_config(bool upgraded_controllers) {
  CenterConfig cfg;
  cfg.name = upgraded_controllers ? "spider2" : "spider2-preupgrade";
  cfg.placement.modules = 110;
  cfg.placement.routers_per_module = 4;
  cfg.placement.num_groups = 36;
  cfg.placement.leaf_switches = 36;
  cfg.ssu.raid_groups = 56;
  cfg.ssu.enclosures = 10;  // the corrected failure-domain design
  cfg.ssu.controller = upgraded_controllers ? block::upgraded_controller_params()
                                            : block::ControllerParams{};
  return cfg;
}

CenterConfig spider1_config() {
  CenterConfig cfg;
  cfg.name = "spider1";
  // Jaguar-era: 25x16x24 SeaStar torus approximated with the same dims but
  // fewer clients; 192 routers.
  cfg.clients = 18688 / 2;
  cfg.placement.modules = 48;
  cfg.placement.routers_per_module = 4;
  cfg.placement.num_groups = 24;
  cfg.placement.leaf_switches = 24;
  cfg.fabric.leaf_switches = 24;
  cfg.router_bw = 1.6 * kGBps;
  // 13,440 1 TB SATA disks -> 48 smaller SSUs, 240 GB/s aggregate.
  cfg.ssus = 48;
  cfg.ssu.raid_groups = 28;
  cfg.ssu.enclosures = 5;  // the design the 2010 incident exposed
  cfg.ssu.disk.seq_read_bw = 90.0 * kMBps;
  cfg.ssu.disk.seq_write_bw = 85.0 * kMBps;
  cfg.ssu.disk.capacity = 1_TB;
  block::ControllerParams ctrl;
  ctrl.per_controller_bw = 2.8 * kGBps;  // DDN S2A9900 couplet class
  cfg.ssu.controller = ctrl;
  cfg.oss_count = 192;
  cfg.namespaces = 4;
  cfg.client_stream_bw = 350.0 * kMBps;
  return cfg;
}

CenterConfig scaled_config(CenterConfig cfg, double f) {
  f = std::clamp(f, 1e-3, 1.0);
  auto scale_count = [f](std::size_t n) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(
                                        static_cast<double>(n) * f)));
  };
  cfg.name += "-scaled";
  cfg.clients = static_cast<std::uint32_t>(
      std::max<std::size_t>(4, scale_count(cfg.clients)));
  cfg.ssus = scale_count(cfg.ssus);
  cfg.oss_count = scale_count(cfg.oss_count);
  cfg.placement.modules = scale_count(cfg.placement.modules);
  // Keep group count aligned with leaf switches where possible.
  cfg.placement.num_groups =
      std::max<std::size_t>(1, scale_count(cfg.placement.num_groups));
  cfg.placement.leaf_switches = cfg.placement.num_groups;
  cfg.fabric.leaf_switches = cfg.placement.num_groups;
  // Shrink the torus by cbrt(f) per dimension so node count scales ~f.
  const double lin = std::cbrt(f);
  auto scale_dim = [lin](int d) {
    return std::max(2, static_cast<int>(std::llround(d * lin)));
  };
  cfg.torus.x = scale_dim(cfg.torus.x);
  cfg.torus.y = scale_dim(cfg.torus.y);
  cfg.torus.z = scale_dim(cfg.torus.z);
  return cfg;
}

}  // namespace spider::core
