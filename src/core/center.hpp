// CenterModel: the whole OLCF I/O stack wired together (Figure 1).
//
// Builds, from a CenterConfig: the Titan-like torus and its client
// population, placed LNET routers with FGR, the SION InfiniBand fabric,
// the SSU fleet (disks, RAID groups, controller pairs), OSTs/OSS, and the
// multi-namespace Lustre-like file system — then registers every layer as
// capacitated solver resources so end-to-end experiments (Lessons 12, 14,
// 15) run against the full path:
//
//   client NIC -> torus links -> LNET router -> IB leaf [-> core -> leaf]
//     -> OSS -> controller pair -> OST (RAID group)
//
// CenterModel implements workload::IoPathProvider for steady-state IOR
// sweeps, and can register its resources into a dynamic FlowNetwork for
// DES scenarios (bursts, interference, rebuild windows).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/spider_config.hpp"
#include "core/storage_view.hpp"
#include "fs/filesystem.hpp"
#include "net/fgr.hpp"
#include "sim/flow_network.hpp"
#include "sim/steady_state.hpp"
#include "workload/ior.hpp"

namespace spider::core {

enum class RoutingPolicy { kFgr, kNearest, kRoundRobin };
enum class ClientPlacement { kRandom, kOptimal };

/// Resource ids of every layer inside one solver/network instance.
struct ResourceMap {
  std::vector<sim::ResourceId> node_nic;    ///< per torus node
  std::vector<sim::ResourceId> torus_link;  ///< per directed link (may be empty)
  std::vector<sim::ResourceId> router;
  std::vector<sim::ResourceId> ib_leaf;
  std::vector<sim::ResourceId> ib_core;
  std::vector<sim::ResourceId> oss;
  std::vector<sim::ResourceId> controller;  ///< per SSU (pair)
  std::vector<sim::ResourceId> ost;
  bool has_torus_links = false;
};

class CenterModel final : public workload::IoPathProvider {
 public:
  CenterModel(const CenterConfig& config, Rng& rng);

  const CenterConfig& config() const { return config_; }

  // --- topology accessors -------------------------------------------------
  const net::Torus3D& torus() const { return torus_; }
  const net::FgrPolicy& fgr() const { return *fgr_; }
  const net::IbFabric& fabric() const { return fabric_; }
  std::size_t num_ssus() const { return ssus_.size(); }
  block::Ssu& ssu(std::size_t i) { return ssus_.at(i); }
  std::size_t total_osts() const { return osts_.size(); }
  fs::Ost& ost_at(std::size_t global) { return osts_.at(global); }
  std::size_t num_oss() const { return oss_.size(); }
  fs::FileSystem& filesystem() { return filesystem_; }

  std::size_t oss_of_ost(std::size_t global_ost) const;
  std::size_t ssu_of_ost(std::size_t global_ost) const;
  std::size_t namespace_of_ost(std::size_t global_ost) const;
  std::size_t leaf_of_ost(std::size_t global_ost) const;
  int node_of_client(std::size_t client) const;

  // --- knobs ---------------------------------------------------------------
  /// Which namespace IOR-style runs target; SIZE_MAX = all OSTs.
  void set_target_namespace(std::size_t ns);
  void set_routing_policy(RoutingPolicy policy) { routing_ = policy; }
  /// Re-deal clients to torus nodes. kRandom models scheduler placement
  /// (optimized for nearest-neighbor compute, not I/O); kOptimal co-locates
  /// clients with their routers (the paper's hand-placed 1,008-client run).
  void set_client_placement(ClientPlacement placement, Rng& rng);
  /// Swap controller generation fleet-wide and refresh solver capacities.
  void upgrade_controllers(const block::ControllerParams& params);
  /// Set every OST's used-space fraction (fill-state experiments) and
  /// refresh solver capacities.
  void set_fleet_fullness(double fraction);
  /// Re-read every component's current bandwidth into the solver (after
  /// culling, failures, rebuilds, fullness changes...).
  void refresh_capacities();

  // --- IoPathProvider ------------------------------------------------------
  std::size_t max_clients() const override { return config_.clients; }
  std::size_t num_osts() const override;
  void reset_flows() override { solver_.clear_flows(); }
  sim::SteadyStateSolver& solver() override { return solver_; }
  workload::DataFlow data_flow(std::size_t client, std::size_t ost,
                               block::IoDir dir, block::IoMode mode,
                               Bytes request_size) override;

  /// Same flow construction against an arbitrary resource map (DES use).
  workload::DataFlow make_flow(const ResourceMap& map, std::size_t client,
                               std::size_t global_ost, block::IoDir dir,
                               block::IoMode mode, Bytes request_size);

  /// Register all layers into a dynamic network. `include_torus_links`
  /// adds per-link resources (full fidelity; larger solves).
  ResourceMap register_into(sim::FlowNetwork& net,
                            bool include_torus_links = false) const;
  const ResourceMap& steady_map() const { return steady_map_; }

  // --- telemetry ------------------------------------------------------------
  /// Utilization snapshot from the last steady-state solve (libPIO input).
  LoadSnapshot loads_from_solver() const;
  /// Utilization snapshot from a dynamic network's current state.
  LoadSnapshot loads_from_network(const sim::FlowNetwork& net,
                                  const ResourceMap& map) const;
  /// Static wiring for libPIO.
  StorageTopology storage_topology() const;

  /// Theoretical ceilings per layer for a uniform workload — the Lesson 12
  /// bottom-up profile.
  struct LayerProfile {
    double disks = 0.0;        ///< raw media aggregate
    double raid = 0.0;         ///< after RAID geometry/parity
    double controllers = 0.0;  ///< controller-pair ceiling
    double obdfilter = 0.0;    ///< after FS overheads (OST level)
    double oss = 0.0;          ///< OSS node ceilings
    double routers = 0.0;      ///< LNET router fleet
    double ib_leaves = 0.0;
    double clients = 0.0;      ///< aggregate client pipeline (optimal)
    double end_to_end = 0.0;   ///< min of the stacked layers
  };
  LayerProfile layer_profile(block::IoMode mode, block::IoDir dir,
                             Bytes request_size = 1_MiB) const;

 private:
  std::size_t ns_base_ost(std::size_t ns) const;
  std::size_t select_router(int client_node, std::size_t dest_leaf);
  std::vector<double> current_ost_refs() const;
  void build_fleet(Rng& rng);
  void build_filesystem();
  void build_solver();
  double ost_capacity_ref(std::size_t global_ost) const;
  double controller_capacity(std::size_t ssu) const;

  CenterConfig config_;
  net::Torus3D torus_;
  net::IbFabric fabric_;
  std::vector<net::PlacedRouter> routers_;
  std::unique_ptr<net::FgrPolicy> fgr_;
  std::vector<block::Ssu> ssus_;
  std::vector<fs::Ost> osts_;
  std::vector<fs::Oss> oss_;
  fs::FileSystem filesystem_;
  std::vector<int> node_of_client_;
  ClientPlacement placement_mode_ = ClientPlacement::kRandom;
  RoutingPolicy routing_ = RoutingPolicy::kFgr;
  std::uint64_t rr_counter_ = 0;
  std::size_t target_ns_ = 0;
  sim::SteadyStateSolver solver_;
  ResourceMap steady_map_;
  std::vector<double> ost_ref_bw_;
};

}  // namespace spider::core
