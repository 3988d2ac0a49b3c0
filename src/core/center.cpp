#include "core/center.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

namespace spider::core {

CenterModel::CenterModel(const CenterConfig& config, Rng& rng)
    : config_(config),
      torus_(config.torus),
      fabric_(config.fabric),
      filesystem_(config.name) {
  routers_ = net::place_routers(torus_, config_.placement,
                                config_.placement_strategy);
  fgr_ = std::make_unique<net::FgrPolicy>(torus_, routers_,
                                          config_.fabric.leaf_switches);
  build_fleet(rng);
  build_filesystem();
  set_client_placement(ClientPlacement::kRandom, rng);
  build_solver();
}

void CenterModel::build_fleet(Rng& rng) {
  ssus_.reserve(config_.ssus);
  for (std::size_t s = 0; s < config_.ssus; ++s) {
    ssus_.emplace_back(config_.ssu, static_cast<std::uint32_t>(s), rng);
  }
  const std::size_t n_ost = config_.ssus * config_.ssu.raid_groups;
  osts_.reserve(n_ost);
  for (std::size_t o = 0; o < n_ost; ++o) {
    const std::size_t s = o / config_.ssu.raid_groups;
    const std::size_t g = o % config_.ssu.raid_groups;
    osts_.emplace_back(static_cast<std::uint32_t>(o), &ssus_[s].group(g),
                       config_.ost);
  }
  oss_.reserve(config_.oss_count);
  const std::size_t per_oss =
      (n_ost + config_.oss_count - 1) / config_.oss_count;
  for (std::size_t i = 0; i < config_.oss_count; ++i) {
    oss_.emplace_back(static_cast<std::uint32_t>(i), config_.oss,
                      fabric_.leaf_of_oss(i, config_.oss_count));
  }
  for (std::size_t o = 0; o < n_ost; ++o) {
    oss_[std::min(o / per_oss, oss_.size() - 1)].attach(&osts_[o]);
  }
}

void CenterModel::build_filesystem() {
  const std::size_t n_ost = osts_.size();
  const std::size_t per_ns = n_ost / config_.namespaces;
  for (std::size_t n = 0; n < config_.namespaces; ++n) {
    std::vector<fs::Ost*> slice;
    const std::size_t base = n * per_ns;
    const std::size_t end = n + 1 == config_.namespaces ? n_ost : base + per_ns;
    for (std::size_t o = base; o < end; ++o) slice.push_back(&osts_[o]);
    filesystem_.add_namespace(std::make_unique<fs::FsNamespace>(
        config_.name + "-ns" + std::to_string(n), std::move(slice), config_.mds,
        config_.allocator_mode, config_.default_stripe));
  }
}

std::size_t CenterModel::oss_of_ost(std::size_t global_ost) const {
  const std::size_t per_oss =
      (osts_.size() + oss_.size() - 1) / oss_.size();
  return std::min(global_ost / per_oss, oss_.size() - 1);
}

std::size_t CenterModel::ssu_of_ost(std::size_t global_ost) const {
  return global_ost / config_.ssu.raid_groups;
}

std::size_t CenterModel::namespace_of_ost(std::size_t global_ost) const {
  const std::size_t per_ns = osts_.size() / config_.namespaces;
  return std::min(global_ost / per_ns, config_.namespaces - 1);
}

std::size_t CenterModel::leaf_of_ost(std::size_t global_ost) const {
  return oss_[oss_of_ost(global_ost)].ib_leaf();
}

int CenterModel::node_of_client(std::size_t client) const {
  return node_of_client_.at(client % node_of_client_.size());
}

void CenterModel::set_client_placement(ClientPlacement placement, Rng& rng) {
  placement_mode_ = placement;
  node_of_client_.assign(config_.clients, 0);
  if (placement == ClientPlacement::kOptimal) {
    // Co-locate each client with a router node (zero-hop I/O path).
    for (std::size_t c = 0; c < node_of_client_.size(); ++c) {
      node_of_client_[c] = routers_[c % routers_.size()].node;
    }
    return;
  }
  // Scheduler placement: clients land on a random permutation of node
  // slots (clients_per_node per node), optimized for compute locality, not
  // for I/O.
  std::vector<int> slots;
  slots.reserve(static_cast<std::size_t>(torus_.num_nodes()) *
                config_.clients_per_node);
  for (int n = 0; n < torus_.num_nodes(); ++n) {
    for (std::uint32_t k = 0; k < config_.clients_per_node; ++k) {
      slots.push_back(n);
    }
  }
  // Fisher-Yates with our deterministic rng.
  for (std::size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.uniform_index(i)]);
  }
  for (std::size_t c = 0; c < node_of_client_.size(); ++c) {
    node_of_client_[c] = slots[c % slots.size()];
  }
}

double CenterModel::ost_capacity_ref(std::size_t global_ost) const {
  return osts_[global_ost].bandwidth(block::IoMode::kSequential,
                                     block::IoDir::kWrite, config_.max_rpc);
}

double CenterModel::controller_capacity(std::size_t ssu) const {
  return ssus_[ssu].controller().delivered_bw();
}

namespace {
/// Adapter so the same registration code serves SteadyStateSolver and
/// FlowNetwork (both expose add_resource(name, capacity)).
template <typename Net>
ResourceMap register_all(Net& net, const CenterConfig& cfg,
                         const net::Torus3D& torus, std::size_t routers,
                         bool include_torus_links,
                         const std::vector<double>& oss_bw,
                         const std::vector<double>& ctrl_bw,
                         const std::vector<double>& ost_ref) {
  ResourceMap map;
  map.has_torus_links = include_torus_links;
  map.node_nic.reserve(static_cast<std::size_t>(torus.num_nodes()));
  for (int n = 0; n < torus.num_nodes(); ++n) {
    map.node_nic.push_back(
        net.add_resource("nic" + std::to_string(n), cfg.node_injection_bw));
  }
  if (include_torus_links) {
    map.torus_link.reserve(static_cast<std::size_t>(torus.num_links()));
    for (int l = 0; l < torus.num_links(); ++l) {
      map.torus_link.push_back(
          net.add_resource("tl" + std::to_string(l), cfg.torus_link_bw));
    }
  }
  for (std::size_t r = 0; r < routers; ++r) {
    map.router.push_back(
        net.add_resource("rtr" + std::to_string(r), cfg.router_bw));
  }
  for (std::size_t l = 0; l < cfg.fabric.leaf_switches; ++l) {
    map.ib_leaf.push_back(
        net.add_resource("leaf" + std::to_string(l), cfg.fabric.leaf_bw));
  }
  for (std::size_t c = 0; c < cfg.fabric.core_switches; ++c) {
    map.ib_core.push_back(
        net.add_resource("core" + std::to_string(c), cfg.fabric.core_bw));
  }
  for (std::size_t i = 0; i < oss_bw.size(); ++i) {
    map.oss.push_back(net.add_resource("oss" + std::to_string(i), oss_bw[i]));
  }
  for (std::size_t s = 0; s < ctrl_bw.size(); ++s) {
    map.controller.push_back(
        net.add_resource("ctrl" + std::to_string(s), ctrl_bw[s]));
  }
  for (std::size_t o = 0; o < ost_ref.size(); ++o) {
    map.ost.push_back(net.add_resource("ost" + std::to_string(o), ost_ref[o]));
  }
  return map;
}
}  // namespace

std::vector<double> CenterModel::current_ost_refs() const {
  std::vector<double> refs(osts_.size());
  for (std::size_t o = 0; o < osts_.size(); ++o) {
    refs[o] = ost_capacity_ref(o);
  }
  return refs;
}

void CenterModel::build_solver() {
  ost_ref_bw_ = current_ost_refs();
  std::vector<double> oss_bw;
  for (const auto& s : oss_) oss_bw.push_back(s.node_bw());
  std::vector<double> ctrl_bw;
  for (std::size_t s = 0; s < ssus_.size(); ++s) {
    ctrl_bw.push_back(controller_capacity(s));
  }
  steady_map_ = register_all(solver_, config_, torus_, routers_.size(),
                             /*include_torus_links=*/true, oss_bw, ctrl_bw,
                             ost_ref_bw_);
}

ResourceMap CenterModel::register_into(sim::FlowNetwork& net,
                                       bool include_torus_links) const {
  std::vector<double> oss_bw;
  for (const auto& s : oss_) oss_bw.push_back(s.node_bw());
  std::vector<double> ctrl_bw;
  for (std::size_t s = 0; s < ssus_.size(); ++s) {
    ctrl_bw.push_back(controller_capacity(s));
  }
  return register_all(net, config_, torus_, routers_.size(),
                      include_torus_links, oss_bw, ctrl_bw, current_ost_refs());
}

void CenterModel::refresh_capacities() {
  for (std::size_t s = 0; s < ssus_.size(); ++s) {
    solver_.set_capacity(steady_map_.controller[s], controller_capacity(s));
  }
  for (std::size_t o = 0; o < osts_.size(); ++o) {
    ost_ref_bw_[o] = ost_capacity_ref(o);
    solver_.set_capacity(steady_map_.ost[o], ost_ref_bw_[o]);
  }
}

void CenterModel::upgrade_controllers(const block::ControllerParams& params) {
  for (auto& s : ssus_) s.controller().upgrade(params);
  refresh_capacities();
}

void CenterModel::set_fleet_fullness(double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  for (auto& o : osts_) {
    o.set_used(static_cast<Bytes>(static_cast<double>(o.capacity()) * fraction));
  }
  refresh_capacities();
}

void CenterModel::set_target_namespace(std::size_t ns) {
  if (ns != SIZE_MAX && ns >= config_.namespaces) {
    throw std::out_of_range("set_target_namespace: bad namespace");
  }
  target_ns_ = ns;
}

std::size_t CenterModel::ns_base_ost(std::size_t ns) const {
  if (ns == SIZE_MAX) return 0;
  return ns * (osts_.size() / config_.namespaces);
}

std::size_t CenterModel::num_osts() const {
  if (target_ns_ == SIZE_MAX) return osts_.size();
  const std::size_t per_ns = osts_.size() / config_.namespaces;
  return target_ns_ + 1 == config_.namespaces
             ? osts_.size() - ns_base_ost(target_ns_)
             : per_ns;
}

std::size_t CenterModel::select_router(int client_node, std::size_t dest_leaf) {
  switch (routing_) {
    case RoutingPolicy::kFgr:
      return fgr_->select_fgr(client_node, dest_leaf);
    case RoutingPolicy::kNearest:
      return fgr_->select_nearest(client_node);
    case RoutingPolicy::kRoundRobin:
      return fgr_->select_round_robin(rr_counter_++);
  }
  return 0;
}

workload::DataFlow CenterModel::data_flow(std::size_t client, std::size_t ost,
                                          block::IoDir dir, block::IoMode mode,
                                          Bytes request_size) {
  return make_flow(steady_map_, client, ns_base_ost(target_ns_) + ost, dir,
                   mode, request_size);
}

workload::DataFlow CenterModel::make_flow(const ResourceMap& map,
                                          std::size_t client,
                                          std::size_t global_ost,
                                          block::IoDir dir, block::IoMode mode,
                                          Bytes request_size) {
  workload::DataFlow flow;
  const std::size_t dest_leaf = leaf_of_ost(global_ost);
  int node;
  std::size_t router_idx;
  if (placement_mode_ == ClientPlacement::kOptimal) {
    // Hand-placed for I/O (the paper's 1,008-client peak run): each client
    // sits on the node of a router that uplinks to its destination leaf,
    // so the torus path is zero hops by construction.
    const auto& candidates = fgr_->routers_for_leaf(dest_leaf);
    if (!candidates.empty()) {
      router_idx = candidates[client % candidates.size()];
    } else {
      router_idx = select_router(node_of_client(client), dest_leaf);
    }
    node = routers_[router_idx].node;
  } else {
    node = node_of_client(client);
    router_idx = select_router(node, dest_leaf);
  }
  const net::PlacedRouter& router = routers_[router_idx];
  const int hops = torus_.hop_count(node, router.node);

  // Placement-quality ceiling: see CenterConfig::per_hop_penalty.
  const double stream =
      config_.client_stream_bw /
      (1.0 + config_.per_hop_penalty * static_cast<double>(hops));
  flow.rate_cap = workload::transfer_size_rate_cap(
      request_size, stream, config_.rpc_knee, config_.max_rpc,
      config_.oversize_penalty);

  auto& path = flow.path;
  path.push_back({map.node_nic[static_cast<std::size_t>(node)], 1.0});
  if (map.has_torus_links) {
    for (net::LinkId l : torus_.route(node, router.node)) {
      path.push_back({map.torus_link[l], 1.0});
    }
  }
  path.push_back({map.router[router_idx], 1.0});
  if (router.ib_leaf != dest_leaf) {
    const auto info = fabric_.path(router.ib_leaf, dest_leaf);
    path.push_back({map.ib_leaf[router.ib_leaf], 1.0});
    path.push_back({map.ib_core[info.core_index], 1.0});
  }
  path.push_back({map.ib_leaf[dest_leaf], 1.0});
  path.push_back({map.oss[oss_of_ost(global_ost)], 1.0});
  path.push_back({map.controller[ssu_of_ost(global_ost)], 1.0});

  // OST hop: capacity is the sequential-write reference; the cost factor
  // converts the actual (mode, dir, size) efficiency into extra capacity
  // consumed per delivered byte.
  const Bytes rpc = std::min<Bytes>(request_size, config_.max_rpc);
  const double actual = osts_[global_ost].bandwidth(mode, dir, rpc);
  const double ref = ost_ref_bw_.empty()
                         ? actual
                         : ost_ref_bw_[global_ost];
  if (actual <= 0.0) {
    flow.rate_cap = 0.0;
    path.push_back({map.ost[global_ost], 1.0});
  } else {
    path.push_back({map.ost[global_ost], std::max(1e-3, ref / actual)});
  }
  return flow;
}

LoadSnapshot CenterModel::loads_from_solver() const {
  LoadSnapshot snap;
  snap.ost_load.reserve(steady_map_.ost.size());
  for (auto id : steady_map_.ost) snap.ost_load.push_back(solver_.utilization(id));
  for (auto id : steady_map_.oss) snap.oss_load.push_back(solver_.utilization(id));
  for (auto id : steady_map_.router) {
    snap.router_load.push_back(solver_.utilization(id));
  }
  return snap;
}

LoadSnapshot CenterModel::loads_from_network(
    const sim::FlowNetwork& net, const ResourceMap& map) const {
  LoadSnapshot snap;
  for (auto id : map.ost) snap.ost_load.push_back(net.stats(id).current_load);
  for (auto id : map.oss) snap.oss_load.push_back(net.stats(id).current_load);
  for (auto id : map.router) {
    snap.router_load.push_back(net.stats(id).current_load);
  }
  return snap;
}

StorageTopology CenterModel::storage_topology() const {
  StorageTopology topo;
  topo.ost_to_oss.reserve(osts_.size());
  for (std::size_t o = 0; o < osts_.size(); ++o) {
    topo.ost_to_oss.push_back(static_cast<std::uint32_t>(oss_of_ost(o)));
  }
  for (const auto& s : oss_) topo.oss_to_leaf.push_back(s.ib_leaf());
  for (const auto& r : routers_) topo.router_to_leaf.push_back(r.ib_leaf);
  return topo;
}

CenterModel::LayerProfile CenterModel::layer_profile(block::IoMode mode,
                                                     block::IoDir dir,
                                                     Bytes request_size) const {
  LayerProfile p;
  for (const auto& ssu : ssus_) {
    for (std::size_t g = 0; g < ssu.groups(); ++g) {
      const auto& grp = ssu.group(g);
      for (std::size_t m = 0; m < grp.width(); ++m) {
        p.disks += grp.member(m).effective_bw(mode, dir, request_size);
      }
      p.raid += grp.bandwidth(mode, dir, request_size);
    }
    p.controllers += ssu.controller().delivered_bw();
  }
  for (const auto& o : osts_) p.obdfilter += o.bandwidth(mode, dir, request_size);
  for (const auto& s : oss_) p.oss += s.node_bw();
  p.routers = static_cast<double>(routers_.size()) * config_.router_bw;
  p.ib_leaves = static_cast<double>(config_.fabric.leaf_switches) *
                config_.fabric.leaf_bw;
  p.clients = static_cast<double>(config_.clients) *
              workload::transfer_size_rate_cap(request_size,
                                               config_.client_stream_bw,
                                               config_.rpc_knee,
                                               config_.max_rpc,
                                               config_.oversize_penalty);
  p.end_to_end = std::min({p.obdfilter, p.controllers, p.oss, p.routers,
                           p.ib_leaves, p.clients});
  return p;
}

}  // namespace spider::core
