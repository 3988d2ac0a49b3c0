#include "core/churn_scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "block/disk.hpp"

namespace spider::core {

namespace {

/// Per-namespace seed derivation, same splitmix stride ScaleScenario uses.
constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ull;

std::vector<block::Disk> healthy_members(std::size_t n = 10) {
  std::vector<block::Disk> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(block::DiskParams{}, static_cast<std::uint32_t>(i), 1.0,
                     1e-4);
  }
  return out;
}

}  // namespace

ChurnScenario::ChurnScenario(const ChurnParams& params,
                             sim::ShardedSimulator& engine,
                             const sim::ShardMap& map)
    : params_(params), engine_(engine), map_(map) {
  if (params_.namespaces == 0) {
    throw std::invalid_argument("ChurnScenario: namespaces must be >= 1");
  }
  if (map_.domains() < params_.namespaces) {
    throw std::invalid_argument(
        "ChurnScenario: shard map covers fewer domains than namespaces");
  }
  if (map_.shards() > engine_.shards()) {
    throw std::invalid_argument(
        "ChurnScenario: shard map targets more shards than the engine has");
  }
  shards_ = std::vector<Shard>(params_.namespaces);
  for (std::size_t i = 0; i < params_.namespaces; ++i) {
    Shard& shard = shards_[i];
    std::vector<fs::Ost*> ptrs;
    for (std::size_t o = 0; o < std::max<std::size_t>(1, params_.osts_per_namespace); ++o) {
      shard.groups.push_back(std::make_unique<block::Raid6Group>(
          block::RaidParams{}, healthy_members()));
      shard.osts.push_back(std::make_unique<fs::Ost>(
          static_cast<std::uint32_t>(o), shard.groups.back().get()));
      ptrs.push_back(shard.osts.back().get());
    }
    shard.ns = std::make_unique<fs::FsNamespace>(
        "mdt" + std::to_string(i), std::move(ptrs));
    // Default mask: no atime records, same as Lustre's stock changelog.
    shard.ns->attach_oplog(&shard.log, fs::kLogDefault);
    shard.rng = Rng(params_.seed ^ (kSeedStride * (i + 1)));
  }
}

sim::Simulator& ChurnScenario::shard_sim(std::size_t i) {
  return engine_.shard(map_.shard_of(i));
}

sim::SimTime ChurnScenario::jittered(Rng& rng, sim::SimTime mean) {
  const auto span = static_cast<std::uint64_t>(std::max<sim::SimTime>(1, mean));
  return mean / 2 + static_cast<sim::SimTime>(rng.uniform_index(span));
}

void ChurnScenario::seed_population() {
  for (Shard& shard : shards_) {
    for (std::size_t f = 0; f < params_.initial_files; ++f) {
      const std::uint32_t project = static_cast<std::uint32_t>(
          shard.rng.uniform_index(std::max<std::uint32_t>(1, params_.projects)));
      const fs::FileId id =
          shard.ns->create_file(project, params_.file_bytes, 0, shard.rng);
      if (id == fs::kNoFile) {
        ++shard.totals.refused;
        continue;
      }
      ++shard.totals.creates;
      shard.pool.push_back(id);
    }
    // The seeded population is one committed transaction: consumers may
    // start from a fully durable baseline.
    shard.log.commit(shard.log.last_txid());
    shard.ops_since_commit = 0;
  }
}

void ChurnScenario::start() {
  const sim::Site loc;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    for (std::size_t a = 0; a < params_.actors_per_namespace; ++a) {
      const sim::SimTime at = jittered(shard.rng, params_.think) / 2;
      shard_sim(i).schedule_at(
          at,
          [this, i, loc] { actor_step(i, params_.ops_per_actor, loc); }, loc);
    }
  }
}

void ChurnScenario::actor_step(std::size_t i, std::size_t remaining,
                               sim::Site loc) {
  if (remaining == 0) return;
  Shard& shard = shards_[i];
  one_op(shard, shard_sim(i).now());
  maybe_commit(shard);
  const sim::SimTime gap = jittered(shard.rng, params_.think);
  shard_sim(i).schedule_in(
      gap, [this, i, remaining, loc] { actor_step(i, remaining - 1, loc); },
      loc);
}

void ChurnScenario::one_op(Shard& shard, sim::SimTime now) {
  // Mix: 30% create, 20% unlink, 20% touch, 20% resize, 10% setproject.
  // With an empty pool everything degrades to create.
  const std::uint64_t roll = shard.rng.uniform_index(10);
  const bool have_files = !shard.pool.empty();
  if (roll < 3 || !have_files) {
    const std::uint32_t project = static_cast<std::uint32_t>(
        shard.rng.uniform_index(std::max<std::uint32_t>(1, params_.projects)));
    const fs::FileId id =
        shard.ns->create_file(project, params_.file_bytes, now, shard.rng);
    if (id == fs::kNoFile) {
      ++shard.totals.refused;
      return;
    }
    ++shard.totals.creates;
    shard.pool.push_back(id);
    return;
  }
  const std::size_t pick =
      static_cast<std::size_t>(shard.rng.uniform_index(shard.pool.size()));
  const fs::FileId victim = shard.pool[pick];
  if (!shard.ns->exists(victim)) {
    // An external consumer (the purge daemon) unlinked it since we last
    // looked — the client's op races the policy engine and loses.
    ++shard.totals.refused;
    shard.pool[pick] = shard.pool.back();
    shard.pool.pop_back();
    return;
  }
  if (roll < 5) {
    if (shard.ns->unlink(victim, now)) {
      ++shard.totals.unlinks;
      shard.pool[pick] = shard.pool.back();
      shard.pool.pop_back();
    } else {
      ++shard.totals.refused;
    }
  } else if (roll < 7) {
    shard.ns->touch_file(victim, now);
    ++shard.totals.touches;
  } else if (roll < 9) {
    // Resize within [1/2, 2) of the nominal size so the fleet never fills.
    const Bytes lo = params_.file_bytes / 2;
    const Bytes new_size =
        lo + static_cast<Bytes>(shard.rng.uniform_index(
                 std::max<Bytes>(1, params_.file_bytes + params_.file_bytes / 2)));
    if (shard.ns->resize_file(victim, new_size, now)) {
      ++shard.totals.resizes;
    } else {
      ++shard.totals.refused;
    }
  } else {
    const std::uint32_t project = static_cast<std::uint32_t>(
        shard.rng.uniform_index(std::max<std::uint32_t>(1, params_.projects)));
    if (shard.ns->set_project(victim, project, now)) {
      ++shard.totals.setprojects;
    } else {
      ++shard.totals.refused;
    }
  }
}

void ChurnScenario::maybe_commit(Shard& shard) {
  ++shard.ops_since_commit;
  if (shard.ops_since_commit < std::max<std::size_t>(1, params_.commit_every)) {
    return;
  }
  shard.log.commit(shard.log.last_txid());
  shard.ops_since_commit = 0;
}

void ChurnScenario::commit_all() {
  for (Shard& shard : shards_) {
    shard.log.commit(shard.log.last_txid());
    shard.ops_since_commit = 0;
  }
}

ChurnTotals ChurnScenario::totals() const {
  ChurnTotals sum;
  for (const Shard& shard : shards_) {
    sum.creates += shard.totals.creates;
    sum.unlinks += shard.totals.unlinks;
    sum.touches += shard.totals.touches;
    sum.resizes += shard.totals.resizes;
    sum.setprojects += shard.totals.setprojects;
    sum.refused += shard.totals.refused;
  }
  return sum;
}

std::uint64_t ChurnScenario::logical_files() const {
  std::uint64_t live = 0;
  for (const Shard& shard : shards_) live += shard.ns->live_files();
  return live * params_.cohort;
}

Bytes ChurnScenario::logical_bytes() const {
  Bytes physical = 0;
  for (const Shard& shard : shards_) {
    for (const auto& [project, bytes] : shard.ns->usage_by_project()) {
      physical += bytes;
    }
  }
  return physical * static_cast<Bytes>(params_.cohort);
}

}  // namespace spider::core
