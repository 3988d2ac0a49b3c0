#include "core/churn_scenario.hpp"

#include <stdexcept>

#include "block/disk.hpp"

namespace spider::core {

namespace {

/// Per-namespace seed derivation, same splitmix stride ScaleScenario uses.
constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ull;
constexpr std::size_t kOstsPerNamespace = 4;
/// Concurrent churn streams per namespace.
constexpr std::size_t kActorsPerNamespace = 4;
constexpr Bytes kFileBytes = 8_MiB;
constexpr std::uint32_t kProjects = 16;
/// Ops between oplog commits, per namespace.
constexpr std::size_t kCommitEvery = 8;

std::vector<block::Disk> healthy_members(std::size_t n = 10) {
  std::vector<block::Disk> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(block::DiskParams{}, static_cast<std::uint32_t>(i), 1.0,
                     1e-4);
  }
  return out;
}

}  // namespace

ChurnScenario::ChurnScenario(const ChurnParams& params, sim::Simulator& sim)
    : params_(params), sim_(sim) {
  if (params_.namespaces == 0) {
    throw std::invalid_argument("ChurnScenario: namespaces must be >= 1");
  }
  namespaces_ = std::vector<Namespace>(params_.namespaces);
  for (std::size_t i = 0; i < params_.namespaces; ++i) {
    Namespace& space = namespaces_[i];
    std::vector<fs::Ost*> ptrs;
    for (std::size_t o = 0; o < kOstsPerNamespace; ++o) {
      space.groups.push_back(std::make_unique<block::Raid6Group>(
          block::RaidParams{}, healthy_members()));
      space.osts.push_back(std::make_unique<fs::Ost>(
          static_cast<std::uint32_t>(o), space.groups.back().get()));
      ptrs.push_back(space.osts.back().get());
    }
    space.ns = std::make_unique<fs::FsNamespace>(
        "mdt" + std::to_string(i), std::move(ptrs));
    // Default mask: no atime records, same as Lustre's stock changelog.
    space.ns->attach_oplog(&space.log, fs::kLogDefault);
    space.rng = Rng(params_.seed ^ (kSeedStride * (i + 1)));
  }
}

sim::SimTime ChurnScenario::jittered(Rng& rng) {
  return kThink / 2 + static_cast<sim::SimTime>(rng.uniform_index(kThink));
}

void ChurnScenario::seed_population() {
  for (Namespace& space : namespaces_) {
    for (std::size_t f = 0; f < params_.initial_files; ++f) {
      const std::uint32_t project =
          static_cast<std::uint32_t>(space.rng.uniform_index(kProjects));
      const fs::FileId id =
          space.ns->create_file(project, kFileBytes, 0, space.rng);
      if (id == fs::kNoFile) {
        ++space.totals.refused;
        continue;
      }
      ++space.totals.creates;
      space.pool.push_back(id);
    }
    // The seeded population is one committed transaction: consumers may
    // start from a fully durable baseline.
    space.log.commit(space.log.last_txid());
    space.ops_since_commit = 0;
  }
}

void ChurnScenario::start() {
  const sim::Site loc;
  for (std::size_t i = 0; i < namespaces_.size(); ++i) {
    Namespace& space = namespaces_[i];
    for (std::size_t a = 0; a < kActorsPerNamespace; ++a) {
      const sim::SimTime at = jittered(space.rng) / 2;
      sim_.schedule_at(
          at,
          [this, i, loc] { actor_step(i, params_.ops_per_actor, loc); }, loc);
    }
  }
}

void ChurnScenario::actor_step(std::size_t i, std::size_t remaining,
                               sim::Site loc) {
  if (remaining == 0) return;
  Namespace& space = namespaces_[i];
  one_op(space, sim_.now());
  maybe_commit(space);
  const sim::SimTime gap = jittered(space.rng);
  sim_.schedule_in(
      gap, [this, i, remaining, loc] { actor_step(i, remaining - 1, loc); },
      loc);
}

void ChurnScenario::one_op(Namespace& space, sim::SimTime now) {
  // Mix: 30% create, 20% unlink, 20% touch, 20% resize, 10% setproject.
  // With an empty pool everything degrades to create.
  const std::uint64_t roll = space.rng.uniform_index(10);
  const bool have_files = !space.pool.empty();
  if (roll < 3 || !have_files) {
    const std::uint32_t project =
        static_cast<std::uint32_t>(space.rng.uniform_index(kProjects));
    const fs::FileId id =
        space.ns->create_file(project, kFileBytes, now, space.rng);
    if (id == fs::kNoFile) {
      ++space.totals.refused;
      return;
    }
    ++space.totals.creates;
    space.pool.push_back(id);
    return;
  }
  const std::size_t pick =
      static_cast<std::size_t>(space.rng.uniform_index(space.pool.size()));
  const fs::FileId victim = space.pool[pick];
  if (!space.ns->exists(victim)) {
    // An external consumer (the purge daemon) unlinked it since we last
    // looked — the client's op races the policy engine and loses.
    ++space.totals.refused;
    space.pool[pick] = space.pool.back();
    space.pool.pop_back();
    return;
  }
  if (roll < 5) {
    if (space.ns->unlink(victim, now)) {
      ++space.totals.unlinks;
      space.pool[pick] = space.pool.back();
      space.pool.pop_back();
    } else {
      ++space.totals.refused;
    }
  } else if (roll < 7) {
    space.ns->touch_file(victim, now);
    ++space.totals.touches;
  } else if (roll < 9) {
    // Resize within [1/2, 2) of the nominal size so the fleet never fills.
    const Bytes lo = kFileBytes / 2;
    const Bytes new_size =
        lo + space.rng.uniform_index(kFileBytes + kFileBytes / 2);
    if (space.ns->resize_file(victim, new_size, now)) {
      ++space.totals.resizes;
    } else {
      ++space.totals.refused;
    }
  } else {
    const std::uint32_t project =
        static_cast<std::uint32_t>(space.rng.uniform_index(kProjects));
    if (space.ns->set_project(victim, project, now)) {
      ++space.totals.setprojects;
    } else {
      ++space.totals.refused;
    }
  }
}

void ChurnScenario::maybe_commit(Namespace& space) {
  if (++space.ops_since_commit < kCommitEvery) return;
  space.log.commit(space.log.last_txid());
  space.ops_since_commit = 0;
}

void ChurnScenario::commit_all() {
  for (Namespace& space : namespaces_) {
    space.log.commit(space.log.last_txid());
    space.ops_since_commit = 0;
  }
}

ChurnTotals ChurnScenario::totals() const {
  ChurnTotals sum;
  for (const Namespace& space : namespaces_) {
    sum.creates += space.totals.creates;
    sum.unlinks += space.totals.unlinks;
    sum.touches += space.totals.touches;
    sum.resizes += space.totals.resizes;
    sum.setprojects += space.totals.setprojects;
    sum.refused += space.totals.refused;
  }
  return sum;
}

std::uint64_t ChurnScenario::logical_files() const {
  std::uint64_t live = 0;
  for (const Namespace& space : namespaces_) live += space.ns->live_files();
  return live * params_.cohort;
}

Bytes ChurnScenario::logical_bytes() const {
  Bytes physical = 0;
  for (const Namespace& space : namespaces_) {
    for (const auto& [project, bytes] : space.ns->usage_by_project()) {
      physical += bytes;
    }
  }
  return physical * static_cast<Bytes>(params_.cohort);
}

}  // namespace spider::core
