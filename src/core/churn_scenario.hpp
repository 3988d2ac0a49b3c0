// Billion-entry metadata churn on one serial Simulator.
//
// The Robinhood lesson: namespace scans stop working around 1e9 entries, so
// policy tools must consume a changelog instead. This scenario builds that
// regime — a DNE-style federation of namespaces, each with its own OpLog
// attached — and drives create/unlink/touch/resize/setproject churn from
// per-namespace private Rng streams. Every record stands for a `cohort` of
// identical logical files, so a few thousand physical records per
// namespace model a population past 1e9 logical entries without 1e9
// allocations. The namespaces never exchange events, so one event queue
// hosts them all; the outcome depends only on the params.
//
// Commit cadence is the scenario's (the namespace never commits, see
// fs/fs_namespace.hpp): every 8 ops a namespace's log commits its tail,
// giving consumers a committed prefix that trails the mutation stream the
// way a real MDS transaction boundary does.
//
// The scenario never walks a namespace and never touches repair surfaces
// (truncate_to / records_mutable belong to the fault and repair tooling);
// crash injection and the changelog-consistency oracle live in
// tools/faultcli's churn runner, which drives exactly this class.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "block/raid.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fs/fs_namespace.hpp"
#include "fs/journal.hpp"
#include "fs/ost.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace spider::core {

struct ChurnParams {
  /// DNE namespaces, each with its own OST fleet, log and Rng stream.
  std::size_t namespaces = 8;
  /// Physical records seeded per namespace before churn starts.
  std::size_t initial_files = 2048;
  /// Logical files each physical record stands for. The default puts the
  /// default shape at namespaces * initial_files * cohort > 1e9 logical
  /// entries — the scan-stops-working regime.
  std::uint64_t cohort = 65536;
  /// Ops each actor performs before going quiet (bounds the run).
  std::size_t ops_per_actor = 256;
  std::uint64_t seed = 2026;
};

/// Aggregated op counts (physical records, not cohort-scaled).
struct ChurnTotals {
  std::uint64_t creates = 0;
  std::uint64_t unlinks = 0;
  std::uint64_t touches = 0;
  std::uint64_t resizes = 0;
  std::uint64_t setprojects = 0;
  /// Mutations refused by the namespace (allocator full, dead id).
  std::uint64_t refused = 0;
};

class ChurnScenario {
 public:
  /// Mean gap between one actor's ops (jittered ±50%); the runner sizes
  /// its epochs from it.
  static constexpr sim::SimTime kThink = 5 * sim::kMillisecond;

  ChurnScenario(const ChurnParams& params, sim::Simulator& sim);

  /// Create the initial population (committed) — call before start().
  void seed_population();
  /// Schedule every actor's first op. Call once, before sim.run().
  void start();
  /// Commit every namespace's tail — the runner calls this after run() so
  /// consumers can drain the final partial batch.
  void commit_all();

  std::size_t namespace_count() const { return namespaces_.size(); }
  fs::FsNamespace& ns(std::size_t i) { return *namespaces_.at(i).ns; }
  const fs::FsNamespace& ns(std::size_t i) const {
    return *namespaces_.at(i).ns;
  }
  fs::OpLog& log(std::size_t i) { return namespaces_.at(i).log; }
  const fs::OpLog& log(std::size_t i) const { return namespaces_.at(i).log; }

  ChurnTotals totals() const;
  /// Live logical files across the federation: physical live * cohort.
  std::uint64_t logical_files() const;
  /// Live logical bytes across the federation.
  Bytes logical_bytes() const;

 private:
  /// One DNE namespace with its private OST fleet, log, and Rng stream.
  struct Namespace {
    std::vector<std::unique_ptr<block::Raid6Group>> groups;
    std::vector<std::unique_ptr<fs::Ost>> osts;
    std::unique_ptr<fs::FsNamespace> ns;
    fs::OpLog log;
    Rng rng;
    /// Live ids, swap-removed on unlink: O(1) random victim selection
    /// without ever walking the namespace.
    std::vector<fs::FileId> pool;
    ChurnTotals totals;
    std::size_t ops_since_commit = 0;
  };

  /// One think gap: kThink jittered ±50%.
  static sim::SimTime jittered(Rng& rng);
  void actor_step(std::size_t i, std::size_t remaining, sim::Site loc);
  void one_op(Namespace& space, sim::SimTime now);
  void maybe_commit(Namespace& space);

  ChurnParams params_;
  sim::Simulator& sim_;
  std::vector<Namespace> namespaces_;
};

}  // namespace spider::core
