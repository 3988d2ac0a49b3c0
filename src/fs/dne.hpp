// DNE: the Lustre 2.4 Distributed Namespace model (Section IV-C).
//
// "The authors acknowledge that the Lustre 2.4 version introduced the
// Distributed Namespace (DNE) feature. Currently, some legacy Lustre
// clients block implementation of this feature at OLCF. We recommend using
// both DNE and multiple namespaces, concurrently."
//
// DNE phase 1 assigns whole directories to metadata targets (MDTs), so
// independent directories scale metadata nearly linearly — but a single
// hot directory still lands on one MDT, and cross-MDT operations (renames
// between shards, remote creates) pay extra RPCs. Those two properties are
// exactly why the paper recommends DNE *and* multiple namespaces rather
// than DNE alone; the model reproduces both.
#pragma once

#include <cstdint>
#include <vector>

#include "fs/mds.hpp"

namespace spider::fs {

struct DneParams {
  std::size_t mdts = 4;
  /// Weighted ops/sec of one MDT.
  double mdt_ops_per_sec = 20e3;
  /// Cost multiplier for an op whose directory lives on a remote MDT
  /// relative to the client's transaction (extra RPC leg).
  double remote_penalty = 1.25;
  /// Cost multiplier for cross-MDT ops (rename/link across shards: a
  /// distributed transaction).
  double cross_mdt_penalty = 2.0;
};

class DneNamespace {
 public:
  explicit DneNamespace(const DneParams& params = {});

  const DneParams& params() const { return params_; }
  std::size_t mdts() const { return params_.mdts; }

  /// MDT owning a directory (DNE phase 1: hash placement at mkdir time).
  std::size_t mdt_of_dir(std::uint64_t dir_id) const;

  /// Account one op in `dir`. `linked_dir` marks a cross-directory op
  /// (rename/link); when it maps to a different MDT the distributed-
  /// transaction penalty applies.
  struct OpOutcome {
    std::size_t mdt = 0;
    double cost = 0.0;
    bool cross_mdt = false;
  };
  OpOutcome account(std::uint64_t dir_id, MetaOp op,
                    std::uint64_t linked_dir = UINT64_MAX);

  /// Accumulated weighted load per MDT.
  const std::vector<double>& load() const { return load_; }
  /// Load of one MDT, bounds-checked — the stable per-shard walk spiderfsck
  /// uses (index order is MDT id order, deterministic at any scan fan-out).
  double load_of(std::size_t mdt) const;
  /// Overwrite one MDT's accounted load (spiderfsck drift repair, and the
  /// seeded corruptions its tests inject).
  void fsck_set_load(std::size_t mdt, double load);
  /// max/mean - 1 over MDT loads.
  double imbalance() const;
  void reset();

  /// Aggregate weighted capacity.
  double capacity_ops() const;

  /// Achievable throughput for an offered load distribution: the busiest
  /// MDT saturates first (throughput = offered scaled until the hottest
  /// shard hits its rate). `offered_per_dir[i]` is weighted ops/sec
  /// directed at directory i (hashed to its MDT).
  double max_throughput(const std::vector<double>& offered_per_dir) const;

 private:
  DneParams params_;
  MdsParams op_costs_;  ///< reuse the per-op cost table
  std::vector<double> load_;
};

}  // namespace spider::fs
