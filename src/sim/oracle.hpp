// Invariant oracles: continuous safety checks over a running simulation.
//
// Fault campaigns (sim/faultplan.hpp) are only useful if something *checks*
// the system while it is being broken. An Oracle states one conservation or
// safety property ("flow throughput never exceeds capacity", "purge never
// deletes a file younger than the policy window"); an OracleSuite registers
// a set of oracles on a Simulator and sweeps them on a fixed cadence — plus
// on demand at injection edges — collecting every violation with the
// simulated time it was observed at. Oracle sweeps are ordinary scheduled
// events, so they sit inside the deterministic-replay stream: a violation
// report is reproducible from the (plan, seed) pair that produced it.
//
// Subsystem-specific oracles (RAID read safety, rebuild monotonicity,
// namespace/journal agreement, purge age) are built by the campaign layer
// (tools/faultcli/campaign.hpp) out of make_oracle(); the flow-network
// conservation oracle lives here because FlowNetwork is a sim-layer type.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace spider::sim {

class FlowNetwork;

/// One observed invariant breach.
struct OracleViolation {
  std::string oracle;  ///< name of the oracle that fired
  SimTime at = 0;      ///< simulated time of the failing sweep
  std::string detail;  ///< human-readable description of the breach
};

/// One invariant. check() appends a violation per breach observed since the
/// previous sweep; stateful oracles (monotonicity, deltas) keep their own
/// last-seen snapshots.
class Oracle {
 public:
  virtual ~Oracle() = default;
  virtual std::string_view name() const = 0;
  virtual void check(SimTime now, std::vector<OracleViolation>& out) = 0;
};

using OracleCheckFn = std::function<void(SimTime, std::vector<OracleViolation>&)>;

/// Wrap a named lambda as an oracle.
std::unique_ptr<Oracle> make_oracle(std::string name, OracleCheckFn check);

/// A set of oracles swept together over one simulation.
class OracleSuite {
 public:
  explicit OracleSuite(Simulator& sim) : sim_(sim) {}

  Oracle& add(std::unique_ptr<Oracle> oracle);
  std::size_t oracles() const { return oracles_.size(); }

  /// Sweep every oracle now (campaign engines call this at injection edges
  /// so capacity changes line up with check windows).
  void check_now();

  /// Sweep every oracle now but return the findings instead of folding them
  /// into the suite's violation log — the post-repair re-verification path
  /// (tools/spiderfsck): the in-run verdict stays what the run observed,
  /// while the caller learns whether the repaired state is invariant-clean.
  /// Stateful oracles advance their cursors exactly as in check_now(), so
  /// the suite remains re-runnable afterwards.
  std::vector<OracleViolation> recheck_now();

  /// Schedule periodic sweeps every `interval` until `until` (inclusive of
  /// a final sweep at the horizon). Uses ordinary simulator events, so the
  /// sweep cadence is part of the replay stream; the caller's location is
  /// threaded through every repeating tick so each sweep chain keeps a
  /// distinct replay site (spiderlint L7).
  void schedule_checks(SimTime interval, SimTime until, Site loc = {});

  bool clean() const { return violations_.empty(); }
  const std::vector<OracleViolation>& violations() const { return violations_; }
  /// Distinct names of oracles that fired, in first-fired order.
  std::vector<std::string> fired_oracles() const;

 private:
  void tick(SimTime interval, SimTime until, Site loc);

  Simulator& sim_;
  std::vector<std::unique_ptr<Oracle>> oracles_;
  std::vector<OracleViolation> violations_;
};

/// Render violations as a JSON array (stable field order; empty -> "[]").
std::string violations_json(const std::vector<OracleViolation>& violations);

/// Flow-network conservation oracle:
///   - per-resource utilization stays within [0, 1] and finite;
///   - per-resource served work is monotone and never exceeds the cumulative
///     capacity budget ∫capacity·dt accrued across sweeps (cumulative, not
///     per-window, because FlowNetwork integrates progress lazily);
///   - total delivered volume is monotone;
///   - aggregate flow rate never exceeds the sum of resource capacities.
/// Capacity changes between sweeps are only sound if sweeps align with the
/// change (the campaign engine calls check_now() at injection edges).
std::unique_ptr<Oracle> make_flow_conservation_oracle(const FlowNetwork& net);

}  // namespace spider::sim
