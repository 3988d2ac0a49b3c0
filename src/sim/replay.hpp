// Deterministic-replay harness.
//
// The paper's operational lesson (Lesson 14 and the release-testing
// practice) is that a storage system is only trustworthy when its behavior
// is *checkable*: two runs of the same scenario must be provably identical
// before perf work stacks parallelism and caching on top. ReplayRecorder
// makes that property testable: attached to a Simulator it folds every
// executed event's (time, event-id, scheduling-site) triple into a running
// FNV-1a hash and keeps the raw stream, so
//
//   * two same-seed runs can be asserted bit-identical by comparing one
//     64-bit hash, and
//   * when they are NOT identical, first_divergence() names the exact event
//     index — and its time/id/site — where the runs forked, which localizes
//     the nondeterminism to a single scheduling call site.
//
// ResourceStats telemetry from a FlowNetwork can be folded in as a separate
// hash (bit-exact over the raw double representations), so rate-solver or
// telemetry nondeterminism is caught even when the event stream matches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "sim/time.hpp"

namespace spider::sim {

class Simulator;
class FlowNetwork;
using EventId = std::uint64_t;

class ReplayRecorder {
 public:
  /// One executed event as seen by the recorder.
  struct Record {
    SimTime when = 0;
    EventId id = 0;
    std::uint64_t site = 0;

    bool operator==(const Record&) const = default;
  };

  /// Install this recorder as `sim`'s observer. Replaces any previous
  /// observer; the recorder must outlive the simulator's run (the observer
  /// is a non-owning FunctionRef bound to this object).
  void attach(Simulator& sim);

  /// Fold one executed event into the stream (attach() wires this up).
  void on_event(SimTime when, EventId id, std::uint64_t site);

  /// Observer call operator so a FunctionRef can bind the recorder directly.
  void operator()(SimTime when, EventId id, std::uint64_t site) {
    on_event(when, id, site);
  }

  /// Fold a FlowNetwork's per-resource telemetry (served, busy_integral,
  /// current_load, flows_seen) into the stats hash. Call after the run, or
  /// at checkpoints — both runs must call it at the same points.
  void record_resource_stats(const FlowNetwork& net);

  /// Running hash of the executed-event stream.
  std::uint64_t event_hash() const { return event_hash_; }
  /// Running hash of recorded ResourceStats snapshots.
  std::uint64_t stats_hash() const { return stats_hash_; }
  /// Single value combining both streams; equal iff both match.
  std::uint64_t combined_hash() const;

  std::size_t events_recorded() const { return records_.size(); }
  const std::vector<Record>& records() const { return records_; }

  /// Index of the first event where two recordings disagree (differing
  /// record, or one stream ending early). Returns npos when the event
  /// streams are identical.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static std::size_t first_divergence(const ReplayRecorder& a,
                                      const ReplayRecorder& b);

  /// Human-readable description of the divergence between two recordings
  /// ("identical" when there is none) for test failure messages.
  static std::string divergence_report(const ReplayRecorder& a,
                                       const ReplayRecorder& b);

 private:
  std::vector<Record> records_;
  std::uint64_t event_hash_ = kFnvOffsetBasis;
  std::uint64_t stats_hash_ = kFnvOffsetBasis;
};

}  // namespace spider::sim
