// Discrete-event simulator driver.
#pragma once

#include <cstdint>
#include <limits>
#include <source_location>

#include "common/function_ref.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace spider::sim {

/// Called for every executed event, before its callback runs: (time, event
/// id, scheduling-site hash). Used by the deterministic-replay harness
/// (sim/replay.hpp); it sits on the hot dispatch path, so it is a
/// non-owning two-word FunctionRef — one indirect call per event instead of
/// std::function's double indirection. The referent (e.g. a ReplayRecorder)
/// must outlive the simulator's run.
using EventObserver = FunctionRef<void(SimTime, EventId, std::uint64_t)>;

/// Stable hash of a scheduling call site (file basename + line), folded into
/// the replay stream so a divergence names the code that scheduled the event.
/// Memoised per thread on the file_name() pointer and the line; the value
/// does not depend on the memo.
std::uint64_t site_hash(const std::source_location& loc);

/// The basename of a path, for checkout-independent diagnostics.
const char* source_basename(const char* path);

class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedule at an absolute time (must be >= now()).
  EventId schedule_at(SimTime when, EventFn fn,
                      std::source_location loc = std::source_location::current());
  /// Schedule `dt` after now (dt >= 0).
  EventId schedule_in(SimTime dt, EventFn fn,
                      std::source_location loc = std::source_location::current());
  /// Schedule with a precomputed scheduling-site hash (see site_hash). The
  /// sharded engine uses this when transferring a cross-shard mailbox
  /// message into the target queue, so the replay stream still names the
  /// original schedule_cross call site rather than the drain loop.
  EventId schedule_sited(SimTime when, EventFn fn, std::uint64_t site);
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue drains or `until` is reached, whichever is first.
  /// Events with time <= `until` execute (the horizon is inclusive).
  ///
  /// Clock semantics are uniform: with a finite `until`, now() lands exactly
  /// on `until` when the call returns — whether the run was cut off by the
  /// horizon, the queue drained mid-run, or the queue was empty to begin
  /// with. Barrier-synchronized callers (sim/sharded_sim.hpp) rely on this:
  /// an idle shard must still reach each epoch boundary. With the default
  /// infinite horizon the clock stops at the last executed event. Returns
  /// the number of events executed.
  std::uint64_t run(SimTime until = std::numeric_limits<SimTime>::max());

  /// Install (or clear, with nullptr) the per-event observer. Non-owning:
  /// the observed object must stay alive for every subsequent run().
  void set_observer(EventObserver obs) { observer_ = obs; }

  bool idle() const { return queue_.empty(); }
  /// Earliest pending event time, or SimTime's max when the queue is empty.
  /// The sharded engine's epoch scheduler uses this to skip dead time.
  SimTime next_event_time() const {
    return queue_.empty() ? std::numeric_limits<SimTime>::max()
                          : queue_.next_time();
  }
  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  void dispatch(EventQueue::Fired fired);

  EventQueue queue_;
  EventObserver observer_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace spider::sim
