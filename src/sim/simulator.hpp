// Discrete-event simulator driver.
#pragma once

#include <cstdint>
#include <limits>
#include <source_location>

#include "common/function_ref.hpp"
#include "common/hash.hpp"
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

/// The basename of a path, for checkout-independent diagnostics.
constexpr const char* source_basename(const char* path) {
  const char* name = path;
  for (const char* p = path; *p; ++p) {
    if (*p == '/' || *p == '\\') name = p + 1;
  }
  return name;
}

/// A scheduling call site: file basename, line, and their stable hash, which
/// the replay stream folds in so a divergence names the code that scheduled
/// the event. Built only at compile time: a defaulted `Site site = {}`
/// parameter captures the caller's line, and the compiler hashes it.
struct Site {
  /// FNV-1a over the basename's bytes, then one step folding in the line.
  /// Hashing contents (not the pointer) and dropping the directory make the
  /// value reproducible across runs, builds and checkouts.
  std::uint64_t hash;
  const char* file;  ///< basename
  std::uint_least32_t line;

  consteval Site(std::source_location loc = std::source_location::current())
      : hash(fnv1a_step(fnv1a_bytes(kFnvOffsetBasis,
                                    source_basename(loc.file_name())),
                        loc.line())),
        file(source_basename(loc.file_name())),
        line(loc.line()) {}
};
// Three event lambdas carry a Site plus three words and must stay within
// Task's 48-byte inline buffer.
static_assert(sizeof(Site) == 24);

class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedule at an absolute time (must be >= now()).
  EventHandle schedule_at(SimTime when, EventFn fn, Site site = {});
  /// Schedule `dt` after now (0 <= dt <= SimTime's max - now()).
  EventHandle schedule_in(SimTime dt, EventFn fn, Site site = {});
  /// Cancel a pending event; a no-op (false) once it has fired or been
  /// cancelled.
  bool cancel(EventHandle event) { return queue_.cancel(event); }

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
