// Cancellable discrete-event queue, allocation-free on the hot path.
//
// A binary heap keyed on (time, id) gives deterministic FIFO ordering for
// simultaneous events. Callbacks live in a slot slab — a vector of fixed
// slots recycled through an intrusive free list — instead of the old
// unordered_map<EventId, Pending>, so schedule/cancel/pop never hash and
// (for captures within sim::Task's 48-byte inline buffer) never touch the
// heap allocator. Staleness is generation-checked: every heap entry carries
// its slot index, and the slot remembers which EventId currently owns it, so
// a recycled slot can never satisfy a stale entry.
//
// schedule() returns an EventHandle, the (id, slot) pair, and cancel() takes
// it back: the same generation check makes a handle to a fired or cancelled
// event a no-op, with no id -> slot lookup. Cancellation stays lazy for the
// heap entry but eager for the callback: cancel() destroys the stored Task
// immediately (captured state is released right away) and stale heap
// entries are skipped at pop time; when stale entries outnumber live ones
// the heap is compacted in place, bounding memory under cancel-heavy flow
// rescheduling.
//
// Each event additionally carries a `site` hash identifying the scheduling
// call site; the replay harness (sim/replay.hpp) folds it into the event
// stream hash so divergent runs are localized to the first mismatching
// (time, id, site) triple. EventIds are issued 1, 2, 3, ... exactly as
// before the slab rewrite — replay stream hashes over (time, id, site) are
// byte-identical across the two engines (pinned by the golden traces).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"

namespace spider::sim {

using EventId = std::uint64_t;
using EventFn = Task;

/// A scheduled event, as schedule() returns it and cancel() takes it: the
/// event's id and the slab slot holding it. The default handle names no
/// slot, so cancelling it is a no-op.
struct EventHandle {
  EventId id = 0;
  std::uint32_t slot = 0xffffffffu;
};

class EventQueue {
 public:
  /// An event popped for execution.
  struct Fired {
    SimTime when = 0;
    EventId id = 0;
    std::uint64_t site = 0;  ///< hash of the scheduling call site
    EventFn fn;
  };

  /// Schedule fn at absolute time `when`. Returns a handle for cancel().
  /// `site` is an opaque call-site hash recorded for replay (0 if untracked).
  EventHandle schedule(SimTime when, EventFn fn, std::uint64_t site = 0);

  /// Cancel a pending event. The callback is destroyed immediately; the heap
  /// entry is dropped lazily (or at the next compaction). Cancelling an
  /// already-fired or already-cancelled event is a harmless no-op (returns
  /// false), even after its slot has been reused.
  bool cancel(EventHandle event);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  /// Heap entries currently held, including cancelled-but-not-yet-dropped
  /// ones. Exposed so tests can bound memory under cancel-heavy load.
  std::size_t heap_size() const { return heap_.size(); }
  /// Heap storage currently reserved. Exposed so tests can pin the
  /// compaction policy: oscillating cancel churn must not realloc-thrash.
  std::size_t heap_capacity() const { return heap_.capacity(); }

  /// Earliest pending event time; only valid when !empty().
  SimTime next_time() const;

  /// Pop the earliest event. Only valid when !empty().
  Fired pop();

 private:
  static constexpr std::uint32_t kNullSlot = 0xffffffffu;

  struct Entry {
    SimTime when;
    EventId id;
    std::uint32_t slot;  ///< slab index; validated against Slot::id at pop
  };

  /// One slab cell. `id` is the generation check: 0 when free, otherwise the
  /// event currently occupying the slot — a stale heap entry whose id no
  /// longer matches is skipped without ever touching the callback.
  struct Slot {
    EventFn fn;
    EventId id = 0;
    std::uint64_t site = 0;
    std::uint32_t next_free = kNullSlot;
  };

  static bool later(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.id > b.id;
  }

  bool entry_live(const Entry& e) const {
    return slots_[e.slot].id == e.id;
  }

  /// Return the slot for a finished/cancelled event to the free list.
  void release_slot(std::uint32_t s);

  void drop_cancelled() const;
  /// Drop every stale heap entry and re-heapify. Called when stale entries
  /// outnumber live ones, so total work stays amortized O(log n) per event.
  void compact();

  mutable std::vector<Entry> heap_;  // min-heap via `later` comparator
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNullSlot;
  EventId next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace spider::sim
