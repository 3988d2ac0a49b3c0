#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace spider::sim {

namespace {
// Below this heap size compaction is pointless; the lazy pop path handles
// small queues fine and the threshold keeps compact() out of microbenchmarks.
constexpr std::size_t kCompactMinHeap = 64;
// Only return heap storage to the allocator when capacity exceeds live size
// by this factor. Shrinking on every compaction caused realloc churn when
// cancel-heavy flow rescheduling oscillated around the compaction threshold:
// each compact gave the pages back only for the next burst to buy them
// again. With the factor, steady-state churn reuses one stable allocation
// and memory is still bounded at a small multiple of the live set.
constexpr std::size_t kShrinkFactor = 8;
}  // namespace

EventHandle EventQueue::schedule(SimTime when, EventFn fn, std::uint64_t site) {
  const EventId id = next_id_++;

  // Grab a slab slot from the free list (or grow the slab — amortized, and
  // only until the slab matches the high-water mark of live events).
  std::uint32_t s;
  if (free_head_ != kNullSlot) {
    s = free_head_;
    free_head_ = slots_[s].next_free;
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[s];
  slot.fn = std::move(fn);
  slot.id = id;
  slot.site = site;

  heap_.push_back(Entry{when, id, s});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_;
  return EventHandle{id, s};
}

void EventQueue::release_slot(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.fn.reset();  // release captured state eagerly
  slot.id = 0;
  slot.site = 0;
  slot.next_free = free_head_;
  free_head_ = s;
}

bool EventQueue::cancel(EventHandle event) {
  if (event.slot >= slots_.size() || slots_[event.slot].id != event.id) {
    return false;
  }
  release_slot(event.slot);
  --live_;
  // Cancelling the front entry (e.g. an event due now) must not leave a
  // stale head: next_time()/pop() assume the front is live after their own
  // sweep, and an eager drop keeps that sweep O(1) amortized.
  drop_cancelled();
  // Deeper stale entries stay behind; once they dominate, sweep them all so
  // memory stays proportional to live events.
  if (heap_.size() >= kCompactMinHeap && heap_.size() > 2 * live_) compact();
  return true;
}

void EventQueue::compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) {
                               return !entry_live(e);
                             }),
              heap_.end());
  if (heap_.capacity() >
      kShrinkFactor * std::max(heap_.size(), kCompactMinHeap)) {
    heap_.shrink_to_fit();
  }
  std::make_heap(heap_.begin(), heap_.end(), later);
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() const {
  drop_cancelled();
  assert(!heap_.empty());
  return heap_.front().when;
}

EventQueue::Fired EventQueue::pop() {
  drop_cancelled();
  assert(!heap_.empty());
  const Entry e = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
  Slot& slot = slots_[e.slot];
  assert(slot.id == e.id);
  Fired fired{e.when, e.id, slot.site, std::move(slot.fn)};
  release_slot(e.slot);
  --live_;
  return fired;
}

}  // namespace spider::sim
