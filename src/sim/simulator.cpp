#include "sim/simulator.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace spider::sim {

EventHandle Simulator::schedule_at(SimTime when, EventFn fn, Site site) {
  if (when < now_) {
    // A past-time schedule is a causality violation; in a sharded run it
    // usually means a cross-shard message beat the lookahead contract. Name
    // everything a debugger needs: both times, the gap, and the call site.
    std::ostringstream msg;
    msg << "schedule_at: time in the past (when=" << when << "ns, now=" << now_
        << "ns, behind by " << (now_ - when) << "ns; scheduled from "
        << site.file << ":" << site.line << ")";
    throw std::invalid_argument(msg.str());
  }
  return queue_.schedule(when, std::move(fn), site.hash);
}

EventHandle Simulator::schedule_in(SimTime dt, EventFn fn, Site site) {
  // A delay past SimTime's end would overflow now_ + dt into the past.
  if (dt < 0 || dt > std::numeric_limits<SimTime>::max() - now_) {
    std::ostringstream msg;
    msg << "schedule_in: "
        << (dt < 0 ? "negative delay" : "delay past SimTime's end")
        << " (dt=" << dt << "ns, now=" << now_ << "ns; scheduled from "
        << site.file << ":" << site.line << ")";
    throw std::invalid_argument(msg.str());
  }
  return queue_.schedule(now_ + dt, std::move(fn), site.hash);
}

void Simulator::dispatch(EventQueue::Fired fired) {
  assert(fired.when >= now_);
  now_ = fired.when;
  if (observer_) observer_(fired.when, fired.id, fired.site);
  fired.fn();
  ++executed_;
}

std::uint64_t Simulator::run(SimTime until) {
  std::uint64_t ran = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    dispatch(queue_.pop());
    ++ran;
  }
  // Uniform clock-advance: a finite horizon always lands the clock exactly
  // on `until`, whether the run was cut off or the queue drained. The old
  // drained-queue early return skipped the advance, so an idle simulator
  // never reached a barrier time — fatal for epoch-synchronized sharding
  // (sim/sharded_sim.hpp), where every shard must arrive at the same epoch
  // boundary before cross-shard mailboxes drain.
  if (until != std::numeric_limits<SimTime>::max() && now_ < until) now_ = until;
  return ran;
}

}  // namespace spider::sim
