#include "sim/simulator.hpp"

#include <array>
#include <cassert>
#include <cstddef>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"

namespace spider::sim {

const char* source_basename(const char* path) {
  const char* name = path;
  for (const char* p = path; *p; ++p) {
    if (*p == '/' || *p == '\\') name = p + 1;
  }
  return name;
}

namespace {

std::uint64_t hash_site(const char* file, std::uint_least32_t line) {
  // FNV-1a over the file basename, then fold in the line. Hashing contents
  // (not the pointer) makes the value reproducible across runs and builds;
  // dropping the directory prefix makes it reproducible across *checkouts*,
  // so replay hashes can be compared between machines and CI.
  const char* name = source_basename(file);
  std::uint64_t h = kFnvOffsetBasis;
  for (const char* p = name; *p; ++p) {
    h = fnv1a_step(h, static_cast<unsigned char>(*p));
  }
  return fnv1a_step(h, line);
}

}  // namespace

std::uint64_t site_hash(const std::source_location& loc) {
  // Every schedule call hashes its site, and re-walking the path was a
  // quarter of a serial run's self time. file_name() points at a string
  // literal, so (pointer, line) names a site for the whole process: memoise
  // the hash per thread in a direct-mapped table. A miss (first use, or a
  // slot taken by another site) recomputes the same value, so the table
  // changes no hash, and being per thread it needs no lock.
  struct Memo {
    const char* file = nullptr;
    std::uint_least32_t line = 0;
    std::uint64_t hash = 0;
  };
  constexpr int kSlotBits = 6;
  thread_local std::array<Memo, std::size_t{1} << kSlotBits> memo{};
  const char* file = loc.file_name();
  const std::uint_least32_t line = loc.line();
  const std::uint64_t key =
      (reinterpret_cast<std::uintptr_t>(file) ^ line) * 0x9e3779b97f4a7c15ull;
  Memo& m = memo[key >> (64 - kSlotBits)];
  if (m.file != file || m.line != line) {
    m = Memo{file, line, hash_site(file, line)};
  }
  return m.hash;
}

EventId Simulator::schedule_at(SimTime when, EventFn fn, std::source_location loc) {
  if (when < now_) {
    // A past-time schedule is a causality violation; in a sharded run it
    // usually means a cross-shard message beat the lookahead contract. Name
    // everything a debugger needs: both times, the gap, and the call site.
    std::ostringstream msg;
    msg << "schedule_at: time in the past (when=" << when << "ns, now=" << now_
        << "ns, behind by " << (now_ - when) << "ns; scheduled from "
        << source_basename(loc.file_name()) << ":" << loc.line() << ")";
    throw std::invalid_argument(msg.str());
  }
  return queue_.schedule(when, std::move(fn), site_hash(loc));
}

EventId Simulator::schedule_in(SimTime dt, EventFn fn, std::source_location loc) {
  if (dt < 0) {
    std::ostringstream msg;
    msg << "schedule_in: negative delay (dt=" << dt << "ns, now=" << now_
        << "ns; scheduled from " << source_basename(loc.file_name()) << ":"
        << loc.line() << ")";
    throw std::invalid_argument(msg.str());
  }
  return queue_.schedule(now_ + dt, std::move(fn), site_hash(loc));
}

EventId Simulator::schedule_sited(SimTime when, EventFn fn, std::uint64_t site) {
  if (when < now_) {
    std::ostringstream msg;
    msg << "schedule_sited: time in the past (when=" << when
        << "ns, now=" << now_ << "ns, site=0x" << std::hex << site << ")";
    throw std::invalid_argument(msg.str());
  }
  return queue_.schedule(when, std::move(fn), site);
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
