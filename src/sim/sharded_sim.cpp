#include "sim/sharded_sim.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "common/parallel.hpp"

namespace spider::sim {

namespace {

constexpr SimTime kInfiniteHorizon = std::numeric_limits<SimTime>::max();

}  // namespace

// --- ShardMap ---------------------------------------------------------------

ShardMap::ShardMap(std::size_t domains, std::size_t shards) : shards_(shards) {
  if (domains == 0) throw std::invalid_argument("ShardMap: domains must be >= 1");
  if (shards == 0) throw std::invalid_argument("ShardMap: shards must be >= 1");
  assign_.resize(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    assign_[d] = static_cast<ShardId>(d % shards);
  }
}

ShardId ShardMap::shard_of(std::size_t domain) const {
  if (domain >= assign_.size()) {
    throw std::out_of_range("ShardMap::shard_of: unknown domain");
  }
  return assign_[domain];
}

void ShardMap::reassign(std::size_t domain, ShardId shard) {
  if (domain >= assign_.size()) {
    throw std::out_of_range("ShardMap::reassign: unknown domain");
  }
  if (shard >= shards_) {
    throw std::out_of_range("ShardMap::reassign: shard out of range");
  }
  assign_[domain] = shard;
}

// --- ShardedSimulator -------------------------------------------------------

ShardedSimulator::ShardedSimulator(std::size_t shards, ShardedConfig cfg)
    : cfg_(cfg) {
  if (shards == 0) {
    throw std::invalid_argument("ShardedSimulator: shards must be >= 1");
  }
  if (cfg_.lookahead <= 0) {
    throw std::invalid_argument("ShardedSimulator: lookahead must be positive");
  }
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  outbox_.resize(shards * shards);
}

Simulator& ShardedSimulator::shard(ShardId s) {
  if (s >= shards_.size()) {
    throw std::out_of_range("ShardedSimulator::shard: index out of range");
  }
  return *shards_[s];
}

const Simulator& ShardedSimulator::shard(ShardId s) const {
  if (s >= shards_.size()) {
    throw std::out_of_range("ShardedSimulator::shard: index out of range");
  }
  return *shards_[s];
}

void ShardedSimulator::schedule_cross(ShardId from, ShardId to, SimTime when,
                                      EventFn fn, std::source_location loc) {
  const std::size_t s = shards_.size();
  if (from >= s || to >= s) {
    throw std::out_of_range("schedule_cross: shard index out of range");
  }
  if (when < epoch_end_) {
    // The sharded form of schedule_at's past-time diagnostic: a message due
    // before the barrier could land behind another shard's clock, which is
    // exactly the causality violation the lookahead contract rules out.
    std::ostringstream msg;
    msg << "schedule_cross: lookahead contract breach from shard " << from
        << " to shard " << to << " (when=" << when
        << "ns, current epoch ends at " << epoch_end_
        << "ns, lookahead=" << cfg_.lookahead << "ns; scheduled from "
        << source_basename(loc.file_name()) << ":" << loc.line() << ")";
    throw std::logic_error(msg.str());
  }
  // Only the lane currently executing shard `from` (or the caller outside a
  // run) touches this cell, so the mailbox write needs no lock.
  outbox_[from * s + to].push_back(CrossMsg{when, std::move(fn), site_hash(loc)});
  cross_messages_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedSimulator::drain_mailboxes() {
  const std::size_t s = shards_.size();
  // Canonical (destination, source shard, FIFO) order: target-local
  // EventIds depend only on this order, never on which lane finished first.
  for (std::size_t to = 0; to < s; ++to) {
    for (std::size_t from = 0; from < s; ++from) {
      std::vector<CrossMsg>& box = outbox_[from * s + to];
      for (CrossMsg& msg : box) {
        shards_[to]->schedule_sited(msg.when, std::move(msg.fn), msg.site);
      }
      box.clear();
    }
  }
}

std::uint64_t ShardedSimulator::run_epoch(SimTime h) {
  const std::size_t s = shards_.size();
  ThreadPool& pool = shared_pool();
  std::size_t lanes = cfg_.workers == 0 ? pool.size() + 1 : cfg_.workers;
  lanes = std::min({lanes, s, pool.size() + 1});
  // Serial path: explicit request, nothing to parallelize, or a nested call
  // from a pool worker (blocking on pinned lanes from inside the pool could
  // starve — run inline, which is deterministic anyway).
  if (lanes <= 1 || pool.on_worker_thread()) {
    std::uint64_t ran = 0;
    for (const auto& sh : shards_) ran += sh->run(h);
    return ran;
  }

  std::vector<std::uint64_t> lane_ran(lanes, 0);
  auto run_lane = [&](std::size_t lane) {
    std::uint64_t ran = 0;
    for (std::size_t i = lane; i < s; i += lanes) ran += shards_[i]->run(h);
    lane_ran[lane] = ran;
  };

  // Per-epoch barrier over just these lanes. wait_idle() would also wait on
  // unrelated shared-pool work; a private latch does not.
  std::mutex mu;
  std::condition_variable done;
  std::size_t left = lanes - 1;
  std::exception_ptr first_error;
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    // Pin lane -> worker so the same shards hit the same OS thread (and its
    // warm cache) on every epoch of the run.
    pool.submit_to((lane - 1) % pool.size(), [&, lane] {
      std::exception_ptr err;
      try {
        run_lane(lane);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard lock(mu);
      if (err && !first_error) first_error = err;
      if (--left == 0) done.notify_all();
    });
  }

  std::exception_ptr caller_error;
  try {
    run_lane(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  {
    std::unique_lock lock(mu);
    done.wait(lock, [&] { return left == 0; });
    if (!caller_error && first_error) caller_error = first_error;
  }
  if (caller_error) std::rethrow_exception(caller_error);

  std::uint64_t ran = 0;
  for (const std::uint64_t r : lane_ran) ran += r;
  return ran;
}

std::uint64_t ShardedSimulator::run(SimTime until) {
  std::uint64_t ran = 0;
  for (;;) {
    // Land messages queued before this round (setup code or the previous
    // epoch) so they count toward the next-event scan.
    drain_mailboxes();
    SimTime next = kInfiniteHorizon;
    for (const auto& sh : shards_) next = std::min(next, sh->next_event_time());
    if (next == kInfiniteHorizon || next > until) break;
    // Conservative epoch [next, next + lookahead): every event inside is
    // causally closed — a cross message sent from within cannot be due
    // before the window ends. Starting at `next` skips dead time.
    const SimTime epoch_end =
        next > kInfiniteHorizon - cfg_.lookahead ? kInfiniteHorizon
                                                 : next + cfg_.lookahead;
    const SimTime horizon = std::min(epoch_end - 1, until);
    epoch_end_ = horizon + 1;
    ran += run_epoch(horizon);
    ++epochs_;
  }
  // Uniform horizon semantics, mirroring Simulator::run: a finite `until`
  // lands every shard clock exactly on it, idle shards included.
  if (until != kInfiniteHorizon) {
    for (const auto& sh : shards_) sh->run(until);
  }
  return ran;
}

std::uint64_t ShardedSimulator::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->executed_events();
  return total;
}

bool ShardedSimulator::idle() const {
  for (const auto& sh : shards_) {
    if (!sh->idle()) return false;
  }
  for (const auto& box : outbox_) {
    if (!box.empty()) return false;
  }
  return true;
}

// --- ShardedReplay ----------------------------------------------------------

ShardedReplay::ShardedReplay(ShardedSimulator& engine) {
  recorders_.reserve(engine.shards());
  for (std::size_t s = 0; s < engine.shards(); ++s) {
    recorders_.push_back(std::make_unique<ReplayRecorder>());
    recorders_.back()->attach(engine.shard(static_cast<ShardId>(s)));
  }
}

std::vector<ShardedReplay::Record> ShardedReplay::merged() const {
  std::vector<Record> out;
  out.reserve(events_recorded());
  for (std::size_t s = 0; s < recorders_.size(); ++s) {
    for (const ReplayRecorder::Record& r : recorders_[s]->records()) {
      out.push_back(Record{r.when, static_cast<ShardId>(s), r.id, r.site});
    }
  }
  // Each shard's slice is already (when, id)-sorted — serial dispatch order
  // — so this sort is a k-way merge into the canonical (when, shard, id)
  // order. stable_sort is not needed: the key is unique per record.
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.id < b.id;
  });
  return out;
}

std::uint64_t ShardedReplay::merged_hash() const {
  std::uint64_t h = kFnvOffsetBasis;
  for (const Record& r : merged()) {
    h = fnv1a(h, static_cast<std::uint64_t>(r.when));
    h = fnv1a(h, r.shard);
    h = fnv1a(h, r.id);
    h = fnv1a(h, r.site);
  }
  return h;
}

std::uint64_t ShardedReplay::stream_hash() const {
  std::uint64_t h = kFnvOffsetBasis;
  for (const Record& r : merged()) {
    h = fnv1a(h, static_cast<std::uint64_t>(r.when));
    h = fnv1a(h, r.shard);
    h = fnv1a(h, r.id);
  }
  return h;
}

std::uint64_t ShardedReplay::serial_equivalent_hash() const {
  ReplayRecorder serial_form;
  for (const Record& r : merged()) serial_form.on_event(r.when, r.id, r.site);
  return serial_form.event_hash();
}

std::size_t ShardedReplay::events_recorded() const {
  std::size_t n = 0;
  for (const auto& r : recorders_) n += r->events_recorded();
  return n;
}

}  // namespace spider::sim
