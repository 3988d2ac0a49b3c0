#include "sim/sharded_sim.hpp"

#include <algorithm>
#include <barrier>
#include <cstddef>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/hash.hpp"

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
  shards_ = std::vector<Shard>(shards);
  for (Shard& sh : shards_) {
    for (Outbox& out : sh.out) out.rows.resize(shards);
  }
}

Simulator& ShardedSimulator::shard(ShardId s) {
  if (s >= shards_.size()) {
    throw std::out_of_range("ShardedSimulator::shard: index out of range");
  }
  return shards_[s].sim;
}

const Simulator& ShardedSimulator::shard(ShardId s) const {
  if (s >= shards_.size()) {
    throw std::out_of_range("ShardedSimulator::shard: index out of range");
  }
  return shards_[s].sim;
}

void ShardedSimulator::schedule_cross(ShardId from, ShardId to, SimTime when,
                                      EventFn fn, Site site) {
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
        << site.file << ":" << site.line << ")";
    throw std::logic_error(msg.str());
  }
  // Only the lane currently executing shard `from` (or the caller outside a
  // run) touches the sender's holder, so the mailbox write needs no lock.
  Shard& sender = shards_[from];
  Outbox& out = sender.out[write_parity_];
  out.rows[to].push_back(CrossMsg{when, std::move(fn), site});
  out.earliest = std::min(out.earliest, when);
  ++sender.sent;
}

void ShardedSimulator::deliver(std::size_t to, unsigned parity) {
  // Canonical (source shard, FIFO) order: target-local EventIds depend only
  // on this order, never on which lane finished first.
  Simulator& target = shards_[to].sim;
  for (Shard& from : shards_) {
    for (CrossMsg& msg : from.out[parity].rows[to]) {
      target.schedule_at(msg.when, std::move(msg.fn), msg.site);
    }
  }
}

void ShardedSimulator::run_shard(std::size_t s) noexcept {
  Shard& sh = shards_[s];
  try {
    // The write parity's rows were drained by their targets at the top of
    // the previous epoch; the sender empties them before reuse, so only
    // this lane ever writes the row headers.
    sh.out[write_parity_].clear();
    deliver(s, write_parity_ ^ 1u);
    sh.sim.run(horizon_);
  } catch (...) {
    sh.error = std::current_exception();
  }
}

bool ShardedSimulator::plan_epoch() {
  SimTime next = kInfiniteHorizon;
  for (const Shard& sh : shards_) {
    next = std::min({next, sh.sim.next_event_time(),
                     sh.out[write_parity_].earliest});
  }
  if (next == kInfiniteHorizon || next > until_) return false;
  // Conservative epoch [next, next + lookahead): every event inside is
  // causally closed — a cross message sent from within cannot be due
  // before the window ends. Starting at `next` skips dead time.
  const SimTime epoch_end =
      next > kInfiniteHorizon - cfg_.lookahead ? kInfiniteHorizon
                                               : next + cfg_.lookahead;
  horizon_ = std::min(epoch_end - 1, until_);
  epoch_end_ = horizon_ + 1;
  write_parity_ ^= 1u;
  return true;
}

void ShardedSimulator::close_epoch() noexcept {
  for (const Shard& sh : shards_) {
    if (sh.error) {
      done_ = true;
      return;
    }
  }
  ++epochs_;
  done_ = !plan_epoch();
}

void ShardedSimulator::deliver_pending() {
  for (std::size_t to = 0; to < shards_.size(); ++to) {
    try {
      deliver(to, write_parity_);
    } catch (...) {
      if (!shards_[to].error) shards_[to].error = std::current_exception();
    }
  }
  for (Shard& sh : shards_) {
    for (Outbox& out : sh.out) out.clear();
  }
}

void ShardedSimulator::run_team() noexcept {
  const std::size_t width = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t wanted = cfg_.workers == 0 ? width : cfg_.workers;
  const std::size_t lanes = std::min({wanted, shards_.size(), width});
  std::barrier sync(static_cast<std::ptrdiff_t>(lanes),
                    [this]() noexcept { close_epoch(); });
  const auto run_lane = [this, &sync, lanes](std::size_t lane) {
    do {
      for (std::size_t s = lane; s < shards_.size(); s += lanes) run_shard(s);
      sync.arrive_and_wait();
    } while (!done_);
  };
  done_ = false;
  // The caller is lane 0 and each helper lane is a thread of this run's
  // own, so a lane's shards stay on one OS thread for every epoch and no
  // other work can hold a lane back. The helpers join when `helpers` goes
  // out of scope.
  std::vector<std::jthread> helpers;
  helpers.reserve(lanes - 1);
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    helpers.emplace_back(run_lane, lane);
  }
  run_lane(0);
}

std::uint64_t ShardedSimulator::run(SimTime until) {
  const std::uint64_t before = executed_events();
  until_ = until;
  if (plan_epoch()) run_team();
  deliver_pending();
  std::exception_ptr error;
  for (Shard& sh : shards_) {
    if (!error) error = sh.error;
    sh.error = nullptr;
  }
  if (error) std::rethrow_exception(error);
  // Uniform horizon semantics, mirroring Simulator::run: a finite `until`
  // lands every shard clock exactly on it, idle shards included.
  if (until != kInfiniteHorizon) {
    for (Shard& sh : shards_) sh.sim.run(until);
  }
  return executed_events() - before;
}

std::uint64_t ShardedSimulator::cross_messages() const {
  std::uint64_t total = 0;
  for (const Shard& sh : shards_) total += sh.sent;
  return total;
}

std::uint64_t ShardedSimulator::executed_events() const {
  std::uint64_t total = 0;
  for (const Shard& sh : shards_) total += sh.sim.executed_events();
  return total;
}

bool ShardedSimulator::idle() const {
  // Between runs only the write parity can hold mail: the run's last
  // barrier delivered and emptied both.
  for (const Shard& sh : shards_) {
    if (!sh.sim.idle()) return false;
    for (const std::vector<CrossMsg>& row : sh.out[write_parity_].rows) {
      if (!row.empty()) return false;
    }
  }
  return true;
}

// --- ShardedReplay ----------------------------------------------------------

ShardedReplay::ShardedReplay(ShardedSimulator& engine) {
  recorders_ = std::vector<Slot>(engine.shards());
  for (std::size_t s = 0; s < recorders_.size(); ++s) {
    recorders_[s].recorder.attach(engine.shard(static_cast<ShardId>(s)));
  }
}

std::vector<ShardedReplay::Record> ShardedReplay::merged() const {
  std::vector<Record> out;
  out.reserve(events_recorded());
  for (std::size_t s = 0; s < recorders_.size(); ++s) {
    for (const ReplayRecorder::Record& r : recorders_[s].recorder.records()) {
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

std::size_t ShardedReplay::events_recorded() const {
  std::size_t n = 0;
  for (const Slot& slot : recorders_) n += slot.recorder.events_recorded();
  return n;
}

}  // namespace spider::sim
