// Sharded parallel discrete-event engine with conservative epoch barriers.
//
// The serial Simulator is a single event stream; simulating the full Spider
// II center (20,160 disks, ~27K clients) at 4x-16x scale needs the event
// space decomposed along the same failure/routing domains the paper's
// operations use — SSUs, namespaces, FGR zones. ShardedSimulator partitions
// events into per-shard `Simulator`s (one EventQueue, clock, and dense
// EventId sequence each) and runs them in lockstep epochs:
//
//   epoch k covers [e_k, e_k + lookahead); every shard first takes in the
//   cross-shard mail sent to it during epoch k-1, then executes its local
//   events inside the window, then all shards arrive at a barrier.
//
// The lookahead is the minimum cross-shard latency — a message sent during
// an epoch cannot be due before the epoch ends, so shards never need to
// roll back (classic conservative PDES; the torus/fabric models in src/net/
// know the latency floors, see net/lookahead.hpp). Epochs skip dead time:
// each round starts at the earliest pending event or message across all
// shards, so an idle stretch costs one barrier, not lookahead-sized
// busywork.
//
// Determinism is by construction, to the same bar spiderfault --jobs=N set:
//   * Each shard is a serial Simulator, so its local (time, id, site)
//     stream is reproducible regardless of which pool worker ran it.
//   * A shard's inbound mail drains on its own lane before the shard runs,
//     in canonical (source shard, FIFO) order, so target-local EventIds
//     never depend on lane interleaving. The barrier that ends a run drains
//     what is left serially, in the same order.
//   * Epoch boundaries derive only from event times, the lookahead, and
//     the horizon — not from the shard count — so running the same
//     assignment on engines with more (empty) shards, or with any number
//     of workers, produces a byte-identical merged stream. Changing the
//     *assignment* moves events between queues and legitimately changes
//     the stream (pinned by the metamorphic tests).
//
// Lanes: shard s runs on lane s % lanes. Each run() forms one lane team:
// lane 0 is the calling thread and each helper lane is one shared_pool()
// task for the whole run, so a shard's state stays cache-warm on one OS
// thread without pinning. Lanes meet at one std::barrier per epoch; its
// completion step plans the next epoch. Each shard's epoch-time state sits
// in its own kLaneAlign-aligned holder, so no two shards' holders share a
// cache line (docs/parallel-engine.md).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <vector>

#include "sim/replay.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace spider::sim {

using ShardId = std::uint32_t;

/// Alignment of state that one lane writes during an epoch: two 64-byte
/// lines, because x86's adjacent-line prefetcher moves lines in pairs, so
/// state padded to one line still contends with its neighbour. Shard
/// holders use it, and so does per-domain scenario state that events write
/// (core::ScaleScenario's zones).
inline constexpr std::size_t kLaneAlign = 128;

/// Assignment of simulation domains (an Ssu, an FsNamespace, a FlowNetwork
/// zone) to shards. Domains are dense indices so scenarios can address them
/// in O(1). Reassigning domains changes which shard's queue their events
/// land in — and therefore the merged replay stream — while the *shard
/// count* of the engine does not (see the header comment).
class ShardMap {
 public:
  /// `domains` domains spread round-robin over `shards` shards
  /// (domain i -> shard i % shards). Both must be >= 1.
  ShardMap(std::size_t domains, std::size_t shards);

  std::size_t domains() const { return assign_.size(); }
  std::size_t shards() const { return shards_; }

  ShardId shard_of(std::size_t domain) const;
  void reassign(std::size_t domain, ShardId shard);

 private:
  std::vector<ShardId> assign_;
  std::size_t shards_ = 1;
};

struct ShardedConfig {
  /// Conservative minimum cross-shard latency (must be > 0). Cross-shard
  /// messages sent during an epoch must land at or after the epoch's end;
  /// net/lookahead.hpp derives safe values from the torus/fabric models.
  SimTime lookahead = kMillisecond;
  /// Max concurrent lanes (caller + pool workers). 0 = auto (one lane per
  /// shared_pool() worker plus the caller); 1 = serial execution on the
  /// calling thread. The merged stream is identical either way.
  std::size_t workers = 0;
};

class ShardedSimulator {
 public:
  explicit ShardedSimulator(std::size_t shards, ShardedConfig cfg = {});
  // Lane tasks, the barrier's completion step and scenarios hold the
  // engine's address.
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::size_t shards() const { return shards_.size(); }
  SimTime lookahead() const { return cfg_.lookahead; }

  /// The shard's serial engine, for scheduling local events and reading its
  /// clock. Scheduling directly on a shard is only safe from that shard's
  /// own events (or before/after run()); everything crossing shards must go
  /// through schedule_cross.
  Simulator& shard(ShardId s);
  const Simulator& shard(ShardId s) const;

  /// Send an event from shard `from` to shard `to`, due at absolute time
  /// `when`. Buffered in the (from, to) mailbox and transferred into the
  /// target queue after the next epoch barrier, in canonical (source shard,
  /// FIFO) order per target. `when` must respect the lookahead contract:
  /// at or after the current epoch's end. A violation throws
  /// std::logic_error naming the shard pair, both times, and the call site
  /// — the sharded-engine form of schedule_at's past-time diagnostic.
  /// Same-shard sends (from == to) are legal and still barrier-deferred, so
  /// the stream stays independent of how domains map onto shards.
  void schedule_cross(ShardId from, ShardId to, SimTime when, EventFn fn,
                      Site site = {});

  /// Run all shards in lockstep epochs until every queue and mailbox drains
  /// or `until` is passed. Horizon semantics match Simulator::run: events
  /// with time <= `until` execute, and with a finite `until` every shard
  /// clock lands exactly on it. Returns the number of events executed
  /// across all shards. When events throw, every shard still finishes the
  /// epoch, the run stops at its barrier, and run() rethrows the error of
  /// the lowest-indexed failing shard — the same one at any lane count. The
  /// engine stays usable: a later run() resumes from the queues as left.
  ///
  /// Events run inside the lane team and must not wait on shared-pool work:
  /// the helper lanes hold their workers until the run ends. An engine
  /// run() from inside an event runs serially, as does a run() while
  /// another engine's team is out.
  std::uint64_t run(SimTime until = std::numeric_limits<SimTime>::max());

  /// First time at which a cross-shard message may currently land — the end
  /// of the epoch being executed (or of the last one run). 0 before the
  /// first epoch, so setup code can mail freely.
  SimTime epoch_end() const { return epoch_end_; }

  std::uint64_t epochs() const { return epochs_; }
  std::uint64_t cross_messages() const;
  std::uint64_t executed_events() const;
  bool idle() const;

 private:
  struct CrossMsg {
    SimTime when = 0;
    EventFn fn;
    Site site;  ///< the schedule_cross call, named again at delivery
  };

  /// The mail one shard sent during one epoch: a row per target shard, and
  /// the earliest `when` among it for the next-event scan.
  struct Outbox {
    std::vector<std::vector<CrossMsg>> rows;
    SimTime earliest = std::numeric_limits<SimTime>::max();

    void clear() {
      for (std::vector<CrossMsg>& row : rows) row.clear();
      earliest = std::numeric_limits<SimTime>::max();
    }
  };

  /// Everything a shard's lane writes during an epoch, on lines of its own.
  struct alignas(kLaneAlign) Shard {
    Simulator sim;
    /// By epoch parity: events append to out[write_parity_] while target
    /// lanes drain the other parity, which was written the epoch before.
    std::array<Outbox, 2> out;
    /// schedule_cross calls from this shard (summed by cross_messages()).
    std::uint64_t sent = 0;
    /// What this shard's events threw during the current run.
    std::exception_ptr error;
  };

  /// The lanes of one run() and their barrier (sharded_sim.cpp).
  struct Team;

  /// Run epochs on a lane team until the completion step ends the run.
  void run_team();
  void run_lane(Team& team, std::size_t lane);
  /// One shard's epoch: take in its mail, then run it to the horizon.
  /// Errors land in the shard's holder.
  void run_shard(std::size_t s) noexcept;
  /// Schedule the mail addressed to shard `to` in every source's outbox of
  /// `parity`, in canonical (source shard, FIFO) order.
  void deliver(std::size_t to, unsigned parity);
  /// Serial: find the next epoch and set horizon_/epoch_end_, flipping the
  /// write parity. False when nothing is due by until_.
  bool plan_epoch();
  /// The barrier's completion step: count the epoch and plan the next, or
  /// end the run on an error.
  void close_epoch() noexcept;
  /// Serial, after the last barrier: deliver the last epoch's mail and
  /// empty both parities.
  void deliver_pending();

  // Shard addresses must be stable — lanes and replay recorders hold
  // references — so the vector is sized once and never grows. Each holder
  // is owned by its shard's lane during an epoch; only the serial barrier
  // code and the draining target lanes reach across. schedule_cross checks
  // the lookahead at run time; the TSan `threaded` tests catch a raw
  // schedule onto another shard.
  std::vector<Shard> shards_;
  ShardedConfig cfg_;
  SimTime until_ = 0;
  SimTime horizon_ = 0;
  SimTime epoch_end_ = 0;
  std::uint64_t epochs_ = 0;
  unsigned write_parity_ = 0;
  /// Set by the completion step that ends the run; lanes read it after the
  /// barrier.
  bool done_ = false;
};

/// Replay observer fan-in: one ReplayRecorder per shard, merged into the
/// canonical stream ordered by (when, shard, id). Within a shard, records
/// are already sorted by (when, id) — the dispatch order of a serial
/// Simulator — so the merge is well-defined and, like the engine itself,
/// independent of worker count and (empty-)shard count.
class ShardedReplay {
 public:
  /// Attaches a recorder to every shard, replacing prior observers. Must
  /// outlive the engine's runs.
  explicit ShardedReplay(ShardedSimulator& engine);
  // The shards' observers hold the recorders' addresses.
  ShardedReplay(const ShardedReplay&) = delete;
  ShardedReplay& operator=(const ShardedReplay&) = delete;

  struct Record {
    SimTime when = 0;
    ShardId shard = 0;
    EventId id = 0;
    std::uint64_t site = 0;

    bool operator==(const Record&) const = default;
  };

  /// The canonical merged stream.
  std::vector<Record> merged() const;
  /// FNV-1a over (when, shard, id, site) of the merged stream.
  std::uint64_t merged_hash() const;
  /// Site-free variant over (when, shard, id) — line-number independent,
  /// like tools::stream_hash.
  std::uint64_t stream_hash() const;
  /// The merged stream folded exactly as a serial ReplayRecorder folds
  /// (when, id, site). When one shard carries all events (e.g. a serial
  /// workload hosted on shard 0), this equals the serial Simulator run's
  /// event_hash byte-for-byte.
  std::uint64_t serial_equivalent_hash() const;

  std::size_t events_recorded() const;

 private:
  // Each simulator's observer is a non-owning FunctionRef bound to its
  // recorder, so the vector is sized once and never grows. Each recorder is
  // written on every event of its shard, by that shard's lane, so each gets
  // lines of its own like the engine's shard holders.
  struct alignas(kLaneAlign) Slot {
    ReplayRecorder recorder;
  };
  std::vector<Slot> recorders_;
};

}  // namespace spider::sim
