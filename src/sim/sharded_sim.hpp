// Sharded parallel discrete-event engine with conservative epoch barriers.
//
// The serial Simulator is a single event stream; simulating the full Spider
// II center (20,160 disks, ~27K clients) at 4x-16x scale needs the event
// space decomposed along the same failure/routing domains the paper's
// operations use — SSUs, namespaces, FGR zones. ShardedSimulator partitions
// events into per-shard `Simulator`s (one EventQueue, clock, and dense
// EventId sequence each) and runs them in lockstep epochs:
//
//   epoch k covers [e_k, e_k + lookahead); every shard executes its local
//   events inside the window, then all shards arrive at a barrier and the
//   cross-shard mailboxes drain into the target queues.
//
// The lookahead is the minimum cross-shard latency — a message sent during
// an epoch cannot be due before the epoch ends, so shards never need to
// roll back (classic conservative PDES; the torus/fabric models in src/net/
// know the latency floors, see net/lookahead.hpp). Epochs skip dead time:
// each round starts at the earliest pending event across all shards, so an
// idle stretch costs one barrier, not lookahead-sized busywork.
//
// Determinism is by construction, to the same bar spiderfault --jobs=N set:
//   * Each shard is a serial Simulator, so its local (time, id, site)
//     stream is reproducible regardless of which pool worker ran it.
//   * Mailboxes drain single-threaded at the barrier in canonical
//     (destination, source shard, FIFO) order, so target-local EventIds
//     never depend on lane interleaving.
//   * Epoch boundaries derive only from event times, the lookahead, and
//     the horizon — not from the shard count — so running the same
//     assignment on engines with more (empty) shards, or with any number
//     of workers, produces a byte-identical merged stream. Changing the
//     *assignment* moves events between queues and legitimately changes
//     the stream (pinned by the metamorphic tests).
//
// Worker mapping: shard s runs on lane s % lanes; lane 0 is the calling
// thread and each helper lane is pinned to one shared_pool() worker
// (ThreadPool::submit_to), so a shard's state stays cache-warm on the same
// OS thread across every epoch of a run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <source_location>
#include <vector>

#include "common/annotations.hpp"
#include "sim/replay.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace spider::sim {

using ShardId = std::uint32_t;

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
  /// Max concurrent lanes (caller + pinned pool workers). 0 = auto (one
  /// lane per shared_pool() worker plus the caller); 1 = serial execution
  /// on the calling thread. The merged stream is identical either way.
  std::size_t workers = 0;
};

class ShardedSimulator {
 public:
  explicit ShardedSimulator(std::size_t shards, ShardedConfig cfg = {});

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
  /// target queue at the next epoch barrier, in canonical (destination,
  /// source shard, FIFO) order. `when` must respect the lookahead contract:
  /// at or after the current epoch's end. A violation throws
  /// std::logic_error naming the shard pair, both times, and the call site
  /// — the sharded-engine form of schedule_at's past-time diagnostic.
  /// Same-shard sends (from == to) are legal and still barrier-deferred, so
  /// the stream stays independent of how domains map onto shards.
  void schedule_cross(ShardId from, ShardId to, SimTime when, EventFn fn,
                      std::source_location loc = std::source_location::current());

  /// Run all shards in lockstep epochs until every queue and mailbox drains
  /// or `until` is passed. Horizon semantics match Simulator::run: events
  /// with time <= `until` execute, and with a finite `until` every shard
  /// clock lands exactly on it. Returns the number of events executed
  /// across all shards. Rethrows the first exception any shard raised
  /// (after the epoch's lanes quiesce).
  std::uint64_t run(SimTime until = std::numeric_limits<SimTime>::max());

  /// First time at which a cross-shard message may currently land — the end
  /// of the epoch being executed (or of the last one run). 0 before the
  /// first epoch, so setup code can mail freely.
  SimTime epoch_end() const { return epoch_end_; }

  std::uint64_t epochs() const { return epochs_; }
  std::uint64_t cross_messages() const {
    return cross_messages_.load(std::memory_order_relaxed);
  }
  std::uint64_t executed_events() const;
  bool idle() const;

 private:
  struct CrossMsg {
    SimTime when = 0;
    EventFn fn;
    std::uint64_t site = 0;
  };

  /// Transfer buffered mailbox messages into target queues, canonically
  /// ordered. Single-threaded: only called between epochs.
  void drain_mailboxes();
  /// Execute every shard up to the inclusive horizon `h`, in parallel when
  /// configured. Returns events executed; rethrows the first lane error.
  std::uint64_t run_epoch(SimTime h);

  // unique_ptr: shard addresses must be stable — lanes hold references
  // while the vector's buffer would otherwise move on growth. Each element
  // is owned by its shard's lane during an epoch; only the single-threaded
  // barrier code may reach across (spiderlint L9 enforces the closure side
  // of this contract).
  std::vector<std::unique_ptr<Simulator>> shards_ SPIDER_SHARD_OWNED(shard);
  /// Cross-shard mailbox (from * S + to): appended by the sending shard's
  /// events via schedule_cross, drained single-threaded at the barrier.
  std::vector<std::vector<CrossMsg>> outbox_ SPIDER_SHARD_OWNED(barrier);
  ShardedConfig cfg_;
  SimTime epoch_end_ = 0;
  std::uint64_t epochs_ = 0;
  // Atomic: bumped by whichever lane is executing the sending shard's
  // events, concurrently across lanes. The total is lane-order independent,
  // so the stat stays deterministic; relaxed is enough for a counter read
  // only after run() returns.
  std::atomic<std::uint64_t> cross_messages_{0};
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

  const ReplayRecorder& recorder(ShardId s) const { return *recorders_[s]; }
  std::size_t events_recorded() const;

 private:
  // unique_ptr: the simulator's observer is a non-owning FunctionRef bound
  // to each recorder, so recorder addresses must be stable.
  std::vector<std::unique_ptr<ReplayRecorder>> recorders_;
};

}  // namespace spider::sim
