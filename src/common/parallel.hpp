// Minimal task parallelism: one fixed thread pool with one FIFO queue, plus
// parallel_for.
//
// The pool has two users, each measured to pay (docs/performance.md,
// "Pooled parallel fan-out"): parallel_for, which fans independent runs
// (spiderfault --jobs=N campaigns) over the machine, and the sharded
// engine's lane team (sim/sharded_sim.hpp). Simulations themselves stay
// single-threaded and deterministic; parallelism is across independent runs
// or across shards that meet at epoch barriers.
//
// parallel_for never spawns threads: every call routes through one
// process-wide ThreadPool (see shared_pool()), so thread creation is paid
// once per process. The calling thread participates in its own batch,
// which both speeds small batches up and makes nested calls from a worker
// thread deadlock-free (they simply run inline).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace spider {

/// Fixed-size worker pool draining one FIFO queue of void() tasks. Tasks
/// must not throw: an exception escaping a task ends the process
/// (std::terminate). Both users catch on the worker and rethrow on their
/// caller — parallel_for through its batch state, the lane team through
/// each shard's error slot. The destructor runs every queued task, then
/// joins the workers.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);

  std::size_t size() const { return workers_.size(); }

  /// Ids of the pool's worker threads. Lets tests prove that consecutive
  /// parallel_for batches reuse the same OS threads instead of spawning.
  std::vector<std::thread::id> worker_ids() const;

  /// True when called from one of this pool's worker threads.
  bool on_worker_thread() const;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::queue<std::function<void()>> tasks_;  // guarded by mu_
  bool stop_ = false;                         // guarded by mu_
};

/// The process-wide pool parallel_for drains into. Created on first use and
/// alive until process exit. Sized to hardware_concurrency() - 1 (minimum
/// one worker): the calling thread participates in every parallel_for
/// batch, so workers + caller together fill the machine exactly — a pool of
/// hardware_concurrency workers plus the caller oversubscribed by one.
ThreadPool& shared_pool();

/// Run fn(i) for i in [0, n) across up to `threads` concurrent participants
/// (pool workers plus the calling thread, which joins its own batch).
/// `threads` == 0 means "auto": one lane per shared-pool worker plus the
/// caller — the whole machine, no oversubscription. The effective fan-out
/// never exceeds shared_pool().size() + 1 regardless of `threads`. Blocks
/// until all iterations complete. With threads == 1 (or n == 1), or when
/// called from a shared-pool worker thread (nested parallelism), runs
/// inline — which keeps single-threaded determinism trivially available.
/// If any iteration throws, remaining un-started iterations are skipped and
/// the first exception is rethrown on the calling thread after the batch
/// drains.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace spider
