#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace spider {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

std::vector<std::thread::id> ThreadPool::worker_ids() const {
  std::vector<std::thread::id> ids;
  ids.reserve(workers_.size());
  for (const auto& w : workers_) ids.push_back(w.get_id());
  return ids;
}

bool ThreadPool::on_worker_thread() const {
  const std::thread::id self = std::this_thread::get_id();
  for (const auto& w : workers_) {
    if (w.get_id() == self) return true;
  }
  return false;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and the queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& shared_pool() {
  // Meyers singleton: constructed on first use, joined during static
  // destruction (workers are idle by then — nothing submits after main
  // returns), and LSan-clean under the ASan gate.
  //
  // Sized to hardware_concurrency() - 1 (minimum one worker): parallel_for's
  // calling thread participates in its own batch, so a pool of
  // hardware_concurrency workers would oversubscribe the machine by one
  // thread on every batch. Workers + caller now fill the machine exactly.
  const unsigned hw = std::thread::hardware_concurrency();
  static ThreadPool pool(hw > 1 ? hw - 1 : 1);
  return pool;
}

namespace {

/// Shared state of one parallel_for batch. Helpers submitted to the shared
/// pool hold the state via shared_ptr so a helper scheduled late (after the
/// caller already finished the index space and returned) still has valid
/// state to decrement.
struct BatchState {
  const std::function<void(std::size_t)>* fn = nullptr;  // caller-owned
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done;
  std::size_t helpers_left = 0;   // guarded by mu
  std::exception_ptr first_error;  // guarded by mu

  /// Claim-and-run indices until the space is exhausted or a failure stops
  /// the batch. `fn` stays valid for every helper: the caller blocks until
  /// helpers_left reaches zero before returning.
  void run_range() {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i);
      } catch (...) {
        {
          std::lock_guard lock(mu);
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
};

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (n == 0) return;
  ThreadPool& pool = shared_pool();
  // threads == 0 is "auto": one lane per pool worker plus the caller — the
  // machine's full width with no oversubscription.
  if (threads == 0) threads = pool.size() + 1;
  // Inline paths: explicit serial request, trivial batch, or a nested call
  // from a pool worker (waiting on helpers from inside the pool could
  // deadlock if every worker did it; inline is deterministic and safe).
  if (threads <= 1 || n == 1 || pool.on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  const std::size_t lanes = std::min({threads, n, pool.size() + 1});
  const std::size_t helpers = lanes - 1;  // the caller is lane 0
  auto state = std::make_shared<BatchState>();
  state->fn = &fn;
  state->n = n;
  {
    std::lock_guard lock(state->mu);
    state->helpers_left = helpers;
  }
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([state] {
      state->run_range();
      std::lock_guard lock(state->mu);
      if (--state->helpers_left == 0) state->done.notify_all();
    });
  }

  state->run_range();

  std::exception_ptr err;
  {
    std::unique_lock lock(state->mu);
    state->done.wait(lock, [&] { return state->helpers_left == 0; });
    err = std::exchange(state->first_error, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace spider
