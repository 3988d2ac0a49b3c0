// Fixture for spiderlint rule L12 (pool-capture-discipline).
//
// Closures handed to parallel_for/ThreadPool::submit run on pool workers:
// by-reference captures of members lacking SPIDER_GUARDED_BY / std::atomic
// race, and by-ref locals without a visible join dangle. The fork-join
// local, the guarded/atomic members, the mutex itself, and the submit
// joined by a latch wait are engineered false positives.
#include <atomic>
#include <mutex>
#include <vector>

#include "common/annotations.hpp"

namespace fixture {

template <typename Fn>
void parallel_for(unsigned n, Fn fn);

struct Pool {
  template <typename Fn>
  void submit(Fn fn);
};
struct Latch {  // std::latch: wait() joins the submitted tasks
  void wait();
};

class Study {
 public:
  void sweep() {
    // Fork-join local: parallel_for joins before returning. Must NOT be
    // flagged.
    long sum = 0;
    parallel_for(8, [&sum](unsigned i) { sum += i; });
    // Unguarded member mutated from pool workers through this. Flagged.
    parallel_for(8, [this](unsigned i) { rows_.push_back(i); });  // L12
    // Atomic and lock-guarded members are exempt — and so is the mutex
    // doing the guarding. Must NOT be flagged.
    parallel_for(8, [this](unsigned i) {
      hits_ += 1;
      std::lock_guard<std::mutex> lk(mu_);
      locked_ += i;
    });
  }

  void fire_and_forget() {
    long local = 0;
    // No visible join in this function: the by-ref local may dangle.
    pool_.submit([&local] { local += 1; });  // L12
  }

  void fire_default() {
    long local = 0;
    pool_.submit([&] { local += 1; });  // L12: default by-ref, no join
  }

  void joined_submit() {
    long local = 0;
    pool_.submit([&local] { local += 1; });
    // Aliasing an unguarded member stays flagged even under a join: the
    // workers race each other, not just the local's lifetime.
    pool_.submit([&rows = rows_] { rows.clear(); });  // L12
    joined_.wait();
  }

 private:
  Pool pool_;
  Latch joined_;
  std::vector<unsigned> rows_;
  std::atomic<long> hits_{0};
  std::mutex mu_;
  long locked_ SPIDER_GUARDED_BY(mu_) = 0;
};

}  // namespace fixture
