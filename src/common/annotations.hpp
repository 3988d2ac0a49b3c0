// Thread-safety annotations, checkable on two levels.
//
// Under clang the macros expand to the thread-safety-analysis attributes,
// so `-Wthread-safety` proves the discipline at compile time; under gcc
// they expand to nothing. Either way spiderlint rule L6 (lock-discipline)
// reads the spelling lexically: a member marked SPIDER_GUARDED_BY(m) may
// only be touched inside functions that visibly lock `m` (lock_guard/
// unique_lock/scoped_lock/m.lock()) or are annotated SPIDER_REQUIRES(m).
// L12 (pool-capture-discipline) lets pool closures capture a guarded member
// by reference. These two macros are the whole vocabulary; shard ownership
// has no marker, because the sharded engine checks its contracts at run
// time. The TSan ctest preset (SPIDER_SANITIZE=thread) provides the dynamic
// backstop for anything the lexical pass cannot see.
//
//   class Counter {
//     void bump() { std::lock_guard<std::mutex> lk(mu_); ++n_; }
//     void bump_locked() SPIDER_REQUIRES(mu_) { ++n_; }  // caller holds mu_
//     std::mutex mu_;
//     int n_ SPIDER_GUARDED_BY(mu_) = 0;
//   };
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define SPIDER_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SPIDER_THREAD_ANNOTATION(x)  // no-op on gcc/msvc
#endif

/// Member data that may only be read or written while holding `m`.
#define SPIDER_GUARDED_BY(m) SPIDER_THREAD_ANNOTATION(guarded_by(m))

/// Function that must be called with the listed mutexes already held.
#define SPIDER_REQUIRES(...) \
  SPIDER_THREAD_ANNOTATION(exclusive_locks_required(__VA_ARGS__))
