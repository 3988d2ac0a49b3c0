// Thread-safety annotations, checkable on two levels.
//
// Under clang the macros expand to the thread-safety-analysis attributes,
// so `-Wthread-safety` proves the discipline at compile time; under gcc
// they expand to nothing. Either way spiderlint rule L6 (lock-discipline)
// reads the spelling lexically: a member marked SPIDER_GUARDED_BY(m) may
// only be touched inside functions that visibly lock `m` (lock_guard/
// unique_lock/scoped_lock/m.lock()) or are annotated SPIDER_REQUIRES(m).
// The TSan ctest preset (SPIDER_SANITIZE=thread) provides the dynamic
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

/// Function that must NOT be called with the listed mutexes held
/// (it acquires them itself).
#define SPIDER_EXCLUDES(...) \
  SPIDER_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Member data owned by one simulation shard (sim/sharded_sim.hpp): it may
/// only be touched by the owning shard's own events or by the single-
/// threaded barrier code between epochs. `owner` is a human-readable owner
/// expression ("shard", "shard(from)", "barrier") — documentation, not code.
///
/// No compiler lowering exists for shard ownership, so the macro expands to
/// nothing everywhere; it is a lexical marker for spiderlint rules L9
/// (shard-escape) and L12 (pool-capture-discipline), which forbid closures
/// scheduled onto a shard — or handed to the thread pool — from capturing
/// annotated members by reference.
#define SPIDER_SHARD_OWNED(owner)  // lexical marker (spiderlint L9/L12)
