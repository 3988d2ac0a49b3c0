#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <latch>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/distributions.hpp"
#include "common/histogram.hpp"
#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace spider {
namespace {

TEST(Units, BinaryAndDecimalLiterals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(1_MiB, 1024u * 1024u);
  EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
  EXPECT_EQ(1_MB, 1000000u);
  EXPECT_EQ(2_TB, 2000000000000ull);
  EXPECT_DOUBLE_EQ(to_gbps(1.0 * kTBps), 1000.0);
  EXPECT_DOUBLE_EQ(to_pb(1000_TB), 1.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexUnbiasedCoverage) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(13);
  RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(rs.mean(), 5.0, 0.05);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(rng.exponential(4.0));
  EXPECT_NEAR(rs.mean(), 0.25, 0.01);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng a(5);
  Rng child1 = a.fork(1);
  Rng b(5);
  Rng child2 = b.fork(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child1(), child2());
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Distributions, ParetoSamplesAboveScale) {
  Rng rng(23);
  Pareto p(1.5, 2.0);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(p.sample(rng), 2.0);
}

TEST(Distributions, ParetoEmpiricalMeanMatchesAnalytic) {
  Rng rng(29);
  Pareto p(2.5, 1.0);
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) rs.add(p.sample(rng));
  EXPECT_NEAR(rs.mean(), p.mean(), 0.05 * p.mean());
}

TEST(Distributions, ParetoInfiniteMeanForSmallAlpha) {
  Pareto p(0.9, 1.0);
  EXPECT_TRUE(std::isinf(p.mean()));
}

TEST(Distributions, ParetoRejectsBadParams) {
  EXPECT_THROW(Pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Pareto(1.0, -1.0), std::invalid_argument);
}

TEST(Distributions, BoundedParetoStaysInBounds) {
  Rng rng(31);
  BoundedPareto p(1.2, 1.0, 100.0);
  for (int i = 0; i < 20000; ++i) {
    const double x = p.sample(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
}

TEST(Distributions, LogNormalMeanMatchesAnalytic) {
  Rng rng(37);
  LogNormal ln(0.5, 0.4);
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) rs.add(ln.sample(rng));
  EXPECT_NEAR(rs.mean(), ln.mean(), 0.03 * ln.mean());
}

TEST(Distributions, ZipfPrefersLowRanks) {
  Rng rng(41);
  Zipf z(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(Distributions, DiscreteMixtureProbabilities) {
  const double weights[] = {1.0, 3.0};
  DiscreteMixture mix({weights, 2});
  EXPECT_NEAR(mix.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(mix.probability(1), 0.75, 1e-12);
  Rng rng(43);
  int first = 0;
  for (int i = 0; i < 40000; ++i) {
    if (mix.sample(rng) == 0) ++first;
  }
  EXPECT_NEAR(first / 40000.0, 0.25, 0.02);
}

TEST(Distributions, EmpiricalSamplesFromValues) {
  Rng rng(47);
  Empirical e({1.0, 2.0, 4.0});
  for (int i = 0; i < 1000; ++i) {
    const double v = e.sample(rng);
    EXPECT_TRUE(v == 1.0 || v == 2.0 || v == 4.0);
  }
}

TEST(Stats, WelfordMatchesDirectComputation) {
  Rng rng(53);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    xs.push_back(x);
    rs.add(x);
  }
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / 1000.0;
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 999.0;
  EXPECT_NEAR(rs.mean(), mean, 1e-9);
  EXPECT_NEAR(rs.variance(), var, 1e-9);
}

TEST(Stats, MergeEqualsSequential) {
  Rng rng(59);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, PercentileInterpolation) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(Stats, PercentilesBatchMatchesSingle) {
  const std::vector<double> v{5.0, 1.0, 9.0, 3.0, 7.0};
  const std::vector<double> ps{10.0, 50.0, 90.0};
  const auto batch = percentiles(v, ps);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], percentile(v, ps[i]));
  }
}

TEST(Stats, SpreadAndImbalance) {
  const std::vector<double> v{90.0, 100.0, 110.0};
  EXPECT_NEAR(spread_fraction(v), 0.2, 1e-12);
  EXPECT_NEAR(imbalance_of(v), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(spread_fraction({}), 0.0);
}

TEST(Histogram, LinearBinningTracksOutOfRangeExplicitly) {
  LinearHistogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // below lo: underflow, NOT folded into bin 0
  h.add(100.0);   // at/above hi: overflow, NOT folded into bin 9
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 4u);  // totals still conserved
  // hi itself is outside the half-open range.
  h.add(10.0);
  EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, LinearFractionBetweenIgnoresOutOfRangeMass) {
  // Regression: out-of-range samples used to clamp into the edge bins and
  // masquerade as in-range mass, skewing fraction_between (and the figure
  // regeneration built on it).
  LinearHistogram h(0.0, 10.0, 10);
  h.add(2.5);
  h.add(-1000.0);
  h.add(1000.0);
  EXPECT_NEAR(h.fraction_between(0.0, 10.0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(h.fraction_between(0.0, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(h.fraction_between(9.0, 10.0), 0.0, 1e-12);
}

TEST(Histogram, ConstructorValidatesBeforeComputingWidth) {
  // bins == 0 must throw, not divide by zero while initializing width_.
  EXPECT_THROW(LinearHistogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(LinearHistogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(LinearHistogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Log2Histogram(5, 5), std::invalid_argument);
}

TEST(Histogram, Log2OutOfRangeAndNonPositive) {
  Log2Histogram h(4, 10);  // bins cover [16, 1024)
  h.add(20.0);             // in range: 2^4 bin
  h.add(0.0);              // no binary exponent: underflow
  h.add(-5.0);             // negative: underflow
  h.add(1.0);              // 2^0 < 2^4: underflow
  h.add(4096.0);           // 2^12 >= 2^10: overflow
  EXPECT_EQ(h.count_for_exp(4), 1u);
  EXPECT_EQ(h.count_for_exp(9), 0u);  // overflow no longer folded in
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 5u);
  // to_string reports the out-of-range mass so it can't silently vanish.
  const std::string s = h.to_string();
  EXPECT_NE(s.find("[-inf, 2^4): 3"), std::string::npos);
  EXPECT_NE(s.find("[2^10, inf): 1"), std::string::npos);
}

TEST(Histogram, Log2FractionBelowCountsUnderflow) {
  Log2Histogram h(4, 10);
  h.add(1.0);     // underflow
  h.add(20.0);    // 2^4
  h.add(100.0);   // 2^6
  h.add(4096.0);  // overflow
  // Below 64 = 2^6: the underflow sample and the 2^4 sample.
  EXPECT_NEAR(h.fraction_below(64.0), 2.0 / 4.0, 1e-12);
}

TEST(Histogram, Log2FractionBelow) {
  Log2Histogram h(0, 20);
  h.add(2.0);      // 2^1 bin
  h.add(1024.0);   // 2^10 bin
  h.add(1_MiB / 2.0);
  EXPECT_NEAR(h.fraction_below(512.0), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(Table, FormatsAndQueriesCells) {
  Table t("demo");
  t.set_columns({"name", "count", "rate"});
  t.set_precision(2, 1);
  t.add_row({std::string("x"), std::int64_t{3}, 1.25});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_DOUBLE_EQ(t.number_at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(t.number_at(0, 2), 1.25);
  EXPECT_THROW(t.number_at(0, 0), std::invalid_argument);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
  EXPECT_NE(os.str().find("1.2"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("x,3,1.2"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t;
  t.set_columns({"a", "b"});
  EXPECT_THROW(t.add_row({std::int64_t{1}}), std::invalid_argument);
}

TEST(Parse, CountTakesWholeDecimalTextUpToUint64Max) {
  std::uint64_t v = 7;
  EXPECT_TRUE(parse_count("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_count("18446744073709551615", v));
  EXPECT_EQ(v, 18446744073709551615ull);
  for (const char* bad : {"", "18446744073709551616", "18446744073709551617",
                          "-1", "+1", " 1", "1 ", "12x", "0x10", "1.0"}) {
    v = 7;
    EXPECT_FALSE(parse_count(bad, v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u) << "failed parse must leave the output alone";
  }
}

TEST(Parse, FiniteRejectsNonFiniteOverflowAndJunk) {
  double d = 0.0;
  EXPECT_TRUE(parse_finite("1.5", d));
  EXPECT_DOUBLE_EQ(d, 1.5);
  EXPECT_TRUE(parse_finite("-4", d));
  EXPECT_DOUBLE_EQ(d, -4.0);
  EXPECT_TRUE(parse_finite("2e3", d));
  EXPECT_DOUBLE_EQ(d, 2000.0);
  EXPECT_TRUE(parse_finite("1e+06", d));  // what ostream << prints
  EXPECT_DOUBLE_EQ(d, 1e6);
  for (const char* bad : {"", "inf", "-inf", "infinity", "nan", "NaN", "1e999",
                          "1.5x", " 1", "+1", "0x1p3"}) {
    d = 7.0;
    EXPECT_FALSE(parse_finite(bad, d)) << "'" << bad << "'";
    EXPECT_DOUBLE_EQ(d, 7.0) << "failed parse must leave the output alone";
  }
}

TEST(Parallel, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i]++; }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ThreadPoolRunsAllTasks) {
  // Declared before the pool, so the pool's destructor joins its workers
  // before the latch a worker last touched goes away.
  std::atomic<int> count{0};
  std::latch done(100);
  ThreadPool pool(4);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] {
      ++count;
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(Parallel, InlineWhenSingleThread) {
  int sum = 0;  // no synchronization needed: must run inline
  parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); }, 1);
  EXPECT_EQ(sum, 45);
}

TEST(Parallel, ParallelForPropagatesException) {
  EXPECT_THROW(
      parallel_for(1000, [](std::size_t i) {
        if (i == 123) throw std::invalid_argument("boom");
      }, 8),
      std::invalid_argument);
  // Inline path throws too.
  EXPECT_THROW(
      parallel_for(10, [](std::size_t i) {
        if (i == 3) throw std::invalid_argument("boom");
      }, 1),
      std::invalid_argument);
}

TEST(Parallel, ConsecutiveBatchesReuseTheSameWorkerThreads) {
  // Regression for the pooled fan-out: parallel_for used to spawn (and join)
  // fresh std::threads per call. Every thread a batch runs on must now be
  // either the caller or one of the shared pool's fixed workers — across
  // consecutive batches — which is only possible if batches reuse the pool.
  const std::vector<std::thread::id> workers = shared_pool().worker_ids();
  const std::thread::id caller = std::this_thread::get_id();
  auto run_batch = [] {
    std::mutex mu;
    std::set<std::thread::id> seen;
    // barrier(2) forces two distinct threads to co-run the batch: whichever
    // lane claims index 0 blocks until the other lane claims index 1, so the
    // caller alone can never finish the batch.
    std::barrier sync(2);
    parallel_for(
        2,
        [&](std::size_t) {
          sync.arrive_and_wait();
          std::lock_guard lock(mu);
          seen.insert(std::this_thread::get_id());
        },
        2);
    return seen;
  };
  const std::set<std::thread::id> batch1 = run_batch();
  const std::set<std::thread::id> batch2 = run_batch();
  EXPECT_EQ(batch1.size(), 2u);
  EXPECT_EQ(batch2.size(), 2u);
  for (const auto& seen : {batch1, batch2}) {
    for (const std::thread::id id : seen) {
      if (id == caller) continue;
      EXPECT_TRUE(std::find(workers.begin(), workers.end(), id) !=
                  workers.end())
          << "batch ran on a thread outside the shared pool";
    }
  }
}

TEST(Parallel, NestedParallelForDoesNotDeadlock) {
  // A worker thread that calls parallel_for runs it inline (waiting on
  // helpers from inside the pool could starve); the caller thread fans out
  // normally. Either way every index runs exactly once.
  std::vector<std::atomic<int>> hits(4 * 8);
  parallel_for(
      4,
      [&](std::size_t outer) {
        parallel_for(
            8, [&, outer](std::size_t inner) { hits[outer * 8 + inner]++; },
            4);
      },
      4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, SharedPoolLeavesRoomForTheCaller) {
  // The shared pool is sized hardware_concurrency() - 1 (floor one worker):
  // the caller joins every batch, so workers + caller fill the machine
  // exactly instead of oversubscribing it by one.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t expected = hw > 1 ? hw - 1 : 1;
  EXPECT_EQ(shared_pool().size(), expected);
}

TEST(Parallel, BatchNeverExceedsPoolPlusCaller) {
  // Oversubscription regression: asking for far more lanes than the machine
  // has must clamp to shared_pool().size() + 1 concurrent participants. The
  // per-iteration spin keeps lanes overlapped long enough that an
  // oversubscribed fan-out would be observed by the high-water mark.
  const std::size_t cap = shared_pool().size() + 1;
  std::atomic<std::size_t> active{0};
  std::atomic<std::size_t> high_water{0};
  parallel_for(
      64,
      [&](std::size_t) {
        const std::size_t now = ++active;
        std::size_t seen = high_water.load();
        while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        --active;
      },
      cap + 16);  // request far more lanes than can exist
  EXPECT_LE(high_water.load(), cap);
  EXPECT_GE(high_water.load(), 1u);
}

TEST(Parallel, ParallelForDefaultsToAutoFanOut) {
  // threads omitted (0 = auto) still covers every index exactly once.
  std::vector<std::atomic<int>> hits(256);
  parallel_for(256, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- stats property tests ---------------------------------------------------

TEST(StatsProperty, PercentileMatchesPercentilesOnRandomInputs) {
  Rng rng(7001);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = 1 + rng.uniform_index(200);
    std::vector<double> v(n);
    for (auto& x : v) x = rng.uniform(-1e6, 1e6);
    std::vector<double> ps;
    for (int k = 0; k < 8; ++k) ps.push_back(rng.uniform(0.0, 100.0));
    ps.insert(ps.end(), {0.0, 50.0, 100.0});
    const auto batch = percentiles(v, ps);
    ASSERT_EQ(batch.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      // Same shared helper underneath -> bit-identical, not just close.
      EXPECT_DOUBLE_EQ(batch[i], percentile(v, ps[i]))
          << "iter " << iter << " p=" << ps[i];
    }
  }
}

TEST(StatsProperty, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_TRUE(percentiles({}, std::vector<double>{25.0, 75.0}) ==
              (std::vector<double>{0.0, 0.0}));
  const std::vector<double> one{3.5};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(one, 37.0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(one, 100.0), 3.5);
}

TEST(StatsProperty, MergeMatchesSinglePassOnRandomSplits) {
  Rng rng(7002);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t n = rng.uniform_index(300);  // includes n == 0
    std::vector<double> v(n);
    for (auto& x : v) x = rng.uniform(-100.0, 100.0);
    RunningStats all;
    for (double x : v) all.add(x);
    // Split at a random point (possibly 0 or n: empty-side merges).
    const std::size_t cut = rng.uniform_index(n + 1);
    RunningStats left, right;
    for (std::size_t i = 0; i < cut; ++i) left.add(v[i]);
    for (std::size_t i = cut; i < n; ++i) right.add(v[i]);
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-7);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
    EXPECT_NEAR(left.sum(), all.sum(), 1e-7);
  }
}

TEST(StatsProperty, MergeEdgeCases) {
  // empty.merge(empty)
  RunningStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  // merge into empty
  RunningStats c, d;
  d.add(2.0);
  d.add(4.0);
  c.merge(d);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 3.0);
  EXPECT_DOUBLE_EQ(c.min(), 2.0);
  EXPECT_DOUBLE_EQ(c.max(), 4.0);
  // merge of one-element accumulators
  RunningStats e, f;
  e.add(1.0);
  f.add(5.0);
  e.merge(f);
  EXPECT_EQ(e.count(), 2u);
  EXPECT_DOUBLE_EQ(e.mean(), 3.0);
  EXPECT_NEAR(e.variance(), 8.0, 1e-12);  // sample variance of {1, 5}
}

}  // namespace
}  // namespace spider
