#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "sim/steady_state.hpp"
#include "workload/analytics.hpp"
#include "workload/arrivals.hpp"
#include "workload/characterize.hpp"
#include "workload/checkpoint.hpp"
#include "workload/ior.hpp"
#include "workload/mixed.hpp"
#include "workload/pattern.hpp"
#include "workload/s3d.hpp"

namespace spider::workload {
namespace {

TEST(Pattern, SizesAreBimodal) {
  Rng rng(1);
  RequestSizeModel model{WorkloadMixParams{}};
  const Zipf large = model.large_multiples();
  std::size_t small = 0, mb_multiple = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const Bytes s = model.sample(rng, large);
    if (s < 16_KiB) ++small;
    if (s >= 1_MB && s % 1_MB == 0) ++mb_multiple;
  }
  // Every sample is in one of the two paper modes.
  EXPECT_NEAR(static_cast<double>(small) / n,
              WorkloadMixParams{}.small_fraction, 0.02);
  EXPECT_NEAR(static_cast<double>(small + mb_multiple) / n, 1.0, 0.02);
}

TEST(Pattern, DirectionMatchesWriteFraction) {
  Rng rng(2);
  WorkloadMixParams mix;
  int writes = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (sample_dir(mix, rng) == block::IoDir::kWrite) ++writes;
  }
  EXPECT_NEAR(static_cast<double>(writes) / n, 0.60, 0.01);
}

TEST(Pattern, RejectsBadParams) {
  WorkloadMixParams mix;
  mix.small_fraction = 1.5;
  EXPECT_THROW(RequestSizeModel{mix}, std::invalid_argument);
}

TEST(Arrivals, GapsPositiveAndIdleFlagged) {
  Rng rng(3);
  ArrivalProcess proc{WorkloadMixParams{}};
  bool saw_idle = false, saw_burst = false;
  for (int i = 0; i < 20000; ++i) {
    const double gap = proc.next_gap_s(rng);
    EXPECT_GT(gap, 0.0);
    if (proc.last_gap_was_idle()) {
      saw_idle = true;
      EXPECT_GE(gap, WorkloadMixParams{}.idle_scale_s);
    } else {
      saw_burst = true;
    }
  }
  EXPECT_TRUE(saw_idle);
  EXPECT_TRUE(saw_burst);
}

TEST(Arrivals, TraceSortedAndWithinDuration) {
  Rng rng(4);
  const auto trace = generate_trace(WorkloadMixParams{}, 8, 30.0, rng);
  EXPECT_FALSE(trace.empty());
  EXPECT_TRUE(std::is_sorted(trace.begin(), trace.end(),
                             [](const IoRequest& a, const IoRequest& b) {
                               return a.issue_time < b.issue_time;
                             }));
  for (const auto& r : trace) {
    EXPECT_LT(sim::to_seconds(r.issue_time), 30.0);
    EXPECT_LT(r.client, 8u);
  }
}

TEST(Checkpoint, RequiredBandwidthMatchesPaperSizing) {
  // 75% of 600 TB in 6 minutes -> 1.25 TB/s: the origin of the "1 TB/s"
  // Spider II requirement.
  CheckpointWorkload w{CheckpointParams{}};
  EXPECT_NEAR(w.required_bandwidth(360.0) / kTBps, 1.25, 0.01);
  EXPECT_EQ(w.bytes_per_checkpoint(), 450_TB);
}

TEST(Checkpoint, BurstsRoughlyPeriodic) {
  Rng rng(5);
  CheckpointParams p;
  p.period_s = 600.0;
  CheckpointWorkload w{p};
  const auto bursts = w.generate(6000.0, rng);
  ASSERT_GE(bursts.size(), 8u);
  for (std::size_t i = 1; i < bursts.size(); ++i) {
    const double gap = sim::to_seconds(bursts[i].start - bursts[i - 1].start);
    EXPECT_NEAR(gap, 600.0, 600.0 * p.period_jitter + 1.0);
  }
  for (const auto& b : bursts) {
    EXPECT_EQ(b.dir, block::IoDir::kWrite);
    EXPECT_EQ(b.clients, p.clients);
  }
}

TEST(Analytics, AllReadsWithBoundedSizes) {
  Rng rng(6);
  AnalyticsParams p;
  p.clients = 16;
  AnalyticsWorkload w{p};
  const auto trace = w.generate(20.0, rng);
  EXPECT_GT(trace.size(), 100u);
  for (const auto& r : trace) {
    EXPECT_EQ(r.dir, block::IoDir::kRead);
    EXPECT_GE(r.size, p.read_lo);
    EXPECT_LE(r.size, p.read_hi);
  }
}

TEST(Mixed, MergePreservesCountAndOrder) {
  Rng rng(7);
  auto a = generate_trace(WorkloadMixParams{}, 4, 10.0, rng);
  AnalyticsWorkload analytics{AnalyticsParams{}};
  auto b = analytics.generate(10.0, rng);
  const std::size_t total = a.size() + b.size();
  const auto merged = merge_traces({std::move(a), std::move(b)});
  EXPECT_EQ(merged.size(), total);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(),
                             [](const IoRequest& x, const IoRequest& y) {
                               return x.issue_time < y.issue_time;
                             }));
}

TEST(Mixed, TimelineConservesBytes) {
  std::vector<IoRequest> trace;
  for (int i = 0; i < 10; ++i) {
    IoRequest r;
    r.issue_time = sim::from_seconds(0.5 + i);
    r.size = 1_MB;
    trace.push_back(r);
  }
  const auto timeline = bandwidth_timeline(trace, 1.0, 12.0);
  double sum = 0.0;
  for (double b : timeline) sum += b;  // bin width 1 s -> sum == bytes
  EXPECT_NEAR(sum, 10e6, 1.0);
}

TEST(S3d, OutputVolumeAndSchedule) {
  Rng rng(8);
  S3dParams p;
  S3dWorkload w{p};
  EXPECT_EQ(w.bytes_per_output(),
            static_cast<Bytes>(p.ranks) * p.bytes_per_rank);
  const auto bursts = w.generate(3600.0, rng);
  EXPECT_NEAR(static_cast<double>(bursts.size()), 6.0, 1.0);
}

// --- characterization -----------------------------------------------------------

TEST(Characterize, RecoversPaperMix) {
  Rng rng(9);
  const auto trace = generate_trace(WorkloadMixParams{}, 32, 120.0, rng);
  const auto stats = characterize(trace);
  EXPECT_NEAR(stats.write_fraction, 0.60, 0.02);
  EXPECT_NEAR(stats.small_fraction, WorkloadMixParams{}.small_fraction, 0.03);
  EXPECT_NEAR(stats.small_fraction + stats.mb_multiple_fraction, 1.0, 0.03);
}

class HillEstimatorP : public ::testing::TestWithParam<double> {};

TEST_P(HillEstimatorP, RecoversParetoTailIndex) {
  const double alpha = GetParam();
  Rng rng(static_cast<std::uint64_t>(alpha * 1000));
  Pareto p(alpha, 1.0);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(p.sample(rng));
  const double est = hill_tail_index(samples, 2500);
  EXPECT_NEAR(est, alpha, 0.15 * alpha);
}

INSTANTIATE_TEST_SUITE_P(Alphas, HillEstimatorP,
                         ::testing::Values(0.9, 1.15, 1.35, 1.8, 2.5));

TEST(Characterize, EmptyTraceSafe) {
  const auto stats = characterize({});
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_DOUBLE_EQ(stats.write_fraction, 0.0);
}

// --- IOR -------------------------------------------------------------------------

TEST(IorCap, RampsAndPeaksAtRpcSize) {
  const Bandwidth stream = 600.0 * kMBps;
  const double tiny = transfer_size_rate_cap(4_KiB, stream);
  const double small = transfer_size_rate_cap(256_KiB, stream);
  const double mb = transfer_size_rate_cap(1_MiB, stream);
  const double big = transfer_size_rate_cap(16_MiB, stream);
  EXPECT_LT(tiny, 0.1 * mb);
  EXPECT_LT(small, mb);
  EXPECT_LT(big, mb);        // >1 MiB pays the alignment penalty...
  EXPECT_GT(big, 0.9 * mb);  // ...but only a small one
  EXPECT_DOUBLE_EQ(transfer_size_rate_cap(0, stream), 0.0);
}

/// Toy provider: N clients behind one shared link to N OST resources.
class ToyProvider : public IoPathProvider {
 public:
  ToyProvider(std::size_t clients, std::size_t osts, double link_bw,
              double ost_bw, double cap)
      : clients_(clients), cap_(cap) {
    link_ = solver_.add_resource("link", link_bw);
    for (std::size_t o = 0; o < osts; ++o) {
      osts_.push_back(solver_.add_resource("ost" + std::to_string(o), ost_bw));
    }
  }
  std::size_t max_clients() const override { return clients_; }
  std::size_t num_osts() const override { return osts_.size(); }
  void reset_flows() override { solver_.clear_flows(); }
  sim::SteadyStateSolver& solver() override { return solver_; }
  DataFlow data_flow(std::size_t, std::size_t ost, block::IoDir,
                     block::IoMode, Bytes) override {
    return DataFlow{{{link_, 1.0}, {osts_[ost], 1.0}}, cap_};
  }

 private:
  std::size_t clients_;
  double cap_;
  sim::SteadyStateSolver solver_;
  sim::ResourceId link_;
  std::vector<sim::ResourceId> osts_;
};

TEST(Ior, ScalesLinearlyThenPlateaus) {
  ToyProvider provider(1000, 100, /*link=*/500.0, /*ost=*/100.0, /*cap=*/10.0);
  IorConfig cfg;
  cfg.clients = 10;  // 10 x 10 = 100 < 500: client-limited
  auto r = run_ior(provider, cfg);
  EXPECT_NEAR(r.aggregate_bw, 100.0, 1e-6);
  cfg.clients = 200;  // 200 x 10 = 2000 > 500: link-limited
  r = run_ior(provider, cfg);
  EXPECT_NEAR(r.aggregate_bw, 500.0, 1e-6);
  EXPECT_EQ(r.bottleneck, "link");
  EXPECT_NEAR(r.mean_client_bw, 2.5, 1e-6);
}

TEST(Ior, BytesMovedScalesWithStonewall) {
  ToyProvider provider(10, 10, 1000.0, 100.0, 50.0);
  IorConfig cfg;
  cfg.clients = 10;
  cfg.stonewall_s = 30.0;
  const auto r = run_ior(provider, cfg);
  EXPECT_NEAR(static_cast<double>(r.bytes_moved), r.aggregate_bw * 30.0, 1.0);
}

}  // namespace
}  // namespace spider::workload
