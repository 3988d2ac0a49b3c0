#include "block/sweep.hpp"

#include <algorithm>
#include <string>

#include "common/units.hpp"
#include "common/rng.hpp"

namespace spider::block {

namespace {

std::vector<FairLioConfig> expand(const SweepConfig& cfg) {
  std::vector<FairLioConfig> points;
  for (Bytes size : cfg.request_sizes) {
    for (unsigned qd : cfg.queue_depths) {
      for (double wf : cfg.write_fractions) {
        for (IoMode mode : cfg.modes) {
          FairLioConfig p;
          p.request_size = size;
          p.queue_depth = qd;
          p.write_fraction = wf;
          p.mode = mode;
          p.duration_s = cfg.duration_s;
          points.push_back(p);
        }
      }
    }
  }
  return points;
}

template <typename Target>
std::vector<SweepPoint> run_impl(const Target& target, const SweepConfig& cfg) {
  const auto configs = expand(cfg);
  std::vector<SweepPoint> out(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    // One stream per point, seeded by its index.
    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + i);
    out[i].config = configs[i];
    out[i].result = run_fairlio(target, configs[i], rng);
  }
  return out;
}

}  // namespace

std::vector<SweepPoint> run_sweep(const Disk& disk, const SweepConfig& cfg) {
  return run_impl(disk, cfg);
}

std::vector<SweepPoint> run_sweep(const Raid6Group& group,
                                  const SweepConfig& cfg) {
  return run_impl(group, cfg);
}

Table sweep_table(const std::vector<SweepPoint>& points, std::string title) {
  Table table(std::move(title));
  table.set_columns({"request", "qd", "write frac", "mode", "MB/s", "IOPS",
                     "mean ms", "p99 ms"});
  for (const auto& p : points) {
    const Bytes size = p.config.request_size;
    std::string label = size >= 1_MiB ? std::to_string(size / 1_MiB) + " MiB"
                                      : std::to_string(size / 1_KiB) + " KiB";
    table.add_row({std::move(label),
                   static_cast<std::int64_t>(p.config.queue_depth),
                   p.config.write_fraction,
                   std::string(p.config.mode == IoMode::kSequential ? "seq"
                                                                    : "rand"),
                   to_mbps(p.result.bandwidth), p.result.iops,
                   p.result.mean_latency_s * kMillisPerSecond,
                   p.result.p99_latency_s * kMillisPerSecond});
  }
  return table;
}

SweepSummary summarize_sweep(const std::vector<SweepPoint>& points) {
  SweepSummary summary;
  double seq_1m_read = 0.0;
  double rand_1m_read = 0.0;
  for (const auto& p : points) {
    if (p.config.mode == IoMode::kSequential) {
      summary.best_sequential = std::max(summary.best_sequential,
                                         p.result.bandwidth);
    } else {
      summary.best_random = std::max(summary.best_random, p.result.bandwidth);
    }
    summary.worst_p99_s = std::max(summary.worst_p99_s, p.result.p99_latency_s);
    if (p.config.request_size == 1_MiB && p.config.queue_depth == 1 &&
        p.config.write_fraction == 0.0) {
      if (p.config.mode == IoMode::kSequential) {
        seq_1m_read = p.result.bandwidth;
      } else {
        rand_1m_read = p.result.bandwidth;
      }
    }
  }
  if (seq_1m_read > 0.0) {
    summary.random_fraction_1mb = rand_1m_read / seq_1m_read;
  }
  return summary;
}

}  // namespace spider::block
