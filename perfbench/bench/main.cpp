// Benchmark program: runs one workload for a time budget and prints one JSON
// result line. ../run.py builds it and calls it once per benchmark run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
//
// --trace 0 runs untraced iterations and reports the end-to-end metrics.
// --trace 1 spends half the budget untraced and half traced, and reports
// the per-layer metrics; PATH receives the first traced iteration's spans
// as Chrome trace-event JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the end_to_end and per_layer metrics of BENCHMARK.json;
// run.py refuses a result whose names differ.
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"check_pass_rate", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.center.build_s", "s"},
    {"core.center.register_s", "s"},
    {"core.center.resources", "count"},
    {"core.scenario.submit_s", "s"},
    {"core.scenario.flows_built", "count"},
    {"workload.generate_s", "s"},
    {"workload.characterize_s", "s"},
    {"workload.requests", "count"},
    {"sim.flow.arrival_events", "count"},
    {"sim.flow.arrival_s", "s"},
    {"sim.flow.completion_events", "count"},
    {"sim.flow.completion_s", "s"},
    {"sim.flow.us_per_event", "us"},
    {"sim.flow.flows_completed", "count"},
    {"sim.flow.completion_yield", "ratio"},
    {"sim.flow.active_flows_mean", "count"},
    {"sim.flow.active_flows_max", "count"},
    {"sim.flow.capacity_changes", "count"},
    {"sim.other_events", "count"},
    {"sim.other_s", "s"},
    {"sim.engine.events", "count"},
    {"sim.engine.run_s", "s"},
    {"sim.engine.ns_per_event", "ns"},
    {"sim.engine.pending_peak", "count"},
    {"sim.sharded.epochs", "count"},
    {"sim.sharded.cross_messages", "count"},
    {"sim.sharded.events_per_epoch", "count"},
    {"sim.sharded.epoch_us", "us"},
    {"sim.sharded.shard_imbalance", "ratio"},
    {"sim.sharded.lanes", "count"},
    {"tools.analysis_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Fewest timed iterations a --trace 0 run makes, whatever the budget.
constexpr std::size_t kMinIterations = 3;
/// Fewest set-up samples behind the reported setup_s median.
constexpr std::size_t kMinSetupSamples = 21;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Checks each iteration against the pinned digest and against the first
/// value seen of its digest and of every deterministic counter.
class Verifier {
 public:
  Verifier(const Workload& workload, std::uint64_t seed)
      : workload_(workload), seed_(seed) {}

  std::vector<std::string> verify(const Outcome& o) {
    std::vector<std::string> failures = o.failed;
    if (!digest_) digest_ = o.digest;
    if (o.digest != *digest_) {
      failures.emplace_back("output digest changed between iterations");
    }
    if (seed_ == kPinnedSeed && o.digest != workload_.pinned_digest) {
      failures.emplace_back("output digest differs from the pinned value");
    }
    for (const auto& [name, value] : o.counts) {
      const auto [it, first] = counts_.emplace(name, value);
      if (!first && it->second != value) {
        failures.push_back("count " + name + " changed between iterations");
      }
    }
    return failures;
  }

 private:
  const Workload& workload_;
  std::uint64_t seed_;
  std::optional<std::uint64_t> digest_;
  std::map<std::string, double> counts_;
};

struct Run {
  std::vector<Outcome> untraced;
  std::vector<Outcome> traced;
  std::unique_ptr<Trace> first_trace;
  std::size_t failed = 0;
};

/// Runs iterations until `budget_s` from `start` would be overrun by one
/// more (judged by the last one's length), making at least `min_runs`.
void iterate(const Workload& w, std::uint64_t seed, bool traced,
             Clock::time_point start, double budget_s, std::size_t min_runs,
             Verifier& verifier, Run& run) {
  std::vector<Outcome>& into = traced ? run.traced : run.untraced;
  for (std::size_t i = 0;; ++i) {
    const Clock::time_point it_start = now();
    auto trace = traced ? std::make_unique<Trace>(it_start) : nullptr;
    RunOptions opt;
    opt.seed = seed;
    opt.trace = trace.get();
    Outcome o = w.run(opt);
    const std::vector<std::string> failures = verifier.verify(o);
    std::fprintf(stderr,
                 "%s %s iteration %zu: setup %.6f s, wall %.6f s, digest "
                 "0x%016llx%s\n",
                 w.name, traced ? "traced" : "untraced", i, o.setup_s,
                 o.wall_s, static_cast<unsigned long long>(o.digest),
                 failures.empty() ? "" : " FAILED");
    if (o.replay_hash != 0) {
      std::fprintf(stderr, "  merged replay stream hash 0x%016llx\n",
                   static_cast<unsigned long long>(o.replay_hash));
    }
    for (const std::string& f : failures) {
      std::fprintf(stderr, "  [FAIL] %s\n", f.c_str());
    }
    if (!failures.empty()) ++run.failed;
    if (trace && !run.first_trace) run.first_trace = std::move(trace);
    into.push_back(std::move(o));
    const Clock::time_point it_end = now();
    const double next_end = seconds_between(start, it_end) +
                            seconds_between(it_start, it_end);
    if (into.size() >= min_runs && next_end > budget_s) break;
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(const Run& run, const std::map<std::string, double>& values,
                  const MetricSpec* specs, std::size_t n_specs) {
  const std::size_t attempted = run.untraced.size() + run.traced.size();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              run.failed == 0 ? "true" : "false", attempted, run.failed);
  for (std::size_t i = 0; i < n_specs; ++i) {
    const auto it = values.find(specs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, v, specs[i].unit);
  }
  std::printf("}}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string trace_out;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 0.0;
  int trace_mode = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace_mode = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !(seconds > 0.0) ||
      (trace_mode != 0 && trace_mode != 1)) {
    return usage(argv[0]);
  }
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return usage(argv[0]);
  }

  Verifier verifier(*workload, seed);
  Run run;
  const Clock::time_point start = now();
  if (trace_mode == 0) {
    iterate(*workload, seed, false, start, seconds, kMinIterations, verifier,
            run);
    std::vector<double> setups;
    std::vector<double> walls;
    for (const Outcome& o : run.untraced) {
      setups.push_back(o.setup_s);
      walls.push_back(o.wall_s);
    }
    RunOptions setup_only;
    setup_only.seed = seed;
    setup_only.setup_only = true;
    while (setups.size() < kMinSetupSamples) {
      setups.push_back(workload->run(setup_only).setup_s);
    }
    const std::size_t attempted = run.untraced.size();
    print_result(
        run,
        {{"wall_s", median(walls)},
         {"setup_s", median(setups)},
         {"peak_rss_mb", peak_rss_mb()},
         {"check_pass_rate",
          static_cast<double>(attempted - run.failed) /
              static_cast<double>(attempted)}},
        kEndToEnd, std::size(kEndToEnd));
    return 0;
  }

  iterate(*workload, seed, false, start, 0.5 * seconds, 1, verifier, run);
  iterate(*workload, seed, true, start, seconds, 1, verifier, run);
  std::map<std::string, double> values = run.traced.front().counts;
  std::map<std::string, std::vector<double>> times;
  std::vector<double> traced_walls;
  for (const Outcome& o : run.traced) {
    for (const auto& [name, v] : o.times) times[name].push_back(v);
    traced_walls.push_back(o.wall_s);
  }
  for (const auto& [name, samples] : times) values[name] = median(samples);
  std::vector<double> untraced_walls;
  for (const Outcome& o : run.untraced) untraced_walls.push_back(o.wall_s);
  values["trace.overhead_s"] = median(traced_walls) - median(untraced_walls);
  if (!trace_out.empty() &&
      !run.first_trace->write_chrome_json(trace_out)) {
    std::fprintf(stderr, "cannot write trace to '%s'\n", trace_out.c_str());
    return 1;
  }
  print_result(run, values, kPerLayer, std::size(kPerLayer));
  return 0;
}
