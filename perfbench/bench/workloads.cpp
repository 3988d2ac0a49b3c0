#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/center.hpp"
#include "core/scale_scenario.hpp"
#include "core/scenario.hpp"
#include "core/spider_config.hpp"
#include "net/fabric.hpp"
#include "sim/sharded_sim.hpp"
#include "tools/health.hpp"
#include "tools/iosi.hpp"
#include "tools/standard_checks.hpp"
#include "workload/analytics.hpp"
#include "workload/arrivals.hpp"
#include "workload/characterize.hpp"
#include "workload/s3d.hpp"

namespace perfbench {
namespace {

using namespace spider;

/// The simulated center is the system under test, not an input: it is
/// built from the same fixed seed the paper benches use, whatever --seed.
constexpr std::uint64_t kCenterSeed = 2014;
constexpr double kCenterScale = 0.1;

/// FNV-1a over the bytes of each folded word.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

void check(Outcome& out, bool ok, const char* what) {
  if (!ok) out.failed.emplace_back(what);
}

double count(std::uint64_t n) { return static_cast<double>(n); }

std::unique_ptr<core::CenterModel> build_center() {
  Rng rng(kCenterSeed);
  auto center = std::make_unique<core::CenterModel>(
      core::scaled_config(core::spider2_config(), kCenterScale), rng);
  center->set_client_placement(core::ClientPlacement::kRandom, rng);
  return center;
}

/// Wraps an OST chooser so every flow the scenario builds is counted.
core::ScenarioRunner::OstChooser counting(std::uint64_t* built,
                                          core::ScenarioRunner::OstChooser f) {
  return [built, f = std::move(f)](std::size_t i) {
    ++*built;
    return f(i);
  };
}

/// Records the site of the first event a run executes.
struct FirstSite {
  std::uint64_t site = 0;
  bool seen = false;
  void operator()(sim::SimTime, sim::EventId, std::uint64_t s) {
    if (!seen) site = s;
    seen = true;
  }
};

SiteLabels probe_site_labels() {
  SiteLabels labels;
  {
    sim::Simulator sim;
    sim::FlowNetwork net(sim);
    sim::FlowDesc desc;
    desc.path = {sim::PathHop{net.add_resource("probe", 1.0)}};
    desc.size = 1.0;
    net.start_flow(std::move(desc));
    FirstSite first;
    sim.set_observer(first);
    sim.run();
    labels.completion = first.site;
  }
  const std::unique_ptr<core::CenterModel> center = build_center();
  {
    sim::Simulator sim;
    core::ScenarioRunner runner(*center, sim);
    workload::IoRequest req;
    req.size = 1_MiB;
    runner.submit_requests({req}, [](std::size_t) { return std::size_t{0}; }, nullptr);
    FirstSite first;
    sim.set_observer(first);
    sim.run();
    labels.request_arrival = first.site;
  }
  {
    sim::Simulator sim;
    core::ScenarioRunner runner(*center, sim);
    workload::IoBurst burst;
    burst.clients = 1;
    burst.bytes_per_client = 1_MiB;
    runner.submit_burst(burst, [](std::size_t) { return std::size_t{0}; }, nullptr);
    FirstSite first;
    sim.set_observer(first);
    sim.run();
    labels.burst_arrival = first.site;
  }
  return labels;
}

const SiteLabels& site_labels() {
  static const SiteLabels labels = probe_site_labels();
  return labels;
}

/// Fills the per-layer metrics of a traced DES iteration, and checks that
/// every flow the scenario built ran to completion.
void add_traced_des_metrics(Outcome& out, const FlowEventRecorder& events,
                            const Trace& trace, const sim::Simulator& sim,
                            std::uint64_t flows_built) {
  const FlowCounters& c = events.counters();
  check(out, c.flows_completed == flows_built,
        "every flow the scenario built completed");
  const std::uint64_t flow_events = c.arrival_events + c.completion_events;
  out.counts["sim.flow.arrival_events"] = count(c.arrival_events);
  out.counts["sim.flow.completion_events"] = count(c.completion_events);
  out.counts["sim.flow.flows_completed"] = count(c.flows_completed);
  out.counts["sim.flow.completion_yield"] =
      c.completion_events > 0
          ? count(c.flows_completed) / count(c.completion_events)
          : 0.0;
  out.counts["sim.flow.active_flows_mean"] =
      flow_events > 0 ? count(c.active_sum) / count(flow_events) : 0.0;
  out.counts["sim.flow.active_flows_max"] = count(c.active_max);
  out.counts["sim.other_events"] = count(c.other_events);
  out.counts["sim.engine.pending_peak"] = count(c.pending_peak);
  out.times["sim.flow.arrival_s"] = c.arrival_s;
  out.times["sim.flow.completion_s"] = c.completion_s;
  out.times["sim.flow.us_per_event"] =
      flow_events > 0 ? (c.arrival_s + c.completion_s) * 1e6 / count(flow_events)
                      : 0.0;
  out.times["sim.other_s"] = c.other_s;
  const double run_s = trace.total_s("sim.engine.run");
  out.times["sim.engine.run_s"] = run_s;
  out.times["sim.engine.ns_per_event"] =
      run_s * 1e9 / count(sim.executed_events());
  out.times["core.center.build_s"] = trace.total_s("core.center.build");
  out.times["core.center.register_s"] = trace.total_s("core.center.register");
  out.times["core.scenario.submit_s"] = trace.total_s("core.scenario.submit");
  out.times["workload.generate_s"] = trace.total_s("workload.generate");
}

// --- interference: C16 contended case --------------------------------------

struct AnalyticsResult {
  std::size_t served = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

AnalyticsResult summarize(const std::vector<double>& latencies) {
  AnalyticsResult r;
  r.served = latencies.size();
  if (!latencies.empty()) {
    r.mean = mean_of(latencies);
    r.p50 = percentile(latencies, 50.0);
    r.p99 = percentile(latencies, 99.0);
  }
  return r;
}

std::vector<workload::IoRequest> analytics_requests(std::uint64_t seed) {
  workload::AnalyticsParams ap;
  ap.clients = 16;
  Rng rng = Rng(seed).fork(1);
  return workload::AnalyticsWorkload(ap).generate(60.0, rng);
}

std::size_t analytics_ost(std::size_t client) { return client % 8; }

/// The analytics stream alone on a fresh center, run once per seed and
/// outside every timed region: the reference for the contention checks.
const AnalyticsResult& quiet_reference(std::uint64_t seed) {
  static std::map<std::uint64_t, AnalyticsResult> cache;
  auto it = cache.find(seed);
  if (it == cache.end()) {
    const std::unique_ptr<core::CenterModel> center = build_center();
    sim::Simulator sim;
    core::ScenarioRunner runner(*center, sim);
    std::vector<double> latencies;
    runner.submit_requests(analytics_requests(seed), analytics_ost,
                           &latencies);
    sim.run();
    it = cache.emplace(seed, summarize(latencies)).first;
  }
  return it->second;
}

Outcome run_interference(const RunOptions& opt) {
  Outcome out;
  Trace* trace = opt.trace;
  const Clock::time_point t0 = now();
  const std::unique_ptr<core::CenterModel> owned_center = build_center();
  core::CenterModel& center = *owned_center;
  Clock::time_point t = record(trace, "core.center.build", t0);
  sim::Simulator sim;
  core::ScenarioRunner runner(center, sim);
  t = record(trace, "core.center.register", t);
  std::vector<workload::IoRequest> requests = analytics_requests(opt.seed);
  t = record(trace, "workload.generate", t);
  const std::size_t n_requests = requests.size();
  std::uint64_t flows_built = 0;
  std::vector<double> latencies;
  runner.submit_requests(std::move(requests),
                         counting(&flows_built, analytics_ost), &latencies);
  // The checkpoint lands on the analytics stream's 8 OSTs: 128 grouped
  // flows, so each OST's fair share drops below what one reader needs.
  workload::IoBurst burst;
  burst.start = 10 * sim::kSecond;
  burst.clients = 4096;
  burst.bytes_per_client = 512_MiB;
  std::optional<core::BurstOutcome> checkpoint;
  runner.submit_burst(
      burst, counting(&flows_built, [](std::size_t f) { return f % 8; }),
      [&checkpoint](core::BurstOutcome o) { checkpoint = o; }, 32, 100000);
  record(trace, "core.scenario.submit", t);
  out.setup_s = seconds_between(t0, now());
  if (opt.setup_only) return out;

  std::optional<FlowEventRecorder> events;
  if (trace != nullptr) {
    events.emplace(sim, runner.network(), site_labels(), *trace);
    sim.set_observer(*events);
  }
  const Clock::time_point run_start = now();
  sim.run();
  if (events) events->finish();
  record(trace, "sim.engine.run", run_start);
  out.wall_s = seconds_between(run_start, now());

  const AnalyticsResult contended = summarize(latencies);
  const double checkpoint_s =
      checkpoint ? sim::to_seconds(checkpoint->end - checkpoint->start) : 0.0;
  Digest d;
  d.add(static_cast<std::uint64_t>(contended.served));
  d.add(contended.p50);
  d.add(contended.p99);
  d.add(checkpoint_s);
  out.digest = d.value();

  // The paper's claim, checked against the same stream run alone (quiet):
  // checkpoint traffic hurts analytics responsiveness, the tail most.
  const AnalyticsResult& quiet = quiet_reference(opt.seed);
  check(out, contended.served == n_requests,
        "every analytics read completed");
  check(out, checkpoint.has_value() && checkpoint_s > 0.0,
        "the checkpoint burst completed");
  check(out, contended.p50 > 0.0 && contended.p99 >= contended.p50,
        "latency percentiles are ordered");
  check(out, contended.mean > 1.3 * quiet.mean,
        "checkpoint traffic visibly hurts analytics responsiveness");
  check(out, contended.p99 > 1.3 * quiet.p99,
        "tail latency suffers most under contention");

  out.counts["core.center.resources"] = count(runner.network().resources());
  out.counts["core.scenario.flows_built"] = count(flows_built);
  out.counts["workload.requests"] = count(n_requests);
  out.counts["sim.engine.events"] = count(sim.executed_events());
  if (events) add_traced_des_metrics(out, *events, *trace, sim, flows_built);
  return out;
}

// --- center_shift: S1 six-hour production shift ------------------------------

Outcome run_center_shift(const RunOptions& opt) {
  Outcome out;
  Trace* trace = opt.trace;
  constexpr double kShiftS = 6.0 * 3600.0;
  const Clock::time_point t0 = now();
  const std::unique_ptr<core::CenterModel> owned_center = build_center();
  core::CenterModel& center = *owned_center;
  Clock::time_point t = record(trace, "core.center.build", t0);
  sim::Simulator sim;
  core::ScenarioRunner runner(center, sim);
  t = record(trace, "core.center.register", t);

  // Two S3D checkpointers (40- and 10-minute cadence) and an analytics
  // stream whose 10 s think time keeps six hours tractable.
  workload::S3dParams app1;
  app1.ranks = 2048;
  app1.bytes_per_rank = 96_MiB;
  app1.output_interval_s = 2400.0;
  workload::S3dParams app2;
  app2.ranks = 512;
  app2.bytes_per_rank = 64_MiB;
  app2.output_interval_s = 600.0;
  Rng root(opt.seed);
  Rng app_rng = root.fork(1);
  std::vector<std::vector<workload::IoBurst>> app_bursts;
  for (const auto& params : {app1, app2}) {
    app_bursts.push_back(workload::S3dWorkload(params).generate(kShiftS, app_rng));
  }
  workload::AnalyticsParams ap;
  ap.clients = 16;
  ap.think_time_s = 10.0;
  Rng analytics_rng = root.fork(2);
  std::vector<workload::IoRequest> requests =
      workload::AnalyticsWorkload(ap).generate(kShiftS, analytics_rng);
  t = record(trace, "workload.generate", t);

  const std::size_t n_requests = requests.size();
  const std::size_t osts = center.total_osts();
  std::uint64_t flows_built = 0;
  std::size_t bursts_submitted = 0;
  std::size_t bursts_done = 0;
  Bytes bytes_delivered = 0;
  for (std::size_t app = 0; app < app_bursts.size(); ++app) {
    const std::size_t base = app * 53;
    for (const auto& burst : app_bursts[app]) {
      runner.submit_burst(
          burst,
          counting(&flows_built,
                   [base, osts](std::size_t f) { return (base + f) % osts; }),
          [&](core::BurstOutcome o) {
            ++bursts_done;
            bytes_delivered += o.bytes;
          },
          32, 20000 * (app + 1));
      ++bursts_submitted;
    }
  }
  std::vector<double> latencies;
  runner.submit_requests(
      std::move(requests),
      counting(&flows_built,
               [osts](std::size_t w) { return (w * 13) % osts; }),
      &latencies, 60000);

  // A RAID rebuild window at 1 h and a controller failover at 4 h, each a
  // capacity change the flow layer must re-solve around.
  tools::HealthMonitor monitor;
  std::uint64_t capacity_changes = 0;
  const core::ResourceMap& map = runner.map();
  sim.schedule_at(sim::from_seconds(3600.0), [&] {
    auto& group = center.ssu(1).group(7);
    group.fail_member(2);
    group.start_rebuild(2);
    const std::size_t ost = 1 * center.config().ssu.raid_groups + 7;
    runner.network().set_capacity(
        map.ost[ost], center.ost_at(ost).bandwidth(block::IoMode::kSequential,
                                                   block::IoDir::kWrite));
    ++capacity_changes;
    monitor.ingest({sim.now(), tools::EventSource::kHardware,
                    tools::Severity::kWarning, "ssu1-g7", "disk failed"});
  });
  sim.schedule_at(sim::from_seconds(4.0 * 3600.0), [&] {
    center.ssu(2).controller().fail_one();
    runner.network().set_capacity(map.controller[2],
                                  center.ssu(2).controller().delivered_bw());
    ++capacity_changes;
    monitor.ingest({sim.now(), tools::EventSource::kHardware,
                    tools::Severity::kCritical, "ssu2-ctrl", "failover"});
  });
  std::vector<double> log;
  runner.record_throughput(5.0, kShiftS, &log);
  record(trace, "core.scenario.submit", t);
  out.setup_s = seconds_between(t0, now());
  if (opt.setup_only) return out;

  std::optional<FlowEventRecorder> events;
  if (trace != nullptr) {
    events.emplace(sim, runner.network(), site_labels(), *trace);
    sim.set_observer(*events);
  }
  const Clock::time_point run_start = now();
  sim.run(sim::from_seconds(kShiftS));
  sim.run();  // drain whatever is still in flight
  if (events) events->finish();
  t = record(trace, "sim.engine.run", run_start);

  // Post-shift analysis: incident coalescing, the check battery, and IOSI
  // burst detection over the server-side throughput log.
  const auto incidents = monitor.coalesce(10 * sim::kMinute);
  tools::IbErrorCounters ib(8);
  const std::vector<double> mds_offered(center.filesystem().namespaces(), 5e3);
  const auto report =
      tools::make_standard_checks(center, ib, mds_offered).run_all();
  const auto detected = tools::detect_bursts(log, 5.0);
  record(trace, "tools.analysis", t);
  out.wall_s = seconds_between(run_start, now());

  const AnalyticsResult analytics = summarize(latencies);
  Digest d;
  d.add(static_cast<std::uint64_t>(bursts_done));
  d.add(static_cast<std::uint64_t>(bytes_delivered));
  d.add(static_cast<std::uint64_t>(analytics.served));
  d.add(analytics.mean);
  d.add(analytics.p99);
  d.add(static_cast<std::uint64_t>(incidents.size()));
  d.add(static_cast<std::uint64_t>(report.ok));
  d.add(static_cast<std::uint64_t>(report.warning));
  d.add(static_cast<std::uint64_t>(report.critical));
  d.add(static_cast<std::uint64_t>(detected.size()));
  out.digest = d.value();

  check(out, bursts_done == bursts_submitted && bursts_done >= 40,
        "both applications checkpointed all shift");
  check(out, static_cast<double>(bytes_delivered) > 2.5 * 1099511627776.0,
        "multiple terabytes of checkpoint data landed");
  check(out, analytics.served == n_requests && analytics.mean < 0.2,
        "interactive analytics stayed responsive through the mix");
  check(out, incidents.size() == 2,
        "monitoring coalesced exactly the two injected faults");
  check(out, report.warning + report.critical == 2,
        "check battery shows exactly the rebuild + failover");
  check(out, detected.size() >= 8,
        "server-side logs carry the big application's burst structure");

  out.counts["core.center.resources"] = count(runner.network().resources());
  out.counts["core.scenario.flows_built"] = count(flows_built);
  out.counts["workload.requests"] = count(n_requests);
  out.counts["sim.engine.events"] = count(sim.executed_events());
  out.counts["sim.flow.capacity_changes"] = count(capacity_changes);
  if (events) {
    add_traced_des_metrics(out, *events, *trace, sim, flows_built);
    out.times["tools.analysis_s"] = trace->total_s("tools.analysis");
  }
  return out;
}

// --- sharded_scale: ScaleScenario at 16x on 8 shards ------------------------

constexpr std::size_t kShards = 8;
constexpr sim::SimTime kScaleHorizon = 10 * sim::kSecond;
/// Site-free hash of the merged replay stream for kPinnedSeed.
constexpr std::uint64_t kPinnedStreamHash = 0x87a26b210563285dull;

core::ScaleParams scale_params(std::uint64_t seed) {
  core::ScaleParams params;
  params.scale = 16.0;
  params.seed = seed;
  return params;
}

sim::ShardedConfig engine_config(const net::IbFabric& fabric,
                                 const core::ScaleParams& params) {
  sim::ShardedConfig cfg;
  cfg.lookahead = core::ScaleScenario::required_lookahead(fabric, params);
  cfg.workers = 0;  // one lane per core, capped at the shard count
  return cfg;
}

bool same_totals(const core::ScaleTotals& a, const core::ScaleTotals& b) {
  return a.issued == b.issued && a.completed == b.completed &&
         a.remote_sent == b.remote_sent && a.remote_served == b.remote_served &&
         a.bytes_moved == b.bytes_moved;
}

Outcome run_sharded_scale(const RunOptions& opt) {
  Outcome out;
  Trace* trace = opt.trace;
  shared_pool();  // process-wide lanes exist before any timing starts
  const Clock::time_point t0 = now();
  const core::ScaleParams params = scale_params(opt.seed);
  const net::IbFabric fabric{net::FabricParams{}};
  sim::ShardedSimulator engine(kShards, engine_config(fabric, params));
  const sim::ShardMap map(params.zones, kShards);
  core::ScaleScenario scenario(params, fabric, engine, map);
  scenario.start();
  record(trace, "core.scale.start", t0);
  out.setup_s = seconds_between(t0, now());
  if (opt.setup_only) return out;

  std::vector<QueueDepthProbe> probes(kShards);
  if (trace != nullptr) {
    for (std::size_t s = 0; s < kShards; ++s) {
      probes[s].shard = &engine.shard(static_cast<sim::ShardId>(s));
      engine.shard(static_cast<sim::ShardId>(s)).set_observer(probes[s]);
    }
  }
  const Clock::time_point run_start = now();
  const std::uint64_t events = engine.run(kScaleHorizon);
  record(trace, "sim.engine.run", run_start);
  out.wall_s = seconds_between(run_start, now());

  const core::ScaleTotals totals = scenario.totals();
  Digest d;
  d.add(totals.issued);
  d.add(totals.completed);
  d.add(totals.remote_sent);
  d.add(totals.remote_served);
  d.add(totals.bytes_moved);
  out.digest = d.value();

  const std::size_t clients = params.zones * scenario.clients_per_zone();
  check(out, totals.completed > 0 && totals.completed <= totals.issued &&
                 totals.issued - totals.completed <= clients,
        "every client has at most one request outstanding");
  check(out, totals.remote_sent <= totals.completed / params.remote_every &&
                 totals.remote_served <= totals.remote_sent,
        "cross-zone transfers follow one per remote_every completions");
  check(out, events >= totals.issued + totals.completed + totals.remote_served,
        "every issue, completion and remote serve ran as an event");

  std::uint64_t busiest = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    busiest = std::max(
        busiest, engine.shard(static_cast<sim::ShardId>(s)).executed_events());
  }
  const double lanes = count(std::min(kShards, shared_pool().size() + 1));
  out.counts["sim.engine.events"] = count(events);
  out.counts["sim.sharded.epochs"] = count(engine.epochs());
  out.counts["sim.sharded.cross_messages"] = count(engine.cross_messages());
  out.counts["sim.sharded.events_per_epoch"] =
      engine.epochs() > 0 ? count(events) / count(engine.epochs()) : 0.0;
  out.counts["sim.sharded.shard_imbalance"] =
      events > 0 ? count(busiest) * count(kShards) / count(events) : 0.0;
  out.counts["sim.sharded.lanes"] = lanes;
  if (trace == nullptr) return out;

  std::size_t pending_peak = 0;
  for (const QueueDepthProbe& p : probes) {
    pending_peak = std::max(pending_peak, p.peak);
  }
  const double run_s = trace->total_s("sim.engine.run");
  out.counts["sim.engine.pending_peak"] = count(pending_peak);
  out.times["sim.engine.run_s"] = run_s;
  out.times["sim.engine.ns_per_event"] = run_s * 1e9 / count(events);
  out.times["sim.sharded.epoch_us"] = run_s * 1e6 / count(engine.epochs());

  // Replay check, outside the timed run: the same seed on a fresh engine
  // with a recorder on every shard must reproduce the totals, and for the
  // pinned seed the merged stream itself.
  const Clock::time_point replay_start = now();
  sim::ShardedSimulator replay_engine(kShards, engine_config(fabric, params));
  sim::ShardedReplay replay(replay_engine);
  core::ScaleScenario replay_scenario(params, fabric, replay_engine, map);
  replay_scenario.start();
  replay_engine.run(kScaleHorizon);
  const std::uint64_t stream_hash = replay.stream_hash();
  record(trace, "sim.sharded.replay_check", replay_start);
  check(out, same_totals(replay_scenario.totals(), totals) &&
                 replay.events_recorded() == events,
        "a recorded replay reproduces the run");
  if (opt.seed == kPinnedSeed) {
    check(out, stream_hash == kPinnedStreamHash,
          "merged replay stream matches the pinned hash");
  }
  out.replay_hash = stream_hash;
  return out;
}

// --- trace_mix: C4 Section II trace characterization -------------------------

constexpr std::uint32_t kTraceClients = 64;
constexpr double kTraceSeconds = 300.0;

Outcome run_trace_mix(const RunOptions& opt) {
  Outcome out;
  Trace* trace = opt.trace;
  const workload::WorkloadMixParams mix;
  // There is no center to build: set-up is deriving each client's generator
  // state (its forked stream, arrival process and the size model) from the
  // seed — the prologue generate_trace itself runs per client.
  const Clock::time_point t0 = now();
  const workload::RequestSizeModel sizes(mix);
  Rng seed_rng(opt.seed);
  std::vector<std::pair<Rng, workload::ArrivalProcess>> clients;
  clients.reserve(kTraceClients);
  for (std::uint32_t c = 0; c < kTraceClients; ++c) {
    clients.emplace_back(seed_rng.fork(c), workload::ArrivalProcess(mix));
  }
  out.setup_s = seconds_between(t0, now());
  if (opt.setup_only) return out;

  const Clock::time_point run_start = now();
  Rng rng(opt.seed);
  const std::vector<workload::IoRequest> requests =
      workload::generate_trace(mix, kTraceClients, kTraceSeconds, rng);
  Clock::time_point t = record(trace, "workload.generate", run_start);
  const workload::WorkloadStats stats = workload::characterize(requests);
  record(trace, "workload.characterize", t);
  out.wall_s = seconds_between(run_start, now());

  Digest d;
  d.add(static_cast<std::uint64_t>(stats.requests));
  d.add(stats.write_fraction);
  d.add(stats.small_fraction);
  d.add(stats.mb_multiple_fraction);
  d.add(stats.interarrival_tail_alpha);
  d.add(stats.idle_tail_alpha);
  const Log2Histogram& hist = stats.size_histogram;
  for (int e = hist.min_exp(); e < hist.max_exp(); ++e) {
    d.add(hist.count_for_exp(e));
  }
  out.digest = d.value();

  check(out, stats.requests == requests.size() && !requests.empty(),
        "every generated request was characterized");
  check(out, std::abs(stats.write_fraction - 0.60) < 0.02,
        "write fraction ~= 60% (paper: 60/40 mix)");
  check(out, stats.small_fraction + stats.mb_multiple_fraction > 0.97,
        "sizes are bimodal: small (<16 KB) or multiples of 1 MB");
  check(out, stats.interarrival_tail_alpha > 0.8 &&
                 stats.interarrival_tail_alpha < 2.5,
        "inter-arrival gaps show a Pareto-class heavy tail");
  check(out, stats.idle_tail_alpha > 0.8 && stats.idle_tail_alpha < 2.0,
        "idle periods show a Pareto-class heavy tail");

  out.counts["workload.requests"] = count(requests.size());
  if (trace != nullptr) {
    out.times["workload.generate_s"] = trace->total_s("workload.generate");
    out.times["workload.characterize_s"] =
        trace->total_s("workload.characterize");
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"interference", run_interference, 0x883c8a30a5497ec3ull},
      {"center_shift", run_center_shift, 0x56f57a4eb0ba481dull},
      {"sharded_scale", run_sharded_scale, 0xa7b91b049e92c44eull},
      {"trace_mix", run_trace_mix, 0x9529fccd0eb41020ull},
  };
  return all;
}

}  // namespace perfbench
