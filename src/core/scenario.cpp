#include "core/scenario.hpp"

#include <memory>

namespace spider::core {

ScenarioRunner::ScenarioRunner(CenterModel& center, sim::Simulator& sim)
    : center_(center),
      sim_(sim),
      net_(sim),
      // No per-torus-link resources: see the fidelity note in scenario.hpp.
      map_(center.register_into(net_)) {}

void ScenarioRunner::submit_burst(const workload::IoBurst& burst,
                                  OstChooser ost_of,
                                  std::function<void(BurstOutcome)> done,
                                  std::size_t client_grouping,
                                  std::size_t client_base) {
  if (client_grouping == 0) client_grouping = 1;
  const std::size_t flows =
      (burst.clients + client_grouping - 1) / client_grouping;
  struct BurstState {
    std::size_t outstanding = 0;
    sim::SimTime start = 0;
    Bytes bytes = 0;
    std::function<void(BurstOutcome)> done;
  };
  auto state = std::make_shared<BurstState>();
  state->outstanding = flows;
  state->bytes = static_cast<Bytes>(burst.clients) * burst.bytes_per_client;
  state->done = std::move(done);

  sim_.schedule_at(burst.start, [this, burst, ost_of = std::move(ost_of),
                                 client_grouping, client_base, flows, state] {
    state->start = sim_.now();
    for (std::size_t f = 0; f < flows; ++f) {
      const std::size_t writer = f * client_grouping;
      const std::size_t group_size =
          std::min<std::size_t>(client_grouping, burst.clients - writer);
      auto df = center_.make_flow(map_, client_base + writer, ost_of(f),
                                  burst.dir, block::IoMode::kSequential,
                                  burst.request_size);
      sim::FlowDesc desc;
      desc.path = std::move(df.path);
      desc.size = static_cast<double>(burst.bytes_per_client) *
                  static_cast<double>(group_size);
      // Grouped clients share the flow: their individual caps add up.
      desc.rate_cap = df.rate_cap * static_cast<double>(group_size);
      desc.on_complete = [state](sim::FlowId, sim::SimTime now) {
        if (--state->outstanding == 0 && state->done) {
          BurstOutcome out;
          out.start = state->start;
          out.end = now;
          out.bytes = state->bytes;
          const double dt = sim::to_seconds(now - state->start);
          out.achieved_bw =
              dt > 0.0 ? static_cast<double>(state->bytes) / dt : 0.0;
          state->done(out);
        }
      };
      net_.start_flow(std::move(desc));
    }
  });
}

void ScenarioRunner::submit_requests(std::vector<workload::IoRequest> requests,
                                     OstChooser ost_of,
                                     std::vector<double>* latencies_s,
                                     std::size_t client_base) {
  for (auto& req : requests) {
    sim_.schedule_at(req.issue_time, [this, req, ost_of, latencies_s,
                                      client_base] {
      auto df = center_.make_flow(map_, client_base + req.client,
                                  ost_of(req.client), req.dir, req.mode,
                                  req.size);
      sim::FlowDesc desc;
      desc.path = std::move(df.path);
      desc.size = static_cast<double>(req.size);
      desc.rate_cap = df.rate_cap;
      const sim::SimTime issued = req.issue_time;
      desc.on_complete = [latencies_s, issued](sim::FlowId, sim::SimTime now) {
        if (latencies_s) {
          latencies_s->push_back(sim::to_seconds(now - issued));
        }
      };
      net_.start_flow(std::move(desc));
    });
  }
}

void ScenarioRunner::record_throughput(double bin_s, double duration_s,
                                       std::vector<double>* out) {
  // Real server-side logs report per-interval averages; approximate the
  // bin integral with several subsamples so short bursts are neither
  // missed nor overweighted.
  constexpr int kSubsamples = 8;
  const auto bins = static_cast<std::size_t>(duration_s / bin_s);
  auto acc = std::make_shared<std::vector<double>>();
  for (std::size_t b = 0; b < bins; ++b) {
    for (int s = 0; s < kSubsamples; ++s) {
      const double t =
          (static_cast<double>(b) + (s + 0.5) / kSubsamples) * bin_s;
      sim_.schedule_at(sim::from_seconds(t), [this, out, acc] {
        acc->push_back(net_.aggregate_rate());
        if (acc->size() == kSubsamples) {
          double mean = 0.0;
          for (double v : *acc) mean += v;
          out->push_back(mean / kSubsamples);
          acc->clear();
        }
      });
    }
  }
}

}  // namespace spider::core
