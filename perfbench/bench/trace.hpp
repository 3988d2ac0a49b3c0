// Host-time instrumentation for the benchmark program.
//
// Everything here observes the library from outside: layer spans wrap the
// benchmark's own calls into each module, and the per-event recorders bind to
// the engines' existing observer hook (Simulator::set_observer). Every
// clock read in the benchmark goes through now() below, and no host time ever
// feeds a simulated value or a digest.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/flow_network.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace sim = spider::sim;

using Clock = std::chrono::steady_clock;  // spiderlint: nondet-ok

inline Clock::time_point now() { return Clock::now(); }  // spiderlint: nondet-ok

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What a DES event did, from the flow layer's point of view.
enum class EventKind : std::uint8_t { kArrival, kCompletion, kOther };

/// Spans of one traced iteration, kept in memory and written once, at exit,
/// as Chrome trace-event JSON (open it in Perfetto or chrome://tracing).
class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  /// A layer span, named after the module it timed ("core.center.build").
  void span(std::string name, Clock::time_point start, Clock::time_point end);
  /// Sum of the durations of every layer span called `name`.
  double total_s(std::string_view name) const;

  /// One executed DES event, attributed to its scheduling site.
  void event(EventKind kind, std::uint64_t site, Clock::time_point start,
             Clock::time_point end);

  /// Writes every layer span and the first kMaxEventSpansWritten event
  /// spans. Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

  /// Caps the file near 25 MB; center_shift's 139k events all fit.
  static constexpr std::size_t kMaxEventSpansWritten = 200000;

 private:
  struct LayerSpan {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
  };
  struct EventSpan {
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::uint64_t site = 0;
    EventKind kind = EventKind::kOther;
  };
  std::int64_t offset_ns(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<LayerSpan> layers_;
  std::vector<EventSpan> events_;
};

/// Records the layer span [start, now) when tracing; a null trace records
/// nothing. Returns now, so consecutive spans can chain.
inline Clock::time_point record(Trace* trace, const char* name,
                                Clock::time_point start) {
  const Clock::time_point end = now();
  if (trace != nullptr) trace->span(name, start, end);
  return end;
}

/// Scheduling-site hashes of the flow layer's two event kinds, learned by
/// running one probe request, one probe burst and one bare flow, so the
/// labels follow the library's code rather than hard-coded line numbers.
struct SiteLabels {
  std::uint64_t completion = 0;
  std::uint64_t request_arrival = 0;
  std::uint64_t burst_arrival = 0;

  EventKind kind_of(std::uint64_t site) const;
};

/// Flow-layer work of one traced DES run. Counts are deterministic.
struct FlowCounters {
  std::uint64_t arrival_events = 0;
  std::uint64_t completion_events = 0;
  std::uint64_t other_events = 0;
  double arrival_s = 0.0;
  double completion_s = 0.0;
  double other_s = 0.0;
  std::uint64_t flows_completed = 0;
  /// Active flows after each flow-layer event: the F of the re-solve it ran.
  std::uint64_t active_sum = 0;
  std::uint64_t active_max = 0;
  /// Longest event queue seen at a dispatch.
  std::uint64_t pending_peak = 0;
};

/// Observer for a serial Simulator hosting one FlowNetwork: one span per
/// event, from its dispatch to the next dispatch (or finish()). Bind it with
/// sim.set_observer(recorder); it must outlive the run.
class FlowEventRecorder {
 public:
  FlowEventRecorder(const sim::Simulator& sim, const sim::FlowNetwork& net,
                    const SiteLabels& labels, Trace& trace)
      : sim_(sim), net_(net), labels_(labels), trace_(trace) {}

  void operator()(sim::SimTime when, sim::EventId id, std::uint64_t site);
  /// Close the span of the last event; call after each Simulator::run.
  void finish();
  const FlowCounters& counters() const { return counters_; }

 private:
  void close(Clock::time_point end);

  const sim::Simulator& sim_;
  const sim::FlowNetwork& net_;
  const SiteLabels& labels_;
  Trace& trace_;
  FlowCounters counters_;
  bool open_ = false;
  EventKind kind_ = EventKind::kOther;
  std::uint64_t site_ = 0;
  std::size_t active_before_ = 0;
  Clock::time_point start_;
};

/// Observer for one shard of a ShardedSimulator: tracks the peak length of
/// that shard's event queue. Each instance is touched only by the lane that
/// runs its shard, and is cache-line aligned so lanes do not share lines.
struct alignas(64) QueueDepthProbe {
  const sim::Simulator* shard = nullptr;
  std::size_t peak = 0;

  void operator()(sim::SimTime, sim::EventId, std::uint64_t) {
    peak = std::max(peak, shard->pending_events());
  }
};

}  // namespace perfbench
