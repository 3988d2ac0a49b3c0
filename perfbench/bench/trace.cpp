#include "trace.hpp"

#include <cinttypes>
#include <cstdio>

namespace perfbench {
namespace {

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kArrival:
      return "request-arrival";
    case EventKind::kCompletion:
      return "flow-completion";
    case EventKind::kOther:
      break;
  }
  return "other";
}

}  // namespace

std::int64_t Trace::offset_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

void Trace::span(std::string name, Clock::time_point start,
                 Clock::time_point end) {
  layers_.push_back(LayerSpan{std::move(name), offset_ns(start),
                              offset_ns(end) - offset_ns(start)});
}

double Trace::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const LayerSpan& s : layers_) {
    if (s.name == name) ns += s.dur_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void Trace::event(EventKind kind, std::uint64_t site, Clock::time_point start,
                  Clock::time_point end) {
  events_.push_back(EventSpan{offset_ns(start),
                              offset_ns(end) - offset_ns(start), site, kind});
}

bool Trace::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  // Complete ("X") events, microsecond timestamps. Layer spans sit on
  // thread 1, DES events on thread 2 so Perfetto draws them as two tracks.
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(out,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"layers\"}},\n"
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
               "\"args\":{\"name\":\"des events\"}}");
  for (const LayerSpan& s : layers_) {
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                 s.name.c_str(), static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.dur_ns) * 1e-3);
  }
  const std::size_t written = std::min(events_.size(), kMaxEventSpansWritten);
  for (std::size_t i = 0; i < written; ++i) {
    const EventSpan& e = events_[i];
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":2,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"site\":\"0x%016" PRIx64 "\"}}",
                 kind_name(e.kind), static_cast<double>(e.start_ns) * 1e-3,
                 static_cast<double>(e.dur_ns) * 1e-3, e.site);
  }
  std::fprintf(out,
               "\n],\"otherData\":{\"event_spans\":%zu,"
               "\"event_spans_written\":%zu}}\n",
               events_.size(), written);
  return std::fclose(out) == 0;
}

EventKind SiteLabels::kind_of(std::uint64_t site) const {
  if (site == completion) return EventKind::kCompletion;
  if (site == request_arrival || site == burst_arrival) {
    return EventKind::kArrival;
  }
  return EventKind::kOther;
}

void FlowEventRecorder::operator()(sim::SimTime, sim::EventId,
                                   std::uint64_t site) {
  const Clock::time_point t = now();
  close(t);
  open_ = true;
  kind_ = labels_.kind_of(site);
  site_ = site;
  active_before_ = net_.active_flows();
  counters_.pending_peak =
      std::max<std::uint64_t>(counters_.pending_peak, sim_.pending_events());
  start_ = t;
}

void FlowEventRecorder::finish() { close(now()); }

void FlowEventRecorder::close(Clock::time_point end) {
  if (!open_) return;
  open_ = false;
  const double dt = seconds_between(start_, end);
  const std::size_t active = net_.active_flows();
  switch (kind_) {
    case EventKind::kArrival:
      ++counters_.arrival_events;
      counters_.arrival_s += dt;
      break;
    case EventKind::kCompletion:
      // Completion callbacks in these workloads start no flows, so the
      // drop in active flows is the number this event finished.
      ++counters_.completion_events;
      counters_.completion_s += dt;
      if (active_before_ > active) {
        counters_.flows_completed += active_before_ - active;
      }
      break;
    case EventKind::kOther:
      ++counters_.other_events;
      counters_.other_s += dt;
      break;
  }
  if (kind_ != EventKind::kOther) {
    counters_.active_sum += active;
    counters_.active_max = std::max<std::uint64_t>(counters_.active_max, active);
  }
  trace_.event(kind_, site_, start_, end);
}

}  // namespace perfbench
