// Monitoring stack: Lustre Health Checker, Nagios-style checks, and the
// DDN controller poller (Section IV-A "Monitoring", Lesson 8).
//
// Three pieces the paper describes:
//  - Lustre Health Checker: "a coherent collection of associated errors
//    from a Lustre failure condition", coalescing raw events into
//    incidents and discriminating hardware events from Lustre software
//    issues.
//  - Nagios-style checks: pluggable check functions with OK/WARNING/
//    CRITICAL results run on a schedule.
//  - DDN Tool: "polls each controller for various pieces of information
//    (e.g. I/O request sizes, write and read bandwidths) at regular rates
//    and stores this information in a MySQL database" — modelled as a
//    time-series store with the standardized queries admins use.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/time.hpp"

namespace spider::tools {

enum class EventSource { kLustre, kHardware, kNetwork };
enum class Severity { kInfo, kWarning, kCritical };

struct HealthEvent {
  sim::SimTime time = 0;
  EventSource source = EventSource::kLustre;
  Severity severity = Severity::kInfo;
  std::string component;  ///< e.g. "oss017", "ib-leaf-12", "ost0421"
  std::string message;
};

/// A coalesced failure condition: events on the same component within the
/// coalescing window.
struct Incident {
  sim::SimTime first = 0;
  sim::SimTime last = 0;
  std::string component;
  std::vector<HealthEvent> events;
  bool hardware_related = false;
  Severity worst = Severity::kInfo;
};

class HealthMonitor {
 public:
  void ingest(HealthEvent ev);

  /// Coalesce ingested events into incidents: same component, gaps below
  /// `window`. An incident is hardware_related when any member event came
  /// from kHardware — the discrimination Lesson 8 calls out.
  std::vector<Incident> coalesce(sim::SimTime window) const;

 private:
  std::vector<HealthEvent> events_;
};

// --- Nagios-style check framework ------------------------------------------

enum class CheckStatus { kOk, kWarning, kCritical };

struct CheckResult {
  CheckStatus status = CheckStatus::kOk;
  std::string detail;
};

struct Check {
  std::string name;
  std::function<CheckResult()> probe;
};

class CheckScheduler {
 public:
  void add_check(Check check);
  std::size_t checks() const { return checks_.size(); }

  struct Report {
    std::size_t ok = 0;
    std::size_t warning = 0;
    std::size_t critical = 0;
    std::vector<std::pair<std::string, CheckResult>> failing;
  };
  /// Run every check once.
  Report run_all() const;

 private:
  std::vector<Check> checks_;
};

// --- DDN tool: controller telemetry store -----------------------------------

struct ControllerSample {
  sim::SimTime time = 0;
  std::uint32_t controller = 0;
  Bandwidth read_bw = 0.0;
  Bandwidth write_bw = 0.0;
  Bytes avg_request_size = 0;
};

class DdnPoller {
 public:
  explicit DdnPoller(std::size_t retention = 100'000) : retention_(retention) {}

  void record(ControllerSample sample);
  std::size_t samples() const { return samples_.size(); }

  /// Standardized queries (the "reports" admins pull from the database).
  Bandwidth mean_write_bw(std::uint32_t controller, sim::SimTime since) const;
  Bandwidth mean_read_bw(std::uint32_t controller, sim::SimTime since) const;
  Bandwidth peak_total_bw(sim::SimTime since) const;

 private:
  std::deque<ControllerSample> samples_;
  std::size_t retention_;
};

}  // namespace spider::tools
