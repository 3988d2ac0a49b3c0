#include "sim/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "sim/flow_network.hpp"

namespace spider::sim {

namespace {

class LambdaOracle final : public Oracle {
 public:
  LambdaOracle(std::string name, OracleCheckFn check)
      : name_(std::move(name)), check_(std::move(check)) {}
  std::string_view name() const override { return name_; }
  void check(SimTime now, std::vector<OracleViolation>& out) override {
    check_(now, out);
  }

 private:
  std::string name_;
  OracleCheckFn check_;
};

class FlowConservationOracle final : public Oracle {
 public:
  explicit FlowConservationOracle(const FlowNetwork& net) : net_(net) {}

  std::string_view name() const override { return "flow-conservation"; }

  void check(SimTime now, std::vector<OracleViolation>& out) override {
    const std::size_t n = net_.resources();
    prev_served_.resize(n, 0.0);
    prev_capacity_.resize(n, 0.0);
    const double dt = to_seconds(now - prev_time_);
    // Relative slack: the solver works in doubles and the completion event
    // quantizes to whole nanoseconds.
    constexpr double kSlack = 1e-6;

    double capacity_sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const ResourceStats& stats = net_.stats(r);
      const double cap = net_.capacity(r);
      capacity_sum += cap;
      if (!(stats.current_load >= 0.0) || !(stats.current_load <= 1.0 + kSlack) ||
          !std::isfinite(stats.current_load)) {
        fire(out, now, net_.name(r),
             "utilization out of [0,1]: " + std::to_string(stats.current_load));
      }
      const double delta = stats.served - prev_served_[r];
      if (delta < -kSlack * (1.0 + prev_served_[r])) {
        fire(out, now, net_.name(r),
             "served work went backwards by " + std::to_string(-delta));
      }
      if (r < checked_) {
        // Resource existed at the previous sweep: accrue the capacity budget
        // using the larger window-edge capacity (sweeps align with capacity
        // edges; see header). The check is cumulative rather than per-window
        // because FlowNetwork integrates progress lazily — several windows'
        // worth of served work can land in one sweep interval.
        budget_[r] += std::max(prev_capacity_[r], cap) * std::max(dt, 0.0);
        if (stats.served > budget_[r] * (1.0 + kSlack) + kSlack) {
          std::ostringstream os;
          os << "served " << stats.served
             << " units against a cumulative capacity budget of " << budget_[r];
          fire(out, now, net_.name(r), os.str());
        }
      } else {
        // First sighting: grant capacity for the resource's whole lifetime so
        // far (it existed at most since t=0, and served work accrues lazily —
        // possibly after this sweep). Detection starts from here on.
        budget_.resize(n, 0.0);
        budget_[r] = std::max(stats.served, cap * to_seconds(now));
      }
      prev_served_[r] = stats.served;
      prev_capacity_[r] = cap;
    }
    if (net_.total_delivered() < prev_delivered_ - kSlack) {
      fire(out, now, "total",
           "total delivered volume went backwards: " +
               std::to_string(net_.total_delivered()) + " < " +
               std::to_string(prev_delivered_));
    }
    if (net_.aggregate_rate() > capacity_sum * (1.0 + kSlack) + kSlack) {
      std::ostringstream os;
      os << "aggregate rate " << net_.aggregate_rate()
         << " exceeds total capacity " << capacity_sum;
      fire(out, now, "total", os.str());
    }
    prev_delivered_ = net_.total_delivered();
    prev_time_ = now;
    checked_ = n;
  }

 private:
  void fire(std::vector<OracleViolation>& out, SimTime now,
            const std::string& resource, std::string detail) const {
    out.push_back(OracleViolation{std::string(name()), now,
                                  "resource '" + resource + "': " +
                                      std::move(detail)});
  }

  const FlowNetwork& net_;
  std::vector<double> prev_served_;
  std::vector<double> prev_capacity_;
  std::vector<double> budget_;  ///< cumulative ∫capacity·dt per resource
  double prev_delivered_ = 0.0;
  SimTime prev_time_ = 0;
  std::size_t checked_ = 0;  ///< resources seen at the previous sweep
};

}  // namespace

std::unique_ptr<Oracle> make_oracle(std::string name, OracleCheckFn check) {
  return std::make_unique<LambdaOracle>(std::move(name), std::move(check));
}

Oracle& OracleSuite::add(std::unique_ptr<Oracle> oracle) {
  oracles_.push_back(std::move(oracle));
  return *oracles_.back();
}

void OracleSuite::check_now() {
  const SimTime now = sim_.now();
  for (const auto& oracle : oracles_) oracle->check(now, violations_);
}

std::vector<OracleViolation> OracleSuite::recheck_now() {
  const SimTime now = sim_.now();
  std::vector<OracleViolation> found;
  for (const auto& oracle : oracles_) oracle->check(now, found);
  return found;
}

void OracleSuite::schedule_checks(SimTime interval, SimTime until, Site loc) {
  if (interval <= 0) throw std::invalid_argument("oracle interval must be > 0");
  const SimTime first = std::min(sim_.now() + interval, until);
  sim_.schedule_at(
      first, [this, interval, until, loc] { tick(interval, until, loc); },
      loc);
}

void OracleSuite::tick(SimTime interval, SimTime until, Site loc) {
  check_now();
  const SimTime next = sim_.now() + interval;
  if (sim_.now() >= until) return;
  sim_.schedule_at(
      std::min(next, until),
      [this, interval, until, loc] { tick(interval, until, loc); }, loc);
}

std::vector<std::string> OracleSuite::fired_oracles() const {
  std::vector<std::string> names;
  for (const OracleViolation& v : violations_) {
    bool seen = false;
    for (const std::string& n : names) {
      if (n == v.oracle) {
        seen = true;
        break;
      }
    }
    if (!seen) names.push_back(v.oracle);
  }
  return names;
}

std::string violations_json(const std::vector<OracleViolation>& violations) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"oracle\": \"";
    os << json_escape(violations[i].oracle);
    os << "\", \"at_s\": " << to_seconds(violations[i].at) << ", \"detail\": \"";
    os << json_escape(violations[i].detail);
    os << "\"}";
  }
  os << "]";
  return os.str();
}

std::unique_ptr<Oracle> make_flow_conservation_oracle(const FlowNetwork& net) {
  return std::make_unique<FlowConservationOracle>(net);
}

}  // namespace spider::sim
