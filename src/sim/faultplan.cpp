#include "sim/faultplan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/parse.hpp"

namespace spider::sim {

namespace {

struct KindName {
  FaultKind kind;
  std::string_view name;
};
constexpr KindName kKindNames[] = {
    {FaultKind::kDiskFail, "disk-fail"},
    {FaultKind::kDiskPartial, "disk-partial"},
    {FaultKind::kSlowDiskOnset, "slow-disk-onset"},
    {FaultKind::kEnclosureLoss, "enclosure-loss"},
    {FaultKind::kControllerFailover, "controller-failover"},
    {FaultKind::kMdsStall, "mds-stall"},
    {FaultKind::kRouterDrop, "router-drop"},
    {FaultKind::kCongestionSpike, "congestion-spike"},
};

struct TriggerName {
  TriggerKind kind;
  std::string_view name;
};
constexpr TriggerName kTriggerNames[] = {
    {TriggerKind::kAtTime, "at-time"},
    {TriggerKind::kOnRebuildActive, "rebuild-active"},
    {TriggerKind::kOnFullnessAbove, "fullness-above"},
};

std::string strip(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

[[noreturn]] void parse_error(std::size_t line_no, const std::string& what) {
  std::ostringstream os;
  os << "fault plan line " << line_no << ": " << what;
  throw std::invalid_argument(os.str());
}

double parse_double(const std::string& value, std::size_t line_no) {
  double d = 0.0;
  if (!parse_finite(value, d)) {
    parse_error(line_no, "expected a finite number, got '" + value + "'");
  }
  return d;
}

/// A seconds value from_seconds() can convert (see seconds_in_range).
double parse_seconds(const std::string& value, std::size_t line_no) {
  const double d = parse_double(value, line_no);
  if (!seconds_in_range(d)) {
    parse_error(line_no, "seconds value '" + value + "' is out of range");
  }
  return d;
}

std::uint64_t parse_u64(const std::string& value, std::size_t line_no) {
  const double d = parse_double(value, line_no);
  if (d < 0.0 || d != std::floor(d) || d >= 0x1p64) {
    parse_error(line_no, "expected a non-negative integer, got '" + value + "'");
  }
  return static_cast<std::uint64_t>(d);
}

std::string unquote(const std::string& value) {
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
    return value.substr(1, value.size() - 2);
  }
  return value;
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  for (const auto& [k, n] : kKindNames) {
    if (k == kind) return n;
  }
  return "unknown";
}

FaultKind fault_kind_from_string(std::string_view text) {
  for (const auto& [k, n] : kKindNames) {
    if (n == text) return k;
  }
  throw std::invalid_argument("unknown fault kind: " + std::string(text));
}

std::string_view to_string(TriggerKind kind) {
  for (const auto& [k, n] : kTriggerNames) {
    if (k == kind) return n;
  }
  return "unknown";
}

TriggerKind trigger_kind_from_string(std::string_view text) {
  for (const auto& [k, n] : kTriggerNames) {
    if (n == text) return k;
  }
  throw std::invalid_argument("unknown trigger kind: " + std::string(text));
}

FaultPlan parse_fault_plan(const std::string& text) {
  FaultPlan plan;
  Injection* current = nullptr;
  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = strip(raw);
    if (line.empty()) continue;
    if (line == "[[inject]]") {
      plan.injections.emplace_back();
      current = &plan.injections.back();
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      parse_error(line_no, "expected 'key = value' or '[[inject]]'");
    }
    const std::string key = strip(line.substr(0, eq));
    const std::string value = unquote(strip(line.substr(eq + 1)));
    if (key.empty() || value.empty()) {
      parse_error(line_no, "empty key or value");
    }
    try {
      if (current == nullptr) {
        if (key == "name") {
          plan.name = value;
        } else if (key == "seed") {
          plan.seed = parse_u64(value, line_no);
        } else if (key == "horizon_s") {
          plan.horizon_s = parse_seconds(value, line_no);
        } else {
          parse_error(line_no, "unknown plan key '" + key + "'");
        }
        continue;
      }
      if (key == "kind") {
        current->kind = fault_kind_from_string(value);
      } else if (key == "trigger") {
        current->trigger = trigger_kind_from_string(value);
      } else if (key == "at_s") {
        current->at = from_seconds(parse_seconds(value, line_no));
      } else if (key == "duration_s") {
        current->duration = from_seconds(parse_seconds(value, line_no));
      } else if (key == "poll_s") {
        current->poll = from_seconds(parse_seconds(value, line_no));
      } else if (key == "group") {
        current->group = static_cast<std::uint32_t>(parse_u64(value, line_no));
      } else if (key == "member") {
        current->member = static_cast<std::uint32_t>(parse_u64(value, line_no));
      } else if (key == "enclosure") {
        current->enclosure =
            static_cast<std::uint32_t>(parse_u64(value, line_no));
      } else if (key == "resource") {
        current->resource =
            static_cast<std::uint32_t>(parse_u64(value, line_no));
      } else if (key == "magnitude") {
        current->magnitude = parse_double(value, line_no);
      } else if (key == "threshold") {
        current->threshold = parse_double(value, line_no);
      } else {
        parse_error(line_no, "unknown injection key '" + key + "'");
      }
    } catch (const std::invalid_argument& e) {
      // Re-tag kind/trigger vocabulary errors with the line number.
      const std::string what = e.what();
      if (what.rfind("fault plan line", 0) == 0) throw;
      parse_error(line_no, what);
    }
  }
  for (const Injection& inj : plan.injections) {
    if (inj.at < 0) throw std::invalid_argument("injection time must be >= 0");
    if (inj.poll <= 0) throw std::invalid_argument("poll cadence must be > 0");
  }
  return plan;
}

std::string to_plan_text(const FaultPlan& plan) {
  std::ostringstream os;
  os << "name = \"" << plan.name << "\"\n";
  os << "seed = " << plan.seed << "\n";
  os << "horizon_s = " << plan.horizon_s << "\n";
  for (const Injection& inj : plan.injections) {
    os << "[[inject]]\n";
    os << "kind = \"" << to_string(inj.kind) << "\"\n";
    if (inj.trigger != TriggerKind::kAtTime) {
      os << "trigger = \"" << to_string(inj.trigger) << "\"\n";
      os << "threshold = " << inj.threshold << "\n";
    }
    os << "at_s = " << to_seconds(inj.at) << "\n";
    if (inj.duration > 0) os << "duration_s = " << to_seconds(inj.duration) << "\n";
    if (inj.poll != kSecond) os << "poll_s = " << to_seconds(inj.poll) << "\n";
    os << "group = " << inj.group << "\n";
    os << "member = " << inj.member << "\n";
    os << "enclosure = " << inj.enclosure << "\n";
    os << "resource = " << inj.resource << "\n";
    os << "magnitude = " << inj.magnitude << "\n";
  }
  return os.str();
}

FaultPlan mutate_plan(const FaultPlan& base, const PlanBounds& bounds, Rng& rng) {
  FaultPlan out = base;
  out.name += "~mut";
  for (Injection& inj : out.injections) {
    // Jitter timing by up to ±25% (never negative) and magnitude by ±20%;
    // retarget within the bound target spaces. Each draw comes from the
    // caller's rng, so the mutant is a pure function of (plan, bounds, seed).
    inj.at = std::max<SimTime>(
        0, static_cast<SimTime>(static_cast<double>(inj.at) *
                                rng.uniform(0.75, 1.25)));
    if (inj.duration > 0) {
      inj.duration = std::max<SimTime>(
          kMillisecond, static_cast<SimTime>(static_cast<double>(inj.duration) *
                                             rng.uniform(0.75, 1.25)));
    }
    inj.magnitude = std::max(1.0, inj.magnitude * rng.uniform(0.8, 1.2));
    inj.group = static_cast<std::uint32_t>(
        rng.uniform_index(std::max<std::uint32_t>(1, bounds.groups)));
    inj.member = static_cast<std::uint32_t>(
        rng.uniform_index(std::max<std::uint32_t>(1, bounds.members)));
    inj.enclosure = static_cast<std::uint32_t>(
        rng.uniform_index(std::max<std::uint32_t>(1, bounds.enclosures)));
    inj.resource = static_cast<std::uint32_t>(
        rng.uniform_index(std::max<std::uint32_t>(1, bounds.resources)));
  }
  return out;
}

void FaultInjector::bind(FaultKind kind, ApplyFn apply, ApplyFn revert) {
  auto& b = bindings_[static_cast<std::size_t>(kind)];
  b.apply = std::move(apply);
  b.revert = std::move(revert);
}

void FaultInjector::bind_trigger(TriggerKind kind, PredicateFn predicate) {
  triggers_[static_cast<std::size_t>(kind)] = std::move(predicate);
}

bool FaultInjector::bound(FaultKind kind) const {
  return static_cast<bool>(bindings_[static_cast<std::size_t>(kind)].apply);
}

void FaultInjector::arm(const FaultPlan& plan, Site loc) {
  // Validate the whole plan before scheduling anything, so a throwing arm()
  // never leaves a half-armed plan behind.
  for (const Injection& inj : plan.injections) validate(inj);
  for (const Injection& inj : plan.injections) inject(inj, loc);
}

void FaultInjector::validate(const Injection& injection) const {
  if (!bound(injection.kind)) {
    throw std::logic_error("no binding for fault kind " +
                           std::string(to_string(injection.kind)));
  }
  if (injection.trigger != TriggerKind::kAtTime &&
      !triggers_[static_cast<std::size_t>(injection.trigger)]) {
    throw std::logic_error("no predicate bound for trigger " +
                           std::string(to_string(injection.trigger)));
  }
}

void FaultInjector::inject(const Injection& injection, Site loc) {
  validate(injection);
  const SimTime when = std::max(injection.at, sim_.now());
  if (injection.trigger == TriggerKind::kAtTime) {
    sim_.schedule_at(when, [this, injection, loc] { fire(injection, loc); },
                     loc);
  } else {
    sim_.schedule_at(when,
                     [this, injection, loc] { poll_trigger(injection, loc); },
                     loc);
  }
}

void FaultInjector::fire(const Injection& injection, Site loc) {
  const auto& binding = bindings_[static_cast<std::size_t>(injection.kind)];
  binding.apply(injection);
  log_.push_back(Fired{sim_.now(), injection.kind, /*revert=*/false});
  ++applies_;
  if (injection.duration > 0 && binding.revert) {
    sim_.schedule_in(
        injection.duration,
        [this, injection] {
          bindings_[static_cast<std::size_t>(injection.kind)].revert(injection);
          log_.push_back(Fired{sim_.now(), injection.kind, /*revert=*/true});
          ++reverts_;
        },
        loc);
  }
}

void FaultInjector::poll_trigger(Injection injection, Site loc) {
  const auto& predicate = triggers_[static_cast<std::size_t>(injection.trigger)];
  if (predicate(injection)) {
    fire(injection, loc);
    return;
  }
  sim_.schedule_in(injection.poll,
                   [this, injection, loc] { poll_trigger(injection, loc); },
                   loc);
}

}  // namespace spider::sim
