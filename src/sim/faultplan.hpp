// Declarative fault-injection plans compiled into Simulator events.
//
// The paper's hardest-won lessons are about failure behaviour — latent slow
// disks dragging RAID groups (Lesson 13), a RAID-6 rebuild colliding with an
// enclosure loss inside one failure domain (Lesson 11), controller
// failovers, congested LNET routers (Lesson 14). A `FaultPlan` describes
// such a scenario declaratively: a list of injections, each either timed
// (fire at `at`) or trigger-conditioned (poll a predicate from `at` until it
// holds). `FaultInjector` compiles the plan onto a Simulator, scheduling
// every injection — and its recovery, when `duration` is set — as ordinary
// events that carry replay sites, so a fault campaign is bit-reproducible
// under the deterministic-replay harness (sim/replay.hpp) and a violation is
// reproducible from its (plan, seed) pair alone.
//
// This layer is subsystem-agnostic: the injector knows *when* faults fire,
// while the binding layer (tools/faultcli/campaign.hpp) supplies *what* each
// FaultKind does to the cluster under test. Plans parse from a TOML-ish text
// format (see docs/fault-injection.md) and support seeded mutation so one
// scenario fans out into N randomized-but-reproducible variants.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace spider::sim {

/// What breaks. The binding layer maps each kind onto subsystem calls.
enum class FaultKind {
  kDiskFail,            ///< whole-disk failure in a RAID group (rebuild starts)
  kDiskPartial,         ///< partial media failure: member degrades sharply
  kSlowDiskOnset,       ///< latent slow-disk onset: member perf factor decays
  kEnclosureLoss,       ///< every group member in one enclosure drops out
  kControllerFailover,  ///< one controller of the pair fails over
  kMdsStall,            ///< metadata server stops serving ops
  kRouterDrop,          ///< LNET router path goes away (capacity -> 0)
  kCongestionSpike,     ///< router/link capacity divided by `magnitude`
};
inline constexpr std::size_t kFaultKindCount = 8;

std::string_view to_string(FaultKind kind);
/// Parse "disk-fail", "router-drop", ... Throws std::invalid_argument.
FaultKind fault_kind_from_string(std::string_view text);

/// When a conditioned injection may fire. kAtTime fires unconditionally at
/// `Injection::at`; the others poll from `at` every `poll` until true.
enum class TriggerKind {
  kAtTime,          ///< fire at `at`
  kOnRebuildActive, ///< fire once any RAID rebuild is in flight
  kOnFullnessAbove, ///< fire once namespace fullness exceeds `threshold`
};
inline constexpr std::size_t kTriggerKindCount = 3;

std::string_view to_string(TriggerKind kind);
TriggerKind trigger_kind_from_string(std::string_view text);

/// One fault to inject. Target fields are interpreted per kind (group/member
/// for disk faults, enclosure for enclosure loss, resource for network
/// faults); unused fields are ignored by the binding.
struct Injection {
  FaultKind kind = FaultKind::kDiskFail;
  TriggerKind trigger = TriggerKind::kAtTime;
  SimTime at = 0;        ///< fire time (or poll start, for triggered kinds)
  SimTime duration = 0;  ///< 0 = permanent; else revert fires `duration` later
  SimTime poll = kSecond;  ///< trigger poll cadence
  std::uint32_t group = 0;
  std::uint32_t member = 0;
  std::uint32_t enclosure = 0;
  std::uint32_t resource = 0;
  double magnitude = 2.0;   ///< slow factor / congestion divisor, per kind
  double threshold = 0.0;   ///< trigger threshold (e.g. fullness fraction)
};

/// A named campaign scenario.
struct FaultPlan {
  std::string name = "unnamed";
  std::uint64_t seed = 0;      ///< default seed when the runner gives none
  Seconds horizon_s = 600.0;   ///< simulated length of one campaign run
  std::vector<Injection> injections;
};

/// Parse the TOML-ish plan format:
///
///   name = "rebuild-then-enclosure"
///   horizon_s = 600
///   [[inject]]
///   kind = "disk-fail"
///   at_s = 10
///   group = 3
///   member = 1
///
/// Unknown keys and malformed lines throw std::invalid_argument with a
/// 1-based line number.
FaultPlan parse_fault_plan(const std::string& text);

/// Render a plan back into parseable text (round-trips through the parser).
std::string to_plan_text(const FaultPlan& plan);

/// Target-space bounds for plan mutation, supplied by the binding layer.
struct PlanBounds {
  std::uint32_t groups = 1;
  std::uint32_t members = 10;
  std::uint32_t enclosures = 10;
  std::uint32_t resources = 1;
};

/// Seeded plan mutation: jitters every injection's time and magnitude and
/// retargets group/member/enclosure/resource within `bounds`. Identical
/// (plan, bounds, rng state) yields an identical mutant, so a campaign's
/// randomized variants are reproducible from the run seed.
FaultPlan mutate_plan(const FaultPlan& base, const PlanBounds& bounds, Rng& rng);

/// Compiles plans into Simulator events. The binding layer registers one
/// apply (and optional revert) action per FaultKind and one predicate per
/// non-time TriggerKind; arm() then schedules every injection. All events
/// are scheduled through Simulator::schedule_at/schedule_in, so each
/// injection site lands in the replay stream.
class FaultInjector {
 public:
  using ApplyFn = std::function<void(const Injection&)>;
  using PredicateFn = std::function<bool(const Injection&)>;

  explicit FaultInjector(Simulator& sim) : sim_(sim) {}

  /// Register what `kind` does (and, optionally, how it recovers).
  void bind(FaultKind kind, ApplyFn apply, ApplyFn revert = nullptr);
  /// Register the predicate a trigger kind polls.
  void bind_trigger(TriggerKind kind, PredicateFn predicate);
  bool bound(FaultKind kind) const;

  /// Schedule every injection in the plan. Throws std::logic_error if an
  /// injection's kind (or trigger) has no binding.
  void arm(const FaultPlan& plan, Site loc = {});

  /// Schedule one injection. The captured Site is the replay site carried
  /// by the scheduled event(s).
  void inject(const Injection& injection, Site loc = {});

  /// One fired apply/revert, in firing order (the campaign log).
  struct Fired {
    SimTime at = 0;
    FaultKind kind = FaultKind::kDiskFail;
    bool revert = false;
  };
  const std::vector<Fired>& log() const { return log_; }
  std::size_t injections_fired() const { return applies_; }
  std::size_t reverts_fired() const { return reverts_; }

 private:
  struct Binding {
    ApplyFn apply;
    ApplyFn revert;
  };

  void validate(const Injection& injection) const;
  void fire(const Injection& injection, Site loc);
  void poll_trigger(Injection injection, Site loc);

  Simulator& sim_;
  Binding bindings_[kFaultKindCount];
  PredicateFn triggers_[kTriggerKindCount];
  std::vector<Fired> log_;
  std::size_t applies_ = 0;
  std::size_t reverts_ = 0;
};

}  // namespace spider::sim
