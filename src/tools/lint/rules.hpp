// spiderlint rules: project-specific determinism & unit-safety checks.
//
// The simulator's claims (fair-share splits, congestion envelopes, slow-disk
// culling distributions) are only meaningful if runs are reproducible.
// PR 1 made divergence observable (sim/replay.hpp); these rules make the
// usual sources of divergence unmergeable:
//
//   L1 unordered-iteration  (error)   no unordered_map/unordered_set in
//       sim-critical directories (src/sim, src/block, src/fs, src/net) or in
//       tests/bench: iteration order — and therefore float-sum order —
//       depends on hash/rehash history. Suppress: // spiderlint: ordered-ok
//   L2 nondet-source        (error)   no wall-clock or ambient randomness
//       anywhere in src/ (std::random_device, rand, time(), system_clock,
//       mt19937 outside common/rng). Suppress: // spiderlint: nondet-ok
//   L3 raw-unit-double      (warning) a raw `double` in a public header
//       whose name carries a unit (*_bytes, *_seconds, *_bw, latency*)
//       must use the units.hpp vocabulary types instead.
//       Suppress: // spiderlint: units-ok
//   L4 replay-site          (error)   bare schedule()/reschedule() entry
//       points must carry the scheduling site (a sim::Site or a site hash)
//       so replay divergence stays localizable.
//       Suppress: // spiderlint: site-ok
//   L5 layer-violation      (error)   the include graph must respect the
//       architectural layering common -> sim -> {block,fs,net} -> workload
//       -> core -> {tools,infra}: no upward includes, no cycles.
//       Suppress: // spiderlint: layer-ok
//   L7 schedule-site-flow   (error)   Simulator::schedule_at/schedule_in
//       default their sim::Site argument to the immediate caller;
//       calling them from a private/protected helper (or an anonymous-
//       namespace function) without forwarding an explicit site collapses
//       every event from that helper to one site. Thread the location from
//       the public entry point. Suppress: // spiderlint: flow-ok
//   L8 calibration-constant (warning) a bare numeric literal >= 1000 inside
//       a function body in src/{block,fs,net} is a bandwidth/latency/size
//       calibration constant; hoist it into a named constant in a config
//       header (or units.hpp) so provenance is greppable.
//       Suppress: // spiderlint: calib-ok
//
// Retired ids are never reused: L6 and L12 (the lock and pool-capture
// rules, now owned by the ThreadSanitizer `threaded` suite), L9-L11 (the
// shard rules) and L13-L16 were deleted because a run-time check owns each
// contract (docs/static-analysis.md#rule-audit).
//
// A suppression is a trailing comment on the flagged line, a comment-only
// line directly above, `// spiderlint-next-line: <token>` on the previous
// line, or `// spiderlint-file: <token>` anywhere in the file:
// `// spiderlint: <token> — <reason>`. Reasons are required by policy
// (docs/static-analysis.md), not by the tool.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lint/scan.hpp"

namespace spider::lint {

enum class Severity { kWarning, kError };

std::string_view to_string(Severity s);

/// One rule violation.
struct Finding {
  std::string rule;        ///< "L1".."L5", "L7" or "L8"
  Severity severity = Severity::kError;
  std::string file;
  std::size_t line = 0;    ///< 1-based
  std::size_t column = 0;  ///< 1-based
  std::string message;
  std::string hint;        ///< fix-it hint
};

/// Static metadata for one rule.
struct RuleInfo {
  std::string_view id;
  std::string_view name;
  Severity severity;
  std::string_view summary;
  std::string_view suppression;  ///< suppression token, e.g. "ordered-ok"
  std::string_view hint;
};

/// All rules, in id order.
const std::vector<RuleInfo>& rules();
/// Lookup by id ("L1"); nullptr when unknown.
const RuleInfo* rule(std::string_view id);

/// How a file is scoped for rule applicability.
struct FileClass {
  bool in_src = false;  ///< under src/: L2, L4, L7 apply
  bool sim_critical = false;  ///< under src/{sim,block,fs,net}: L1 applies
  bool is_header = false;     ///< *.hpp/*.h: L3 applies
  bool rng_home = false;      ///< src/common/rng.*: mt19937 exempt from L2
  bool calib_scope = false;   ///< under src/{block,fs,net}: L8 applies
  bool in_tests = false;      ///< under tests/: L1+L2 only
  bool in_bench = false;      ///< under bench/: L1+L2 only
};

/// Classify a path by its directory components and extension. The LAST
/// src/tests/bench component wins, so fixture trees like
/// tests/lint_fixtures/l5_layering/src/... classify as src.
FileClass classify_path(std::string_view path);

/// Run the per-file rules over one scanned file. `paired_header`,
/// when given, seeds L1's identifier tracking and L7's symbol index
/// (declaration access levels) with the file's own header.
std::vector<Finding> lint_file(const SourceFile& file, const FileClass& cls,
                               const SourceFile* paired_header = nullptr);

/// Run the project-wide rules (L5 layering: upward includes and cycles)
/// over a set of scanned files. Only files under a src/ component take part
/// (the include graph is keyed by include spelling).
std::vector<Finding> lint_project(const std::vector<SourceFile>& files);

}  // namespace spider::lint
