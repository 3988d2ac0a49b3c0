// spiderlint output rendering: human text and machine JSON.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tools/lint/rules.hpp"

namespace spider::lint {

/// Aggregate result of a lint run.
struct LintReport {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  /// Per-phase wall time (milliseconds), reported by --stats: read+scan,
  /// the per-file rule pass, and the project-wide L5 include-graph pass.
  /// Not part of the JSON/SARIF renderings — timing is telemetry, not a
  /// finding.
  double scan_ms = 0.0;
  double rules_ms = 0.0;
  double global_ms = 0.0;
  std::size_t errors() const;
  std::size_t warnings() const;
  bool clean() const { return findings.empty(); }
};

/// gcc-style text: `file:line:col: severity: [Lx] message`, one per
/// finding, followed by a summary line. With `fix_hints`, each finding's
/// hint is printed indented underneath and a per-rule hint digest closes
/// the report.
std::string render_text(const LintReport& report, bool fix_hints);

/// Stable machine-readable JSON for CI:
/// {"version":1,"files_scanned":N,
///  "counts":{"error":E,"warning":W},
///  "findings":[{"rule","severity","file","line","column","message","hint"}]}
std::string render_json(const LintReport& report);

/// SARIF 2.1.0 for code-scanning UIs: one run, the full rule table under
/// tool.driver.rules, one result per finding with a physicalLocation
/// (artifactLocation.uri + region.startLine/startColumn). Paths are emitted
/// as given (relative when the lint was invoked with relative paths).
std::string render_sarif(const LintReport& report);

}  // namespace spider::lint
