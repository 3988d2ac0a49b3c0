// Shared helpers for the reproduction benches.
//
// Every bench prints the paper's table/series through spider::Table and
// finishes with explicit shape checks ([PASS]/[FAIL]) against the paper's
// qualitative claims. A bench exits non-zero if any shape check fails.
//
// The benches that track a perf trajectory run through GatedRun: one argv
// parser, one baseline read, one regression gate, and a machine-readable
// JSON report via JsonReport, whose checked-in baselines are read back with
// json_number(). The JSON dialect is the minimal flat-ish subset those
// reports need — objects of named metric objects with numeric fields — not
// a general parser.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace spider::bench {

/// The one real clock under bench/: wall time is what a bench measures.
// spiderlint: nondet-ok — bench wall time never feeds a simulation
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class ShapeChecker {
 public:
  void check(bool ok, const std::string& label) {
    std::cout << (ok ? "[PASS] " : "[FAIL] ") << label << "\n";
    if (!ok) ++failures_;
  }
  int exit_code() const { return failures_ == 0 ? 0 : 1; }

 private:
  int failures_ = 0;
};

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Accumulates named metric groups and renders them as one pretty-printed
/// JSON object:
///
///   { "bench": "...", "mode": "...",
///     "metrics": { "<group>": { "<field>": <number>, ... }, ... } }
///
/// Field order is insertion order, so reports diff cleanly across runs.
class JsonReport {
 public:
  JsonReport(std::string bench, std::string mode)
      : bench_(std::move(bench)), mode_(std::move(mode)) {}

  void add(const std::string& group, const std::string& field, double value) {
    Group* g = nullptr;
    for (auto& existing : groups_) {
      if (existing.name == group) g = &existing;
    }
    if (!g) {
      groups_.push_back(Group{group, {}});
      g = &groups_.back();
    }
    g->fields.push_back({field, value});
  }

  std::string render() const {
    std::ostringstream os;
    os << "{\n  \"bench\": \"" << bench_ << "\",\n  \"mode\": \"" << mode_
       << "\",\n  \"metrics\": {\n";
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      const Group& g = groups_[gi];
      os << "    \"" << g.name << "\": {";
      for (std::size_t fi = 0; fi < g.fields.size(); ++fi) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", g.fields[fi].second);
        os << (fi ? ", " : "") << "\"" << g.fields[fi].first << "\": " << buf;
      }
      os << "}" << (gi + 1 < groups_.size() ? "," : "") << "\n";
    }
    os << "  }\n}\n";
    return os.str();
  }

  /// Write the report to `path`; returns false (with a stderr note) on I/O
  /// failure so callers can fail the bench run.
  bool write_file(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench: cannot write '" << path << "'\n";
      return false;
    }
    out << render();
    return out.good();
  }

 private:
  struct Group {
    std::string name;
    std::vector<std::pair<std::string, double>> fields;
  };
  std::string bench_;
  std::string mode_;
  std::vector<Group> groups_;
};

/// Extract `"group": { ... "field": <number> ... }` from JSON text written by
/// JsonReport (or hand-maintained baselines in the same shape). Returns false
/// when the group or field is missing. Scans lexically — good enough for the
/// flat metric reports this repo emits, by design not a general JSON parser.
inline bool json_number(const std::string& text, const std::string& group,
                        const std::string& field, double& out) {
  const std::size_t gpos = text.find("\"" + group + "\"");
  if (gpos == std::string::npos) return false;
  const std::size_t open = text.find('{', gpos);
  if (open == std::string::npos) return false;
  const std::size_t close = text.find('}', open);
  if (close == std::string::npos) return false;
  const std::string body = text.substr(open, close - open);
  const std::size_t fpos = body.find("\"" + field + "\"");
  if (fpos == std::string::npos) return false;
  const std::size_t colon = body.find(':', fpos);
  if (colon == std::string::npos) return false;
  try {
    out = std::stod(body.substr(colon + 1));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// Read a whole file into a string; empty optional-style: returns false when
/// the file cannot be opened.
inline bool read_text_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// The harness of a baseline-gated bench: flags, the baseline read, the
/// report, the shape checks, the regression gate and the exit code.
///
///   --spider-json=PATH  where the report goes (the bench supplies the
///                       default; an empty PATH writes no report)
///   --baseline=FILE     gate against this checked-in report
///   --smoke             seconds-long run sized for CI; the report's "mode"
///
/// The gate is deliberately loose — kFloor of the recorded baseline —
/// because CI machines are noisy and heterogeneous: it exists to catch
/// collapses (an accidental per-event allocation, a serialized pool), not
/// single-digit drift. Before/after comparisons for PR records should use
/// the full mode on one quiet machine.
class GatedRun {
 public:
  GatedRun(std::string bench, std::string json_path)
      : bench_(std::move(bench)), json_path_(std::move(json_path)) {}

  /// Parses argv and reads the baseline. Returns 0 to run, 2 on a usage
  /// error, 1 when the baseline cannot be read. An unknown argument is a
  /// usage error unless `rest` is given; it is then appended to `rest` for
  /// a second parser.
  [[nodiscard]] int parse(int argc, char** argv,
                          std::vector<char*>* rest = nullptr) {
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.starts_with("--spider-json=")) {
        json_path_ = std::string(arg.substr(14));
      } else if (arg.starts_with("--baseline=")) {
        baseline_path = std::string(arg.substr(11));
      } else if (arg == "--smoke") {
        smoke_ = true;
      } else if (rest) {
        rest->push_back(argv[i]);
      } else {
        std::fprintf(stderr,
                     "usage: %s [--spider-json=PATH] [--baseline=FILE] "
                     "[--smoke]\n",
                     argv[0]);
        return 2;
      }
    }
    report_ = JsonReport(bench_, smoke_ ? "smoke" : "full");
    gated_ = !baseline_path.empty();
    if (gated_ && !read_text_file(baseline_path, baseline_)) {
      std::fprintf(stderr, "bench: cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 1;
    }
    return 0;
  }

  bool smoke() const { return smoke_; }
  const std::string& json_path() const { return json_path_; }
  JsonReport& report() { return report_; }
  ShapeChecker& checker() { return checker_; }

  /// Checks `measured` against the baseline's `<name>.<field>` at kFloor and
  /// adds `baseline_<field>` and `vs_baseline` to the `name` group. A no-op
  /// without --baseline; a missing entry fails, and so does a baseline <= 0.
  void gate(const std::string& name, const std::string& field,
            double measured) {
    if (!gated_) return;
    double base = 0.0;
    if (!json_number(baseline_, name, field, base)) {
      checker_.check(false, name + ": baseline entry present");
      return;
    }
    const double ratio = base > 0.0 ? measured / base : 0.0;
    report_.add(name, "baseline_" + field, base);
    report_.add(name, "vs_baseline", ratio);
    // "<x>_per_<y>" prints as "<x>/<y>". Built by concatenation: GCC 12
    // raises a false -Wrestrict on std::string::replace here.
    const std::size_t per = field.find("_per_");
    const std::string unit =
        per == std::string::npos
            ? field
            : field.substr(0, per) + "/" + field.substr(per + 5);
    char label[160];
    std::snprintf(label, sizeof(label),
                  "%s: %.2fx of baseline %.0f %s (floor %.2fx)", name.c_str(),
                  ratio, base, unit.c_str(), kFloor);
    checker_.check(ratio >= kFloor, label);
  }

  /// Writes the report unless its path is empty. Returns the exit code: 1
  /// when the write or any check failed, else 0.
  [[nodiscard]] int finish() const {
    if (!json_path_.empty()) {
      if (!report_.write_file(json_path_)) return 1;
      std::printf("wrote %s\n", json_path_.c_str());
    }
    return checker_.exit_code();
  }

 private:
  static constexpr double kFloor = 0.60;

  std::string bench_;
  std::string json_path_;
  bool smoke_ = false;
  bool gated_ = false;
  std::string baseline_;
  JsonReport report_{bench_, "full"};
  ShapeChecker checker_;
};

}  // namespace spider::bench
