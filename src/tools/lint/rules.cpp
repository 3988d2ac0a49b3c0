#include "tools/lint/rules.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <utility>

#include "tools/lint/include_graph.hpp"
#include "tools/lint/symbols.hpp"
#include "tools/lint/token.hpp"

namespace spider::lint {

namespace {

const std::vector<RuleInfo> kRules = {
    {"L1", "unordered-iteration", Severity::kError,
     "unordered_map/unordered_set in sim-critical directories "
     "(src/sim, src/block, src/fs, src/net) or tests/bench: iteration and "
     "float-sum order depend on hash/rehash history",
     "ordered-ok",
     "use std::map or sorted-key iteration; a pure lookup table whose order "
     "never leaks may be justified with // spiderlint: ordered-ok"},
    {"L2", "nondet-source", Severity::kError,
     "wall-clock or ambient randomness in src/ (std::random_device, rand, "
     "time(), *_clock, mt19937 outside common/rng)",
     "nondet-ok",
     "draw randomness from a seeded spider::Rng (common/rng.hpp) and time "
     "from Simulator::now(); justify true host-time uses with "
     "// spiderlint: nondet-ok"},
    {"L3", "raw-unit-double", Severity::kWarning,
     "raw double in a public header whose name carries a unit "
     "(*_bytes, *_seconds, *_bw, latency*)",
     "units-ok",
     "use the units.hpp vocabulary (Bytes, ByteVolume, Bandwidth, Seconds) "
     "so the unit lives in the type; dimensionless factors may be justified "
     "with // spiderlint: units-ok"},
    {"L4", "replay-site", Severity::kError,
     "schedule()/reschedule()/inject()/arm() without a scheduling site: "
     "replay divergence cannot be localized to the call site",
     "site-ok",
     "pass a sim::Site (or site hash) through the scheduling call, or use "
     "Simulator::schedule_at/schedule_in (and FaultInjector::inject/arm) "
     "which capture it automatically"},
    {"L5", "layer-violation", Severity::kError,
     "include edge points up the architectural layering "
     "(common -> sim -> {block,fs,net} -> workload -> core -> {tools,infra}) "
     "or participates in an include cycle",
     "layer-ok",
     "invert the dependency: move the shared declaration down a layer, or "
     "pass the upper-layer behaviour in as a callback/interface; justified "
     "exceptions carry // spiderlint: layer-ok"},
    {"L7", "schedule-site-flow", Severity::kError,
     "schedule_at()/schedule_in()/schedule_cross() called from a non-public "
     "helper without forwarding an explicit site: the defaulted sim::Site "
     "collapses every event from this helper to one site",
     "flow-ok",
     "thread a sim::Site parameter from the public entry point down to the "
     "scheduling call (see Simulator::schedule_at's and "
     "ShardedSimulator::schedule_cross's defaulted site arguments)"},
    {"L8", "calibration-constant", Severity::kWarning,
     "bare numeric literal >= 1000 inside a function body in "
     "src/{block,fs,net}: bandwidth/latency/size calibration constants must "
     "have greppable provenance",
     "calib-ok",
     "hoist the literal into a named constant in the subsystem's config "
     "header (or use the units.hpp constants/literals) so the calibration "
     "source is documented once"},
};

/// True when a flattened argument list carries a scheduling site.
bool args_carry_site(std::string_view args) {
  return args.find("site") != std::string_view::npos ||
         find_word(args, "Site") != std::string_view::npos ||
         find_word(args, "loc") != std::string_view::npos;
}

/// Join [begin, end) token texts with spaces.
std::string flatten(const std::vector<Tok>& t, std::size_t begin,
                    std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end && i < t.size(); ++i) {
    if (!out.empty()) out.push_back(' ');
    out += t[i].text;
  }
  return out;
}

void add_finding(std::vector<Finding>& out, const RuleInfo& info,
                 const std::string& path, std::size_t line_index,
                 std::size_t col, std::string message) {
  Finding f;
  f.rule = std::string(info.id);
  f.severity = info.severity;
  f.file = path;
  f.line = line_index + 1;
  f.column = col + 1;
  f.message = std::move(message);
  f.hint = std::string(info.hint);
  out.push_back(std::move(f));
}

// --- L1: unordered containers in sim-critical code -------------------------

/// Names of variables (members, locals, params) declared with an unordered
/// container type, from the token stream (declarations may span lines).
std::set<std::string> unordered_idents(const TokenStream& stream) {
  std::set<std::string> idents;
  const std::vector<Tok>& t = stream.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent ||
        (t[i].text != "unordered_map" && t[i].text != "unordered_set")) {
      continue;
    }
    if (i + 1 >= t.size() || !is_punct(t[i + 1], "<")) continue;
    std::size_t j = matching_close(t, i + 1);
    if (j >= t.size()) continue;
    ++j;
    while (j < t.size() && (is_punct(t[j], "&") || is_punct(t[j], "*") ||
                            is_ident(t[j], "const"))) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdent &&
        (j + 1 >= t.size() || !is_punct(t[j + 1], "("))) {
      idents.insert(t[j].text);
    }
  }
  return idents;
}

void run_l1(const SourceFile& file, const TokenStream& stream,
            const TokenStream* header_stream, std::vector<Finding>& out) {
  const RuleInfo& info = *rule("L1");
  std::set<std::string> tracked = unordered_idents(stream);
  if (header_stream != nullptr) {
    std::set<std::string> from_header = unordered_idents(*header_stream);
    tracked.insert(from_header.begin(), from_header.end());
  }

  const std::vector<Tok>& t = stream.tokens;
  // One finding per line per trigger, mirroring the line scanner.
  std::set<std::pair<std::size_t, std::string>> flagged;

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;

    // Any use of the type itself.
    if (t[i].text == "unordered_map" || t[i].text == "unordered_set") {
      if (flagged.emplace(t[i].line, t[i].text).second &&
          !has_suppression(file, t[i].line, info.suppression)) {
        add_finding(out, info, file.path, t[i].line, t[i].col,
                    "std::" + t[i].text + " in sim-critical code");
      }
      continue;
    }

    // Iteration over a tracked identifier: range-for (`: ident`) or an
    // explicit iterator walk (`ident.begin()`).
    if (tracked.count(t[i].text) == 0) continue;
    bool iterates = false;
    if (i >= 1 && is_punct(t[i - 1], ":") &&
        find_word(file.lines[t[i].line].code, "for") != std::string::npos) {
      iterates = true;
    }
    if (i + 2 < t.size() && is_punct(t[i + 1], ".") &&
        (is_ident(t[i + 2], "begin") || is_ident(t[i + 2], "cbegin") ||
         is_ident(t[i + 2], "rbegin"))) {
      iterates = true;
    }
    if (iterates && flagged.emplace(t[i].line, "it:" + t[i].text).second &&
        !has_suppression(file, t[i].line, info.suppression)) {
      add_finding(out, info, file.path, t[i].line, t[i].col,
                  "iteration over unordered container '" + t[i].text + "'");
    }
  }
}

// --- L2: nondeterminism sources --------------------------------------------

void run_l2(const SourceFile& file, const TokenStream& stream,
            const FileClass& cls, std::vector<Finding>& out) {
  const RuleInfo& info = *rule("L2");
  struct Trigger {
    std::string_view text;
    bool needs_call;  // must be followed by '('
  };
  static const Trigger kTriggers[] = {
      {"random_device", false}, {"rand", true},
      {"srand", true},          {"time", true},
      {"clock", true},          {"gettimeofday", false},
      {"clock_gettime", false}, {"system_clock", false},
      {"steady_clock", false},  {"high_resolution_clock", false},
  };

  const std::vector<Tok>& t = stream.tokens;
  std::set<std::pair<std::size_t, std::string>> flagged;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;

    for (const Trigger& trig : kTriggers) {
      if (t[i].text != trig.text) continue;
      const bool is_call = i + 1 < t.size() && is_punct(t[i + 1], "(");
      if ((!trig.needs_call || is_call) &&
          flagged.emplace(t[i].line, t[i].text).second &&
          !has_suppression(file, t[i].line, info.suppression)) {
        add_finding(out, info, file.path, t[i].line, t[i].col,
                    "nondeterminism source '" + t[i].text +
                        "' — simulations must not read ambient "
                        "randomness or wall-clock time");
      }
    }

    // mt19937 / mt19937_64: allowed only inside common/rng (the one place
    // engines may live); elsewhere RNGs must come through spider::Rng.
    if (!cls.rng_home && t[i].text.starts_with("mt19937") &&
        flagged.emplace(t[i].line, "mt19937").second &&
        !has_suppression(file, t[i].line, info.suppression)) {
      add_finding(out, info, file.path, t[i].line, t[i].col,
                  "mt19937 constructed outside common/rng — use "
                  "spider::Rng so seeding stays explicit");
    }
  }
}

// --- L3: raw unit-bearing doubles in public headers ------------------------

bool unit_bearing_name(std::string_view ident) {
  return ident.ends_with("_bytes") || ident.ends_with("_seconds") ||
         ident.ends_with("_bw") || ident.starts_with("latency") ||
         ident == "bytes" || ident == "seconds" || ident == "bw";
}

void run_l3(const SourceFile& file, const TokenStream& stream,
            std::vector<Finding>& out) {
  const RuleInfo& info = *rule("L3");
  const std::vector<Tok>& t = stream.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i], "double") || t[i + 1].kind != TokKind::kIdent) {
      continue;
    }
    if (unit_bearing_name(t[i + 1].text) &&
        !has_suppression(file, t[i].line, info.suppression)) {
      add_finding(out, info, file.path, t[i].line, t[i].col,
                  "raw double '" + t[i + 1].text +
                      "' carries a unit in its name");
    }
  }
}

// --- L4: scheduling sites ---------------------------------------------------

void run_l4(const SourceFile& file, const TokenStream& stream,
            std::vector<Finding>& out) {
  const RuleInfo& info = *rule("L4");
  const std::vector<Tok>& t = stream.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& name = t[i].text;
    const bool call_name = name == "schedule" || name == "reschedule";
    const bool decl_name = call_name || name == "schedule_at" ||
                           name == "schedule_in" || name == "schedule_cross" ||
                           name == "inject" || name == "arm";
    if (!decl_name || i + 1 >= t.size() || !is_punct(t[i + 1], "(")) continue;
    const std::size_t close = matching_close(t, i + 1);
    if (close >= t.size()) continue;
    const std::string args = flatten(t, i + 2, close);

    // Call sites: obj.schedule(...) / obj->reschedule(...).
    const bool member_call =
        i >= 1 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
    if (call_name && member_call) {
      if (!args_carry_site(args) &&
          !has_suppression(file, t[i].line, info.suppression)) {
        add_finding(out, info, file.path, t[i].line, t[i].col,
                    "call to " + name + "() drops the scheduling site");
      }
      continue;
    }

    // Declarations/definitions of scheduling entry points taking a callback
    // (or a fault-plan payload, which compiles into scheduled events): the
    // parameter list must carry a Site or site hash. inject/arm are checked
    // at the declaration only — call sites legitimately rely on the
    // defaulted Site argument.
    const bool qualified = i >= 1 && is_punct(t[i - 1], "::");
    const bool after_type = i >= 1 && t[i - 1].kind == TokKind::kIdent;
    if (qualified || after_type) {
      const bool takes_callback =
          find_word(args, "EventFn") != std::string::npos ||
          find_word(args, "function") != std::string::npos ||
          find_word(args, "Injection") != std::string::npos ||
          find_word(args, "FaultPlan") != std::string::npos;
      if (takes_callback && !args_carry_site(args) &&
          !has_suppression(file, t[i].line, info.suppression)) {
        add_finding(out, info, file.path, t[i].line, t[i].col,
                    name +
                        "() takes a callback but no scheduling site "
                        "parameter");
      }
    }
  }
}

// --- L7: schedule-site flow -------------------------------------------------

/// The declaration matching an out-of-line definition, looked up by
/// (class, name): its access level decides whether the definition is a
/// public entry point.
const FunctionSym* find_declaration(const FileSymbols* syms,
                                    const FunctionSym& def) {
  if (syms == nullptr) return nullptr;
  for (const FunctionSym& fn : syms->functions) {
    if (!fn.is_definition && fn.cls == def.cls && fn.name == def.name) {
      return &fn;
    }
  }
  return nullptr;
}

void run_l7(const SourceFile& file, const TokenStream& stream,
            const FileSymbols& syms, const FileSymbols* header_syms,
            std::vector<Finding>& out) {
  const RuleInfo& info = *rule("L7");
  const std::vector<Tok>& t = stream.tokens;
  for (const FunctionSym& fn : syms.functions) {
    if (!fn.is_definition) continue;

    bool nonpublic = false;
    if (!fn.cls.empty()) {
      Access acc = fn.access;
      if (const FunctionSym* decl = find_declaration(header_syms, fn)) {
        acc = decl->access;
      } else if (const FunctionSym* local = find_declaration(&syms, fn)) {
        acc = local->access;
      }
      nonpublic = acc != Access::kPublic;
    } else {
      nonpublic = fn.in_anon_namespace;
    }
    if (!nonpublic) continue;

    for (std::size_t i = fn.body_begin; i + 1 < fn.body_end && i < t.size();
         ++i) {
      if (t[i].kind != TokKind::kIdent ||
          (t[i].text != "schedule_at" && t[i].text != "schedule_in" &&
           t[i].text != "schedule_cross")) {
        continue;
      }
      const bool member_call =
          i >= 1 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
      if (!member_call || !is_punct(t[i + 1], "(")) continue;
      const std::size_t close = matching_close(t, i + 1);
      if (close >= t.size()) continue;
      if (args_carry_site(flatten(t, i + 2, close))) continue;
      if (has_suppression(file, t[i].line, info.suppression)) continue;
      const std::string where =
          fn.cls.empty() ? fn.name : fn.cls + "::" + fn.name;
      add_finding(out, info, file.path, t[i].line, t[i].col,
                  t[i].text + "() in non-public '" + where +
                      "' relies on the defaulted sim::Site — thread the "
                      "site from the public entry point");
    }
  }
}

// --- L8: calibration-constant provenance ------------------------------------

/// Numeric magnitude of a pp-number token; -1 when it is not a plain
/// decimal literal (hex/binary, or a unit-literal suffix with '_').
double literal_magnitude(std::string_view text) {
  if (text.size() >= 2 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X' || text[1] == 'b' || text[1] == 'B')) {
    return -1.0;
  }
  if (text.find('_') != std::string_view::npos) return -1.0;  // 64_KiB etc.
  std::string cleaned;
  cleaned.reserve(text.size());
  for (char c : text) {
    if (c != '\'') cleaned.push_back(c);
  }
  return std::strtod(cleaned.c_str(), nullptr);
}

void run_l8(const SourceFile& file, const TokenStream& stream,
            const FileSymbols& syms, std::vector<Finding>& out) {
  const RuleInfo& info = *rule("L8");
  const std::vector<Tok>& t = stream.tokens;
  for (const FunctionSym& fn : syms.functions) {
    if (!fn.is_definition) continue;
    for (std::size_t i = fn.body_begin; i < fn.body_end && i < t.size(); ++i) {
      if (t[i].kind != TokKind::kNumber) continue;
      if (literal_magnitude(t[i].text) < 1000.0) continue;
      // A constexpr statement IS a named-constant definition.
      if (find_word(file.lines[t[i].line].code, "constexpr") !=
          std::string::npos) {
        continue;
      }
      if (has_suppression(file, t[i].line, info.suppression)) continue;
      add_finding(out, info, file.path, t[i].line, t[i].col,
                  "numeric literal '" + t[i].text +
                      "' is a calibration-scale constant without a named "
                      "source");
    }
  }
}

void sort_findings(std::vector<Finding>& out) {
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.column != b.column) return a.column < b.column;
    return a.rule < b.rule;
  });
}

}  // namespace

std::string_view to_string(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

const std::vector<RuleInfo>& rules() { return kRules; }

const RuleInfo* rule(std::string_view id) {
  for (const RuleInfo& r : kRules) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

FileClass classify_path(std::string_view path) {
  FileClass cls;
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t slash = path.find('/', start);
    if (slash == std::string_view::npos) slash = path.size();
    if (slash > start) parts.push_back(path.substr(start, slash - start));
    start = slash + 1;
  }
  // The LAST src/tests/bench component wins, so fixture trees like
  // tests/lint_fixtures/l5_layering/src/... classify as src.
  std::size_t root = parts.size();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i] == "src" || parts[i] == "tests" || parts[i] == "bench") {
      root = i;
    }
  }
  if (root < parts.size()) {
    if (parts[root] == "src") {
      cls.in_src = true;
      if (root + 1 < parts.size()) {
        const std::string_view sub = parts[root + 1];
        cls.sim_critical =
            sub == "sim" || sub == "block" || sub == "fs" || sub == "net";
        cls.calib_scope = sub == "block" || sub == "fs" || sub == "net";
        cls.rng_home = sub == "common" && root + 2 < parts.size() &&
                       (parts[root + 2] == "rng.cpp" ||
                        parts[root + 2] == "rng.hpp");
      }
    } else if (parts[root] == "tests") {
      cls.in_tests = true;
    } else {
      cls.in_bench = true;
    }
  }
  if (!parts.empty()) {
    const std::string_view base = parts.back();
    cls.is_header = base.ends_with(".hpp") || base.ends_with(".h") ||
                    base.ends_with(".hh");
  }
  return cls;
}

std::vector<Finding> lint_file(const SourceFile& file, const FileClass& cls,
                               const SourceFile* paired_header) {
  std::vector<Finding> out;
  const TokenStream stream = tokenize(file);
  TokenStream header_stream;
  if (paired_header != nullptr) header_stream = tokenize(*paired_header);
  const TokenStream* header =
      paired_header != nullptr ? &header_stream : nullptr;

  if (cls.in_tests || cls.in_bench) {
    // Tests and benches get the hygiene rules only: no unordered iteration,
    // no ambient nondeterminism. Style/flow rules stay src-scoped.
    run_l1(file, stream, header, out);
    run_l2(file, stream, cls, out);
    sort_findings(out);
    return out;
  }

  if (cls.sim_critical) run_l1(file, stream, header, out);
  if (cls.in_src) {
    run_l2(file, stream, cls, out);
    if (cls.is_header) run_l3(file, stream, out);
    run_l4(file, stream, out);
    const FileSymbols syms = index_symbols(stream);
    FileSymbols header_syms;
    const FileSymbols* hsyms = nullptr;
    if (header != nullptr) {
      header_syms = index_symbols(*header);
      hsyms = &header_syms;
    }
    run_l7(file, stream, syms, hsyms, out);
    if (cls.calib_scope) run_l8(file, stream, syms, out);
  }

  sort_findings(out);
  return out;
}

std::vector<Finding> lint_project(const std::vector<SourceFile>& files) {
  std::vector<Finding> out;
  const RuleInfo& info = *rule("L5");

  IncludeGraph graph;
  for (const SourceFile& f : files) {
    graph.add_file(include_key(f.path), &f);
  }

  // Upward includes: checkable per edge from the include spelling alone.
  for (const auto& [key, src] : graph.files()) {
    const int from = layer_of(key);
    if (from < 0) continue;
    for (const IncludeEdge& e : quoted_includes(*src)) {
      const int to = layer_of(e.target);
      if (to < 0 || to <= from) continue;
      if (has_suppression(*src, e.line, info.suppression)) continue;
      add_finding(out, info, src->path, e.line, 0,
                  "include of '" + e.target + "' (" +
                      std::string(layer_name(to)) + ") from layer '" +
                      std::string(layer_name(from)) +
                      "' points up the architecture");
    }
  }

  // Cycles among the registered files.
  for (const std::vector<std::string>& cycle : graph.cycles()) {
    if (cycle.size() < 2) continue;
    const SourceFile* head = graph.files().at(cycle[0]);
    // Anchor the finding at the include that opens the cycle.
    std::size_t line = 0;
    for (const IncludeEdge& e : quoted_includes(*head)) {
      if (e.target == cycle[1]) {
        line = e.line;
        break;
      }
    }
    if (has_suppression(*head, line, info.suppression)) continue;
    std::string path_text;
    for (const std::string& node : cycle) {
      if (!path_text.empty()) path_text += " -> ";
      path_text += node;
    }
    add_finding(out, info, head->path, line, 0,
                "include cycle: " + path_text);
  }

  sort_findings(out);
  return out;
}

}  // namespace spider::lint
