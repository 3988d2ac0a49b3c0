#include "tools/lint/report.hpp"

#include <map>
#include <sstream>

#include "common/json.hpp"

namespace spider::lint {

std::size_t LintReport::errors() const {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (f.severity == Severity::kError) ++n;
  }
  return n;
}

std::size_t LintReport::warnings() const {
  return findings.size() - errors();
}

std::string render_text(const LintReport& report, bool fix_hints) {
  std::ostringstream out;
  for (const Finding& f : report.findings) {
    out << f.file << ':' << f.line << ':' << f.column << ": "
        << to_string(f.severity) << ": [" << f.rule << "] " << f.message
        << '\n';
    if (fix_hints && !f.hint.empty()) {
      out << "    hint: " << f.hint << '\n';
    }
  }
  if (report.clean()) {
    out << "spiderlint: clean (" << report.files_scanned << " files)\n";
  } else {
    out << "spiderlint: " << report.findings.size() << " finding"
        << (report.findings.size() == 1 ? "" : "s") << " ("
        << report.errors() << " errors, " << report.warnings()
        << " warnings) in " << report.files_scanned << " files\n";
    if (fix_hints) {
      // Per-rule digest so a long report still ends with the fix story.
      std::map<std::string, std::size_t> by_rule;
      for (const Finding& f : report.findings) ++by_rule[f.rule];
      for (const auto& [id, count] : by_rule) {
        const RuleInfo* info = rule(id);
        out << "  " << id << " (" << count << "): "
            << (info != nullptr ? info->hint : std::string_view("")) << '\n';
      }
    }
  }
  return out.str();
}

std::string render_sarif(const LintReport& report) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"spiderlint\",\n"
      << "          \"informationUri\": \"docs/static-analysis.md\",\n"
      << "          \"rules\": [\n";
  const std::vector<RuleInfo>& all = rules();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const RuleInfo& r = all[i];
    out << "            {\"id\": \"" << r.id << "\", \"name\": \"" << r.name
        << "\", \"shortDescription\": {\"text\": \""
        << json_escape(r.summary) << "\"}, \"help\": {\"text\": \""
        << json_escape(r.hint) << "\"}, \"defaultConfiguration\": "
        << "{\"level\": \""
        << (r.severity == Severity::kError ? "error" : "warning") << "\"}}"
        << (i + 1 < all.size() ? "," : "") << '\n';
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    std::size_t rule_index = 0;
    for (std::size_t r = 0; r < all.size(); ++r) {
      if (all[r].id == f.rule) rule_index = r;
    }
    out << "        {\"ruleId\": \"" << json_escape(f.rule)
        << "\", \"ruleIndex\": " << rule_index << ", \"level\": \""
        << (f.severity == Severity::kError ? "error" : "warning")
        << "\", \"message\": {\"text\": \"" << json_escape(f.message)
        << "\"}, \"locations\": [{\"physicalLocation\": "
        << "{\"artifactLocation\": {\"uri\": \"" << json_escape(f.file)
        << "\"}, \"region\": {\"startLine\": " << f.line
        << ", \"startColumn\": " << f.column << "}}}]}"
        << (i + 1 < report.findings.size() ? "," : "") << '\n';
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace spider::lint
