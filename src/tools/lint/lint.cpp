#include "tools/lint/lint.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

// spiderlint-file: nondet-ok — steady_clock feeds only the --stats phase
// timings, never a finding, a sort key, or an output byte.

namespace spider::lint {

namespace fs = std::filesystem;

namespace {

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h" ||
         ext == ".hh";
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

std::vector<std::string> collect_sources(const std::vector<std::string>& paths,
                                         std::vector<std::string>& errors) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    const fs::file_status st = fs::status(p, ec);
    if (ec || st.type() == fs::file_type::not_found) {
      errors.push_back("cannot access: " + p);
      continue;
    }
    if (fs::is_directory(st)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        // Lint fixtures contain deliberate violations; they are linted
        // explicitly by their tests, never via directory recursion.
        if (it->is_directory() &&
            it->path().filename() == "lint_fixtures") {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && lintable_extension(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
      if (ec) errors.push_back("error walking: " + p + " (" + ec.message() + ")");
    } else {
      files.push_back(fs::path(p).generic_string());
    }
  }
  // Sorted + deduplicated so runs are reproducible regardless of readdir
  // order — a lint about determinism had better be deterministic itself.
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::vector<Finding> lint_scanned(const SourceFile& file,
                                  const LintOptions& opts,
                                  const SourceFile* paired_header) {
  const FileClass cls = opts.forced_class.has_value()
                            ? *opts.forced_class
                            : classify_path(file.path);
  return lint_file(file, cls, paired_header);
}

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

LintReport lint_paths(const std::vector<std::string>& paths,
                      const LintOptions& opts,
                      std::vector<std::string>& errors) {
  using Clock = std::chrono::steady_clock;
  LintReport report;
  const Clock::time_point t0 = Clock::now();
  // Scanned files are kept for the project-wide L5 layering pass.
  std::vector<SourceFile> scanned;
  for (const std::string& path : collect_sources(paths, errors)) {
    const std::optional<std::string> contents = read_file(path);
    if (!contents.has_value()) {
      errors.push_back("cannot read: " + path);
      continue;
    }
    scanned.push_back(scan_source(path, *contents));
    ++report.files_scanned;
  }
  const Clock::time_point t1 = Clock::now();

  // Per-file pass, in collect_sources order (sorted).
  for (const SourceFile& file : scanned) {
    // Pair foo.cpp with a sibling foo.hpp (or .h/.hh) for L1 identifier
    // tracking and L7 declaration lookup.
    SourceFile header;
    const SourceFile* paired = nullptr;
    const fs::path p(file.path);
    if (p.extension() == ".cpp" || p.extension() == ".cc") {
      for (const char* ext : {".hpp", ".h", ".hh"}) {
        fs::path candidate = p;
        candidate.replace_extension(ext);
        const std::optional<std::string> header_text =
            read_file(candidate.generic_string());
        if (header_text.has_value()) {
          header = scan_source(candidate.generic_string(), *header_text);
          paired = &header;
          break;
        }
      }
    }
    std::vector<Finding> found = lint_scanned(file, opts, paired);
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(found.begin()),
                           std::make_move_iterator(found.end()));
  }
  const Clock::time_point t2 = Clock::now();

  std::vector<Finding> project = lint_project(scanned);
  report.findings.insert(report.findings.end(),
                         std::make_move_iterator(project.begin()),
                         std::make_move_iterator(project.end()));
  const Clock::time_point t3 = Clock::now();

  // stable_sort: equal keys keep their (deterministic) insertion order, so
  // two findings sharing file/line/column/rule can never flip bytes
  // between runs.
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     if (a.column != b.column) return a.column < b.column;
                     return a.rule < b.rule;
                   });
  report.scan_ms = elapsed_ms(t0, t1);
  report.rules_ms = elapsed_ms(t1, t2);
  report.global_ms = elapsed_ms(t2, t3);
  return report;
}

}  // namespace spider::lint
