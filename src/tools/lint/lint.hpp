// spiderlint driver: collect sources, pair headers, run the rules.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "tools/lint/report.hpp"
#include "tools/lint/rules.hpp"

namespace spider::lint {

/// Driver options.
struct LintOptions {
  /// When set, overrides path-based classification for every file (used to
  /// lint fixture files that live outside src/).
  std::optional<FileClass> forced_class;
};

/// Expand paths (files or directories) into a sorted, deduplicated list of
/// C++ sources (.cpp/.cc/.hpp/.h/.hh). Directories recurse. Unreadable
/// paths are reported in `errors`.
std::vector<std::string> collect_sources(const std::vector<std::string>& paths,
                                         std::vector<std::string>& errors);

/// Lint one already-scanned file.
std::vector<Finding> lint_scanned(const SourceFile& file,
                                  const LintOptions& opts,
                                  const SourceFile* paired_header = nullptr);

/// Lint files on disk. For each .cpp a sibling header with the same stem is
/// scanned to seed L1's identifier tracking. Unreadable files are reported
/// in `errors`.
LintReport lint_paths(const std::vector<std::string>& paths,
                      const LintOptions& opts,
                      std::vector<std::string>& errors);

}  // namespace spider::lint
