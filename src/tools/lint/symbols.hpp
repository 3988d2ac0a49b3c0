// spiderlint symbol index: a per-file list of functions with their body
// token ranges, access levels, class qualifiers, and anonymous-namespace
// membership, built from the token stream.
//
// This is a structural parser, not a compiler front end: it tracks
// namespace/class/function nesting by brace balance and recognizes the
// declaration idioms this codebase actually uses. The rules built on it
// (L7 schedule-site flow, L8 calibration constants) act only on precise
// signals — private scheduling calls, literals inside function bodies — so
// a misparse degrades to a missed finding, never to a spurious one.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tools/lint/token.hpp"

namespace spider::lint {

enum class Access { kPublic, kProtected, kPrivate };

struct FunctionSym {
  std::string cls;   ///< enclosing (or `Cls::` qualifier) class; "" if free
  std::string name;
  Access access = Access::kPublic;
  bool in_anon_namespace = false;
  bool is_definition = false;    ///< has a body in this file
  /// Body token range [body_begin, body_end) into the file's TokenStream
  /// (both 0 when this is a declaration only).
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

struct FileSymbols {
  std::vector<FunctionSym> functions;
};

/// Build the symbol index for one tokenized file.
FileSymbols index_symbols(const TokenStream& stream);

}  // namespace spider::lint
