// spiderlint symbol index: a per-file map of classes, member declarations,
// functions (with body token ranges and access levels), and template heads,
// built from the token stream.
//
// This is a structural parser, not a compiler front end: it tracks
// namespace/class/function nesting by brace balance and recognizes the
// declaration idioms this codebase actually uses. Rules built on it (L6
// lock-discipline, L7 schedule-site flow) act only on precise signals —
// lock annotations, private scheduling calls — so a misparse degrades to a
// missed finding, never to a spurious one.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lint/token.hpp"

namespace spider::lint {

enum class Access { kPublic, kProtected, kPrivate };

/// A member declaration annotated SPIDER_GUARDED_BY(mutex).
struct GuardedMember {
  std::string cls;    ///< enclosing class/struct name
  std::string name;   ///< member identifier
  std::string mutex;  ///< guard expression (flattened annotation argument)
  std::size_t line = 0;  ///< 0-based declaration line
};

enum class CaptureKind {
  kDefaultRef,    ///< `&`
  kDefaultValue,  ///< `=`
  kByRef,         ///< `&name` (or `&name = expr` init-capture)
  kByValue,       ///< `name` (or `name = expr` init-capture)
  kThis,          ///< `this`
  kStarThis,      ///< `*this`
};

struct LambdaCapture {
  CaptureKind kind = CaptureKind::kByValue;
  std::string name;       ///< empty for defaults and `this`
  bool init = false;      ///< init-capture (`name = expr`)
  std::string init_expr;  ///< flattened initializer of an init-capture
  std::size_t line = 0;   ///< 0-based line of the capture
};

/// One lambda expression, located by token indices into the file's stream.
struct LambdaSym {
  std::size_t intro = 0;       ///< index of the `[` introducer
  std::size_t body_begin = 0;  ///< first token inside `{`
  std::size_t body_end = 0;    ///< index of the closing `}`
  std::size_t line = 0;        ///< 0-based line of the introducer
  std::size_t col = 0;
  bool parsed = false;  ///< capture list and body located successfully
  std::vector<LambdaCapture> captures;
  /// True when `this` is reachable inside the body: explicit this/*this
  /// capture or a `[&]`/`[=]` default (both capture the this pointer).
  bool captures_this() const;
  bool has_ref_default() const;
  bool has_value_default() const;
};

struct ClassSym {
  std::string name;
  std::size_t line = 0;  ///< 0-based line of the class-head name
};

struct FunctionSym {
  std::string cls;   ///< enclosing (or `Cls::` qualifier) class; "" if free
  std::string name;
  std::size_t line = 0;          ///< 0-based line of the function name
  Access access = Access::kPublic;
  bool in_anon_namespace = false;
  bool is_definition = false;    ///< has a body in this file
  bool ctor_or_dtor = false;
  std::string params;            ///< flattened parameter-list text
  std::vector<std::string> requires_mutexes;  ///< SPIDER_REQUIRES(args)
  /// Body token range [body_begin, body_end) into the file's TokenStream
  /// (both 0 when this is a declaration only).
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

struct FileSymbols {
  std::vector<ClassSym> classes;
  std::vector<FunctionSym> functions;
  std::vector<GuardedMember> guarded;
  std::vector<std::size_t> template_head_lines;  ///< 0-based
};

/// Build the symbol index for one tokenized file.
FileSymbols index_symbols(const TokenStream& stream);

/// Locate every lambda expression in the stream and parse its capture list
/// (defaults, by-ref/by-value captures, init-captures, this/*this, packs).
/// Template lambdas, trailing attributes/specifiers, and nested lambdas are
/// handled; anything the parser does not understand yields `parsed = false`
/// — capture-based rules then skip the lambda (a missed finding, never a
/// spurious one).
std::vector<LambdaSym> find_lambdas(const TokenStream& stream);

}  // namespace spider::lint
