// spiderlint per-TU call graph: function bodies linked to the functions
// they call, plus the two dataflow facts the shard-safety rules need.
//
// Scope and limits (documented in docs/static-analysis.md): resolution is
// by unqualified name within one translation unit (the linted file plus its
// paired header's symbol index) — no overload resolution, no linking
// across translation units, no receiver-type tracking. That is exactly enough to trace the
// helper-wrapper patterns this codebase uses (`zone_sim(z)` returning
// `engine_.shard(map_.shard_of(z))`, private helpers threading a domain
// index down to a schedule call), and the rules built on it (L9/L10) fire
// only on clean identifier-level evidence, so an unresolvable call degrades
// to a missed finding, never a spurious one.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/symbols.hpp"
#include "tools/lint/token.hpp"

namespace spider::lint {

/// Token range [begin, end) of one top-level call argument.
struct ArgRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Split the argument list between `open` (the `(`) and `close` (its match)
/// at top-level commas. An empty list yields no ranges.
std::vector<ArgRange> split_args(const std::vector<Tok>& t, std::size_t open,
                                 std::size_t close);

/// Reduce a shard-index expression to its governing identifier or numeric
/// literal: `z` -> "z", `map_.shard_of(target)` -> "target",
/// `static_cast<ShardId>(d)` -> "d", `0` -> "0". Empty for anything more
/// complex — callers must then skip their check (missed, not false).
std::string reduce_index(const std::vector<Tok>& t, std::size_t begin,
                         std::size_t end);

/// Parameter names of `fn`, in order, from its parameter-list token range.
/// Unnamed or misparsed parameters yield whatever identifier closes the
/// segment; since rules compare names for equality, a wrong name only
/// suppresses checks.
std::vector<std::string> param_names(const TokenStream& stream,
                                     const FunctionSym& fn);

class CallGraph {
 public:
  /// Build from one file's tokens and symbols. `shard_owned` is the merged
  /// (file + paired header) shard-owned member list.
  CallGraph(const TokenStream& stream, const FileSymbols& syms,
            const std::vector<ShardOwnedMember>& shard_owned);

  /// Function definitions carrying this name (overloads merged — the rules
  /// only ever weaken on ambiguity).
  const std::vector<const FunctionSym*>& definitions(
      const std::string& name) const;

  /// Parameter names of a definition previously returned by definitions().
  const std::vector<std::string>& params_of(const FunctionSym& fn) const;

  /// True when calling `name(...)` yields a shard handle: `shard` itself,
  /// or a wrapper whose return statement calls a handle function
  /// (fixpoint, so wrappers of wrappers resolve).
  bool is_handle_fn(const std::string& name) const;

  /// Parameter indices of `name` that flow — possibly through further
  /// helpers — into the index argument of a shard-handle schedule call
  /// (`handle(idx).schedule_at/..._in`). Empty for unknown functions.
  const std::vector<std::size_t>& sched_params(const std::string& name) const;

  /// Shard-owned member names touched by `name`'s body, transitively
  /// through per-TU calls. Empty set for unknown functions.
  const std::set<std::string>& touched_shard_owned(
      const std::string& name) const;

 private:
  const std::vector<Tok>& t_;
  std::map<std::string, std::vector<const FunctionSym*>> defs_;
  std::map<const FunctionSym*, std::vector<std::string>> params_;
  std::set<std::string> handles_;
  std::map<std::string, std::vector<std::size_t>> sched_params_;
  std::map<std::string, std::set<std::string>> touched_;
};

}  // namespace spider::lint
