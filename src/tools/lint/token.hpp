// spiderlint tokenizer: the scanned lines (scan.hpp) re-joined into a flat
// C++ token stream.
//
// scan_source() already blanks comments and literal contents with columns
// preserved, so tokenization is a single pass over `Line::code`: identifiers,
// pp-numbers (digit separators, exponents, hex), string/char delimiters, and
// punctuation (with `::` and `->` kept as single tokens — rules that balance
// template angle brackets rely on `<`/`>` staying single characters).
//
// Preprocessor lines produce no tokens, and lines inside `#if 0` /
// `#if false` regions are skipped entirely — dead code cannot trip a rule.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lint/scan.hpp"

namespace spider::lint {

enum class TokKind {
  kIdent,   ///< identifier or keyword
  kNumber,  ///< pp-number (integer, float, hex, digit-separated)
  kString,  ///< string literal (contents blanked by the scanner)
  kChar,    ///< character literal (contents blanked by the scanner)
  kPunct,   ///< punctuation; "::" and "->" are single tokens
};

struct Tok {
  TokKind kind = TokKind::kPunct;
  std::string text;
  std::size_t line = 0;  ///< 0-based line index into SourceFile::lines
  std::size_t col = 0;   ///< 0-based column of the first character
};

struct TokenStream {
  std::vector<Tok> tokens;
};

/// Tokenize the scanned file. Never fails.
TokenStream tokenize(const SourceFile& file);

/// The directive word of a preprocessor line ("include", "if", "endif", ...);
/// empty when the line is not a preprocessor line.
std::string_view pp_directive(const Line& line);

/// Per-line map of `#if 0`/`#if false` regions: `true` means the line is
/// preprocessed away (the controlling directives themselves stay active).
std::vector<bool> inactive_pp_lines(const SourceFile& file);

/// True when `t` is the punctuation `p`.
inline bool is_punct(const Tok& t, std::string_view p) {
  return t.kind == TokKind::kPunct && t.text == p;
}

/// True when `t` is the identifier `name`.
inline bool is_ident(const Tok& t, std::string_view name) {
  return t.kind == TokKind::kIdent && t.text == name;
}

/// Index of the punctuation matching the opener at `open` (e.g. '(' -> ')',
/// '{' -> '}', '<' -> '>'), or `tokens.size()` when unbalanced. `open` must
/// point at the opening token.
std::size_t matching_close(const std::vector<Tok>& tokens, std::size_t open);

}  // namespace spider::lint
