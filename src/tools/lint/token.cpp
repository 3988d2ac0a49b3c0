#include "tools/lint/token.hpp"

#include <cctype>

namespace spider::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

/// Trimmed view of the expression following a directive word, e.g. the "0"
/// of `#if 0  // why`.
std::string_view pp_expression(const Line& line) {
  std::string_view code = line.code;
  std::size_t i = code.find('#');
  if (i == std::string_view::npos) return {};
  ++i;
  while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
  while (i < code.size() && ident_char(code[i])) ++i;  // directive word
  while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
  std::size_t j = code.size();
  while (j > i && (code[j - 1] == ' ' || code[j - 1] == '\t')) --j;
  return code.substr(i, j - i);
}

}  // namespace

std::string_view pp_directive(const Line& line) {
  if (!is_preprocessor(line)) return {};
  std::string_view code = line.code;
  std::size_t i = code.find('#');
  ++i;
  while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
  std::size_t j = i;
  while (j < code.size() && ident_char(code[j])) ++j;
  return code.substr(i, j - i);
}

std::vector<bool> inactive_pp_lines(const SourceFile& file) {
  std::vector<bool> inactive(file.lines.size(), false);
  bool dead = false;       // inside an `#if 0` region
  int dead_nesting = 0;    // conditionals opened inside the dead region
  for (std::size_t l = 0; l < file.lines.size(); ++l) {
    const Line& line = file.lines[l];
    const std::string_view d = pp_directive(line);
    if (dead) {
      if (d == "if" || d == "ifdef" || d == "ifndef") {
        ++dead_nesting;
      } else if (d == "endif") {
        if (dead_nesting > 0) {
          --dead_nesting;
        } else {
          dead = false;
          continue;  // the #endif itself is live
        }
      } else if (d == "else" && dead_nesting == 0) {
        dead = false;
        continue;
      }
      inactive[l] = true;
      continue;
    }
    if (d == "if") {
      const std::string_view expr = pp_expression(line);
      if (expr == "0" || expr == "false") {
        dead = true;
        dead_nesting = 0;
      }
    }
    // `#else` after a taken branch would also be dead; tracking only the
    // `#if 0` idiom keeps the scanner honest about what it understands.
  }
  return inactive;
}

std::size_t matching_close(const std::vector<Tok>& tokens, std::size_t open) {
  if (open >= tokens.size() || tokens[open].kind != TokKind::kPunct ||
      tokens[open].text.size() != 1) {
    return tokens.size();
  }
  const char o = tokens[open].text[0];
  const char c = o == '(' ? ')' : o == '{' ? '}' : o == '[' ? ']'
                                                : o == '<' ? '>' : '\0';
  if (c == '\0') return tokens.size();
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    const Tok& t = tokens[i];
    if (t.kind != TokKind::kPunct || t.text.size() != 1) continue;
    if (t.text[0] == o) ++depth;
    if (t.text[0] == c && --depth == 0) return i;
  }
  return tokens.size();
}

TokenStream tokenize(const SourceFile& file) {
  TokenStream out;
  const std::vector<bool> inactive = inactive_pp_lines(file);
  for (std::size_t l = 0; l < file.lines.size(); ++l) {
    const Line& line = file.lines[l];
    if (inactive[l] || is_preprocessor(line)) continue;
    const std::string& code = line.code;
    std::size_t i = 0;
    while (i < code.size()) {
      const char c = code[i];
      if (c == ' ' || c == '\t') {
        ++i;
        continue;
      }
      Tok tok;
      tok.line = l;
      tok.col = i;
      if (ident_start(c)) {
        std::size_t j = i;
        while (j < code.size() && ident_char(code[j])) ++j;
        tok.kind = TokKind::kIdent;
        tok.text = code.substr(i, j - i);
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        // pp-number, mirroring the scanner's lexing: identifier characters,
        // '.', digit separators, signed exponents.
        std::size_t j = i;
        while (j < code.size()) {
          const char d = code[j];
          if (ident_char(d) || d == '.') {
            ++j;
          } else if (d == '\'' && j + 1 < code.size() &&
                     std::isalnum(static_cast<unsigned char>(code[j + 1]))) {
            ++j;
          } else if ((d == '+' || d == '-') && j > i &&
                     (code[j - 1] == 'e' || code[j - 1] == 'E' ||
                      code[j - 1] == 'p' || code[j - 1] == 'P')) {
            ++j;
          } else {
            break;
          }
        }
        tok.kind = TokKind::kNumber;
        tok.text = code.substr(i, j - i);
        i = j;
      } else if (c == '"' || c == '\'') {
        // Contents are blanked; skip to the closing delimiter when present
        // on this line (multi-line raw strings leave lone delimiters).
        tok.kind = c == '"' ? TokKind::kString : TokKind::kChar;
        tok.text = std::string(1, c);
        const std::size_t close = code.find(c, i + 1);
        i = close == std::string::npos ? code.size() : close + 1;
      } else {
        tok.kind = TokKind::kPunct;
        if (i + 1 < code.size() &&
            ((c == ':' && code[i + 1] == ':') ||
             (c == '-' && code[i + 1] == '>'))) {
          tok.text = code.substr(i, 2);
          i += 2;
        } else {
          tok.text = std::string(1, c);
          ++i;
        }
      }
      out.tokens.push_back(std::move(tok));
    }
  }
  return out;
}

}  // namespace spider::lint
