#include "tools/lint/symbols.hpp"

#include <array>
#include <string_view>

namespace spider::lint {

namespace {

/// Identifiers that can never be a declared function name; seeing one
/// before '(' means a cast, control construct, or function-type template
/// argument, not a declarator.
bool never_a_function_name(std::string_view s) {
  static constexpr std::array<std::string_view, 24> kBlocked = {
      "if",     "for",      "while",    "switch",  "return", "sizeof",
      "new",    "delete",   "throw",    "catch",   "void",   "int",
      "bool",   "char",     "double",   "float",   "long",   "short",
      "unsigned", "signed", "auto",     "decltype", "alignof",
      "static_assert"};
  for (std::string_view b : kBlocked) {
    if (s == b) return true;
  }
  return false;
}

struct Scope {
  enum class Kind { kNamespace, kClass, kBlock };
  Kind kind = Kind::kBlock;
  std::string name;
  Access access = Access::kPublic;
  bool anon = false;  ///< anonymous namespace
};

/// Flatten [begin, end) token texts into a single space-joined string.
std::string flatten(const std::vector<Tok>& t, std::size_t begin,
                    std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end && i < t.size(); ++i) {
    if (!out.empty()) out.push_back(' ');
    out += t[i].text;
  }
  return out;
}

}  // namespace

FileSymbols index_symbols(const TokenStream& stream) {
  const std::vector<Tok>& t = stream.tokens;
  FileSymbols out;
  std::vector<Scope> scopes;
  bool stmt_saw_eq = false;

  auto current_class = [&]() -> Scope* {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == Scope::Kind::kClass) return &*it;
      if (it->kind == Scope::Kind::kBlock) return nullptr;
    }
    return nullptr;
  };
  auto in_anon_namespace = [&]() {
    for (const Scope& s : scopes) {
      if (s.kind == Scope::Kind::kNamespace && s.anon) return true;
    }
    return false;
  };
  auto at_decl_scope = [&]() {
    return scopes.empty() || scopes.back().kind != Scope::Kind::kBlock;
  };

  std::size_t i = 0;
  while (i < t.size()) {
    const Tok& tok = t[i];

    if (tok.kind == TokKind::kPunct) {
      if (tok.text == ";") stmt_saw_eq = false;
      if (tok.text == "=") stmt_saw_eq = true;
      if (tok.text == "{") {
        scopes.push_back(Scope{Scope::Kind::kBlock, "", Access::kPublic, false});
        stmt_saw_eq = false;
      }
      if (tok.text == "}") {
        if (!scopes.empty()) scopes.pop_back();
        stmt_saw_eq = false;
      }
      ++i;
      continue;
    }

    if (tok.kind != TokKind::kIdent) {
      ++i;
      continue;
    }

    // --- namespace ----------------------------------------------------------
    if (tok.text == "namespace" && at_decl_scope()) {
      std::size_t j = i + 1;
      std::string name;
      while (j < t.size() &&
             (t[j].kind == TokKind::kIdent || is_punct(t[j], "::"))) {
        name += t[j].text;
        ++j;
      }
      if (j < t.size() && is_punct(t[j], "{")) {
        scopes.push_back(Scope{Scope::Kind::kNamespace, name, Access::kPublic,
                               name.empty()});
        i = j + 1;
        continue;
      }
      i = j;  // alias or using-directive; fall through statement-wise
      continue;
    }

    // --- enum: skip the enumerator block ------------------------------------
    // Enumerator identifiers must not leak into the surrounding scope's
    // declaration parsing (kFoo = 3 is not a member).
    if (tok.text == "enum" && at_decl_scope()) {
      std::size_t j = i + 1;
      while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";")) ++j;
      if (j < t.size() && is_punct(t[j], "{")) j = matching_close(t, j);
      i = j + 1;
      continue;
    }

    // --- template head ------------------------------------------------------
    if (tok.text == "template") {
      if (i + 1 < t.size() && is_punct(t[i + 1], "<")) {
        out.template_head_lines.push_back(tok.line);
        i = matching_close(t, i + 1) + 1;
        continue;
      }
      ++i;
      continue;
    }

    // --- class / struct head ------------------------------------------------
    if ((tok.text == "class" || tok.text == "struct") && at_decl_scope()) {
      std::size_t j = i + 1;
      std::string name;
      if (j < t.size() && t[j].kind == TokKind::kIdent) {
        name = t[j].text;
        ++j;
      }
      // Scan to '{' (definition) or ';' (forward decl / member of this
      // elaborated type), balancing parens/angles in base clauses.
      int depth = 0;
      while (j < t.size()) {
        if (t[j].kind == TokKind::kPunct && t[j].text.size() == 1) {
          const char c = t[j].text[0];
          if (c == '(' || c == '<' || c == '[') ++depth;
          if (c == ')' || c == '>' || c == ']') --depth;
          if (depth == 0 && (c == '{' || c == ';')) break;
        }
        ++j;
      }
      if (j < t.size() && is_punct(t[j], "{")) {
        out.classes.push_back(ClassSym{name, tok.line});
        scopes.push_back(Scope{Scope::Kind::kClass, name,
                               tok.text == "struct" ? Access::kPublic
                                                    : Access::kPrivate,
                               false});
        i = j + 1;
        continue;
      }
      i = j + 1;
      continue;
    }

    // --- access specifiers --------------------------------------------------
    if ((tok.text == "public" || tok.text == "protected" ||
         tok.text == "private") &&
        i + 1 < t.size() && is_punct(t[i + 1], ":") && !scopes.empty() &&
        scopes.back().kind == Scope::Kind::kClass) {
      scopes.back().access = tok.text == "public"    ? Access::kPublic
                             : tok.text == "private" ? Access::kPrivate
                                                     : Access::kProtected;
      i += 2;
      continue;
    }

    // --- SPIDER_GUARDED_BY on a member declaration --------------------------
    if (tok.text == "SPIDER_GUARDED_BY" && i + 1 < t.size() &&
        is_punct(t[i + 1], "(")) {
      const std::size_t close = matching_close(t, i + 1);
      Scope* cls = current_class();
      if (cls != nullptr && i >= 1 && t[i - 1].kind == TokKind::kIdent) {
        out.guarded.push_back(GuardedMember{
            cls->name, t[i - 1].text, flatten(t, i + 2, close), tok.line});
      }
      i = close + 1;
      continue;
    }

    // --- function declarator ------------------------------------------------
    const bool operator_name = tok.text == "operator";
    bool is_fn_candidate = false;
    std::string fn_name;
    std::string fn_cls;
    bool dtor = false;
    std::size_t params_open = 0;

    if (at_decl_scope() && !stmt_saw_eq && !never_a_function_name(tok.text)) {
      if (operator_name) {
        // operator<op>, operator(), operator"" _suffix, operator bool.
        std::size_t j = i + 1;
        fn_name = "operator";
        if (j < t.size() && is_punct(t[j], "(") &&
            matching_close(t, j) == j + 1 && j + 2 < t.size() &&
            is_punct(t[j + 2], "(")) {
          fn_name += "()";
          params_open = j + 2;
          is_fn_candidate = true;
        } else {
          while (j < t.size() && !is_punct(t[j], "(")) {
            fn_name += t[j].text;
            ++j;
          }
          if (j < t.size()) {
            params_open = j;
            is_fn_candidate = true;
          }
        }
      } else if (i + 1 < t.size() && is_punct(t[i + 1], "(")) {
        fn_name = tok.text;
        params_open = i + 1;
        is_fn_candidate = true;
        // Qualifier / destructor context from the preceding tokens.
        if (i >= 1 && is_punct(t[i - 1], "~")) {
          dtor = true;
          if (i >= 2 && is_punct(t[i - 2], "::") && i >= 3 &&
              t[i - 3].kind == TokKind::kIdent) {
            fn_cls = t[i - 3].text;
          } else if (Scope* cls = current_class(); cls != nullptr) {
            fn_cls = cls->name;
          }
        } else if (i >= 1 && is_punct(t[i - 1], "::") && i >= 2 &&
                   t[i - 2].kind == TokKind::kIdent) {
          fn_cls = t[i - 2].text;
        }
      }
    }

    if (is_fn_candidate) {
      const std::size_t params_close = matching_close(t, params_open);
      if (params_close >= t.size()) {
        ++i;
        continue;
      }
      FunctionSym fn;
      fn.name = fn_name;
      fn.line = tok.line;
      fn.in_anon_namespace = in_anon_namespace();
      fn.ctor_or_dtor = dtor;
      fn.params = flatten(t, params_open + 1, params_close);
      Scope* cls = current_class();
      if (!fn_cls.empty()) {
        fn.cls = fn_cls;
      } else if (cls != nullptr) {
        fn.cls = cls->name;
      }
      if (cls != nullptr) fn.access = cls->access;
      if (!fn.cls.empty() && fn.name == fn.cls) fn.ctor_or_dtor = true;

      // Trailer: const/noexcept/ref-qualifiers/override/final, lock
      // annotations, trailing return; then body, ctor-init list, `= ...;`,
      // or `;`.
      std::size_t j = params_close + 1;
      bool parsed = false;
      while (j < t.size() && !parsed) {
        const Tok& tr = t[j];
        if (tr.kind == TokKind::kIdent &&
            (tr.text == "const" || tr.text == "noexcept" ||
             tr.text == "override" || tr.text == "final")) {
          ++j;
          // noexcept(...) form
          if (j < t.size() && tr.text == "noexcept" && is_punct(t[j], "(")) {
            j = matching_close(t, j) + 1;
          }
          continue;
        }
        if (is_ident(tr, "SPIDER_REQUIRES") && j + 1 < t.size() &&
            is_punct(t[j + 1], "(")) {
          const std::size_t close = matching_close(t, j + 1);
          fn.requires_mutexes.push_back(flatten(t, j + 2, close));
          j = close + 1;
          continue;
        }
        if (is_punct(tr, "&") || is_punct(tr, "&&")) {
          ++j;
          continue;
        }
        if (is_punct(tr, "->")) {
          // Trailing return type: skip until '{' or ';' at depth 0.
          ++j;
          int depth = 0;
          while (j < t.size()) {
            if (t[j].kind == TokKind::kPunct && t[j].text.size() == 1) {
              const char c = t[j].text[0];
              if (c == '(' || c == '<' || c == '[') ++depth;
              if (c == ')' || c == '>' || c == ']') --depth;
              if (depth == 0 && (c == '{' || c == ';')) break;
            }
            ++j;
          }
          continue;
        }
        if (is_punct(tr, ":")) {
          // Ctor-init list: members initialized with (...) or {...},
          // comma-separated; the first '{' not belonging to a member
          // initializer opens the body.
          ++j;
          while (j < t.size()) {
            // member name (possibly qualified template base)
            while (j < t.size() && !is_punct(t[j], "(") &&
                   !is_punct(t[j], "{") && !is_punct(t[j], ",")) {
              if (is_punct(t[j], "<")) {
                j = matching_close(t, j) + 1;
                continue;
              }
              ++j;
            }
            if (j >= t.size()) break;
            if (is_punct(t[j], ",")) {
              ++j;
              continue;
            }
            const bool brace_init = is_punct(t[j], "{");
            const bool is_member_init =
                j >= 1 && (t[j - 1].kind == TokKind::kIdent ||
                           is_punct(t[j - 1], ">"));
            if (brace_init && !is_member_init) break;  // the body
            j = matching_close(t, j) + 1;
            if (j < t.size() && is_punct(t[j], ",")) ++j;
          }
          continue;
        }
        if (is_punct(tr, "=")) {
          // = default / = delete / = 0: declaration only.
          while (j < t.size() && !is_punct(t[j], ";")) ++j;
          fn.is_definition = false;
          out.functions.push_back(fn);
          i = j + 1;
          parsed = true;
          continue;
        }
        if (is_punct(tr, ";")) {
          fn.is_definition = false;
          out.functions.push_back(fn);
          i = j + 1;
          parsed = true;
          continue;
        }
        if (is_punct(tr, "{")) {
          const std::size_t body_close = matching_close(t, j);
          fn.is_definition = true;
          fn.body_begin = j + 1;
          fn.body_end = body_close;
          out.functions.push_back(fn);
          i = body_close + 1;
          parsed = true;
          continue;
        }
        // Unexpected trailer (misdetected declarator, macro, template-arg
        // function type): abandon, resume right after the parameter list.
        break;
      }
      if (!parsed) i = params_close + 1;
      continue;
    }

    ++i;
  }
  return out;
}

bool LambdaSym::captures_this() const {
  for (const LambdaCapture& c : captures) {
    if (c.kind == CaptureKind::kThis || c.kind == CaptureKind::kStarThis ||
        c.kind == CaptureKind::kDefaultRef ||
        c.kind == CaptureKind::kDefaultValue) {
      return true;
    }
  }
  return false;
}

bool LambdaSym::has_ref_default() const {
  for (const LambdaCapture& c : captures) {
    if (c.kind == CaptureKind::kDefaultRef) return true;
  }
  return false;
}

bool LambdaSym::has_value_default() const {
  for (const LambdaCapture& c : captures) {
    if (c.kind == CaptureKind::kDefaultValue) return true;
  }
  return false;
}

namespace {

/// Parse the capture list between `open` (the `[`) and its matching `]`.
/// Returns false on any construct the parser does not understand.
bool parse_captures(const std::vector<Tok>& t, std::size_t open,
                    std::size_t close, std::vector<LambdaCapture>& out) {
  std::size_t i = open + 1;
  while (i < close) {
    LambdaCapture cap;
    cap.line = t[i].line;
    if (is_punct(t[i], "&")) {
      if (i + 1 >= close || is_punct(t[i + 1], ",")) {
        cap.kind = CaptureKind::kDefaultRef;
        ++i;
      } else if (t[i + 1].kind == TokKind::kIdent) {
        cap.kind = CaptureKind::kByRef;
        cap.name = t[i + 1].text;
        i += 2;
      } else if (is_punct(t[i + 1], "...")) {
        // `&...name` pack init-capture — tokenized as dots below.
        cap.kind = CaptureKind::kByRef;
        ++i;
      } else {
        return false;
      }
    } else if (is_punct(t[i], "=")) {
      // A lone `=` is the value default; `= expr` only follows a name and
      // is consumed by the init-capture scan below, so reaching `=` here
      // with more tokens following that are not `,` means a misparse.
      if (i + 1 < close && !is_punct(t[i + 1], ",")) return false;
      cap.kind = CaptureKind::kDefaultValue;
      ++i;
    } else if (is_ident(t[i], "this")) {
      cap.kind = CaptureKind::kThis;
      ++i;
    } else if (is_punct(t[i], "*") && i + 1 < close &&
               is_ident(t[i + 1], "this")) {
      cap.kind = CaptureKind::kStarThis;
      i += 2;
    } else if (is_punct(t[i], ".")) {
      // Pack expansion dots (`xs...`): attach to the previous capture.
      ++i;
      continue;
    } else if (t[i].kind == TokKind::kIdent) {
      cap.kind = CaptureKind::kByValue;
      cap.name = t[i].text;
      ++i;
    } else {
      return false;
    }

    // Init-capture: `name = expr` / `&name = expr`; the expression runs to
    // the next top-level comma (matching_close skips nested groups).
    if (i < close && is_punct(t[i], "=") &&
        (cap.kind == CaptureKind::kByRef ||
         cap.kind == CaptureKind::kByValue)) {
      cap.init = true;
      ++i;
      int depth = 0;
      while (i < close) {
        if (t[i].kind == TokKind::kPunct && t[i].text.size() == 1) {
          const char c = t[i].text[0];
          if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
          if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
          if (depth == 0 && c == ',') break;
        }
        if (!cap.init_expr.empty()) cap.init_expr.push_back(' ');
        cap.init_expr += t[i].text;
        ++i;
      }
    }
    out.push_back(std::move(cap));

    // Trailing pack dots after the name (`args...`).
    while (i < close && is_punct(t[i], ".")) ++i;
    if (i < close) {
      if (!is_punct(t[i], ",")) return false;
      ++i;
      if (i >= close) return false;  // trailing comma
    }
  }
  return true;
}

}  // namespace

std::vector<LambdaSym> find_lambdas(const TokenStream& stream) {
  const std::vector<Tok>& t = stream.tokens;
  std::vector<LambdaSym> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!lambda_intro_at(t, i)) continue;
    const std::size_t close = matching_close(t, i);
    if (close >= t.size()) continue;

    LambdaSym lam;
    lam.intro = i;
    lam.line = t[i].line;
    lam.col = t[i].col;
    const bool captures_ok = parse_captures(t, i, close, lam.captures);

    // After `]`: optional template parameters, parameter list, specifiers
    // (mutable/constexpr/noexcept(...)/static), attributes, and a trailing
    // return type — then the body `{`. Anything else means this was not a
    // lambda (or not one we understand): record it unparsed.
    std::size_t j = close + 1;
    bool found_body = false;
    while (j < t.size()) {
      const Tok& tr = t[j];
      if (is_punct(tr, "<") || is_punct(tr, "(")) {
        const std::size_t g = matching_close(t, j);
        if (g >= t.size()) break;
        j = g + 1;
        continue;
      }
      if (is_punct(tr, "[") && j + 1 < t.size() && is_punct(t[j + 1], "[")) {
        const std::size_t g = matching_close(t, j);  // outer of `[[...]]`
        if (g >= t.size()) break;
        j = g + 1;
        continue;
      }
      if (tr.kind == TokKind::kIdent &&
          (tr.text == "mutable" || tr.text == "constexpr" ||
           tr.text == "consteval" || tr.text == "static" ||
           tr.text == "noexcept")) {
        ++j;
        continue;
      }
      if (is_punct(tr, "->")) {
        // Trailing return type: skip to the body `{` at depth 0.
        ++j;
        int depth = 0;
        while (j < t.size()) {
          if (t[j].kind == TokKind::kPunct && t[j].text.size() == 1) {
            const char c = t[j].text[0];
            if (c == '(' || c == '<' || c == '[') ++depth;
            if (c == ')' || c == '>' || c == ']') --depth;
            if (depth == 0 && (c == '{' || c == ';')) break;
          }
          ++j;
        }
        continue;
      }
      if (is_punct(tr, "{")) {
        const std::size_t body_close = matching_close(t, j);
        if (body_close >= t.size()) break;
        lam.body_begin = j + 1;
        lam.body_end = body_close;
        found_body = true;
      }
      break;
    }
    lam.parsed = captures_ok && found_body;
    if (found_body) out.push_back(std::move(lam));
  }
  return out;
}

}  // namespace spider::lint
