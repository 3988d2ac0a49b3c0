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

    // --- function declarator ------------------------------------------------
    const bool operator_name = tok.text == "operator";
    bool is_fn_candidate = false;
    std::string fn_name;
    std::string fn_cls;
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
      fn.in_anon_namespace = in_anon_namespace();
      Scope* cls = current_class();
      if (!fn_cls.empty()) {
        fn.cls = fn_cls;
      } else if (cls != nullptr) {
        fn.cls = cls->name;
      }
      if (cls != nullptr) fn.access = cls->access;

      // Trailer: const/noexcept/ref-qualifiers/override/final, trailing
      // return; then body, ctor-init list, `= ...;`, or `;`.
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

}  // namespace spider::lint
