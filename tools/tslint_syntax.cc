#include "tools/tslint_syntax.h"

#include <algorithm>

namespace tierscape {
namespace tslint {

namespace {

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

// Keywords that can precede `(` without being a call/definition name, plus
// statement keywords that can legally precede a lambda-introducer or a call
// expression at statement start.
const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> kSet = {
      "if",       "for",      "while",   "switch",     "return",   "sizeof",
      "alignof",  "decltype", "typeid",  "static_assert", "assert", "defined",
      "new",      "delete",   "throw",   "case",       "goto",     "else",
      "do",       "using",    "typedef", "co_await",   "co_return", "co_yield",
      "operator", "catch",    "namespace",
  };
  return kSet;
}

}  // namespace

std::size_t MatchForward(const std::vector<Token>& toks, std::size_t open) {
  if (open >= toks.size() || toks[open].kind != TokenKind::kPunct) return toks.size();
  const std::string& o = toks[open].text;
  std::string c;
  if (o == "(") c = ")";
  else if (o == "[") c = "]";
  else if (o == "{") c = "}";
  else return toks.size();
  int depth = 0;
  for (std::size_t k = open; k < toks.size(); ++k) {
    // Preprocessor tokens never participate in brace/paren balance: a macro
    // body like `#define LOOP_BEGIN {` must not corrupt function spans.
    if (k != open && toks[k].in_preprocessor) continue;
    if (toks[k].kind != TokenKind::kPunct) continue;
    if (toks[k].text == o) ++depth;
    if (toks[k].text == c && --depth == 0) return k;
  }
  return toks.size();
}

namespace {

// Forward angle matching for template argument lists: `open` indexes a `<`.
// Returns the matching `>`, or `open` itself when this is evidently a
// comparison (hits `;`/`{`/`}` or end of file before balancing).
std::size_t MatchAngleForward(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t k = open; k < toks.size(); ++k) {
    const Token& t = toks[k];
    if (t.in_preprocessor && k != open) continue;
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "(" || t.text == "[") {
      k = MatchForward(toks, k);
      if (k >= toks.size()) return open;
      continue;
    }
    if (t.text == ";" || t.text == "{" || t.text == "}") return open;
    if (t.text == "<") ++depth;
    if (t.text == ">" && --depth == 0) return k;
  }
  return open;
}

}  // namespace

ChainInfo WalkChainBack(const std::vector<Token>& toks, std::size_t last) {
  ChainInfo info;
  std::size_t k = last;
  while (k >= 2 && (IsPunct(toks[k - 1], ".") || IsPunct(toks[k - 1], "->") ||
                    IsPunct(toks[k - 1], "::"))) {
    std::size_t r = k - 2;  // last token of the receiver element
    bool element_done = false;
    while (!element_done) {
      element_done = true;
      if (IsPunct(toks[r], "]")) {
        info.subscript = true;
        const std::size_t close = r;
        int depth = 0;
        while (r > 0) {
          if (IsPunct(toks[r], "]")) ++depth;
          if (IsPunct(toks[r], "[") && --depth == 0) break;
          --r;
        }
        info.subscripts.emplace_back(r, close);
        if (r == 0) { info.start = 0; return info; }
        --r;
        element_done = false;  // `arr[i]` — still need the array identifier
      } else if (IsPunct(toks[r], ")")) {
        int depth = 0;
        while (r > 0) {
          if (IsPunct(toks[r], ")")) ++depth;
          if (IsPunct(toks[r], "(") && --depth == 0) break;
          --r;
        }
        if (r == 0) { info.start = 0; return info; }
        --r;
        element_done = false;  // `Foo(x)` — the callee identifier precedes
      }
    }
    if (!IsIdent(toks[r])) {
      // Chain bottoms out on something unnamed (e.g. `(expr).x`).
      info.start = r;
      return info;
    }
    k = r;
  }
  info.start = k;
  if (IsIdent(toks[k])) {
    info.base = toks[k].text;
    info.starts_with_this = toks[k].text == "this";
  }
  return info;
}

namespace {

struct ClassScope {
  std::string name;
  std::size_t open = 0;
  std::size_t close = 0;
};

std::vector<ClassScope> CollectClassScopes(const std::vector<Token>& toks) {
  std::vector<ClassScope> scopes;
  for (std::size_t k = 0; k < toks.size(); ++k) {
    const Token& t = toks[k];
    if (!IsIdent(t) || t.in_preprocessor) continue;
    if (t.text != "class" && t.text != "struct") continue;
    if (k > 0 && IsIdent(toks[k - 1]) && toks[k - 1].text == "enum") continue;
    std::size_t j = k + 1;
    std::string name;
    while (j < toks.size()) {
      if (IsIdent(toks[j])) {
        name = toks[j].text;  // last identifier wins (skips macro attributes)
        ++j;
      } else if (IsPunct(toks[j], "::")) {
        ++j;
      } else if (IsPunct(toks[j], "<")) {
        const std::size_t m = MatchAngleForward(toks, j);
        if (m == j) break;
        j = m + 1;
      } else if (IsPunct(toks[j], "[") && j + 1 < toks.size() && IsPunct(toks[j + 1], "[")) {
        j = MatchForward(toks, j) + 1;
      } else {
        break;
      }
    }
    if (j >= toks.size()) continue;
    if (IsPunct(toks[j], ":")) {
      // Base clause: scan to the body `{` (or give up at `;` — fwd decl).
      while (j < toks.size() && !IsPunct(toks[j], "{") && !IsPunct(toks[j], ";")) {
        if (IsPunct(toks[j], "(") || IsPunct(toks[j], "[")) {
          j = MatchForward(toks, j);
          if (j >= toks.size()) break;
        }
        if (IsPunct(toks[j], "<")) {
          const std::size_t m = MatchAngleForward(toks, j);
          if (m != j) j = m;
        }
        ++j;
      }
    }
    if (j < toks.size() && IsPunct(toks[j], "{")) {
      const std::size_t close = MatchForward(toks, j);
      if (close < toks.size()) scopes.push_back({name, j, close});
    }
  }
  return scopes;
}

// Innermost class scope containing token `tok` (or nullptr).
const ClassScope* EnclosingClass(const std::vector<ClassScope>& scopes, std::size_t tok) {
  const ClassScope* best = nullptr;
  for (const ClassScope& s : scopes) {
    if (tok <= s.open || tok >= s.close) continue;
    if (best == nullptr || s.close - s.open < best->close - best->open) best = &s;
  }
  return best;
}

FunctionKind ClassifyFunction(const std::string& name, const std::string& qualifier) {
  if (!name.empty() && name == qualifier) return FunctionKind::kConstructor;
  for (const char* prefix : {"Init", "Register", "Resolve", "Setup", "Build"}) {
    if (name.rfind(prefix, 0) == 0) return FunctionKind::kInitLike;
  }
  return FunctionKind::kOther;
}

void ScanFunctions(const std::vector<Token>& toks, const std::vector<ClassScope>& scopes,
                   SyntaxInfo& out) {
  const std::set<std::string>& kw = ControlKeywords();
  // Token ranges consumed as constructor member-initializer lists. A member
  // init like `next_window_at_(expr)` directly precedes the ctor body `{`, so
  // without this it would be recorded as a function definition of its own.
  std::vector<std::pair<std::size_t, std::size_t>> init_ranges;
  for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
    const Token& t = toks[k];
    if (!IsIdent(t) || t.in_preprocessor || kw.count(t.text) != 0) continue;
    if (!IsPunct(toks[k + 1], "(")) continue;
    {
      bool in_init = false;
      for (const auto& [begin, end] : init_ranges) {
        if (k > begin && k < end) { in_init = true; break; }
      }
      if (in_init) continue;
    }
    const std::size_t close = MatchForward(toks, k + 1);
    if (close >= toks.size()) continue;

    // Qualifier: out-of-line `X::f` wins; otherwise the enclosing class.
    std::string qualifier;
    if (k >= 2 && IsPunct(toks[k - 1], "::") && IsIdent(toks[k - 2])) {
      qualifier = toks[k - 2].text;
    } else if (const ClassScope* cls = EnclosingClass(scopes, k)) {
      qualifier = cls->name;
    }

    // Skip trailing cv/ref qualifiers and specifiers after the param list.
    std::size_t j = close + 1;
    while (j < toks.size()) {
      if (IsIdent(toks[j]) &&
          (toks[j].text == "const" || toks[j].text == "noexcept" || toks[j].text == "override" ||
           toks[j].text == "final" || toks[j].text == "mutable" || toks[j].text == "volatile")) {
        const bool was_noexcept = toks[j].text == "noexcept";
        ++j;
        if (was_noexcept && j < toks.size() && IsPunct(toks[j], "(")) {
          j = MatchForward(toks, j) + 1;
        }
        continue;
      }
      if (IsPunct(toks[j], "&")) { ++j; continue; }  // ref-qualified methods
      if (IsPunct(toks[j], "->")) {
        // Trailing return type: scan to the body `{` or a declaration `;`.
        ++j;
        while (j < toks.size() && !IsPunct(toks[j], "{") && !IsPunct(toks[j], ";")) {
          if (IsPunct(toks[j], "(") || IsPunct(toks[j], "[")) {
            j = MatchForward(toks, j);
            if (j >= toks.size()) break;
          } else if (IsPunct(toks[j], "<")) {
            const std::size_t m = MatchAngleForward(toks, j);
            if (m != j) j = m;
          }
          ++j;
        }
        continue;
      }
      break;
    }
    if (j >= toks.size()) continue;

    const bool ctor_candidate = !t.text.empty() && t.text == qualifier;
    if (IsPunct(toks[j], ":") && ctor_candidate) {
      // Member-initializer list: `name(args) (, name{args})* {`.
      const std::size_t init_start = j;
      ++j;
      while (j < toks.size()) {
        while (j < toks.size() && (IsIdent(toks[j]) || IsPunct(toks[j], "::"))) ++j;
        if (j < toks.size() && IsPunct(toks[j], "<")) {
          const std::size_t m = MatchAngleForward(toks, j);
          if (m != j) j = m + 1;
        }
        if (j < toks.size() && (IsPunct(toks[j], "(") || IsPunct(toks[j], "{"))) {
          j = MatchForward(toks, j) + 1;
        } else {
          break;
        }
        if (j < toks.size() && IsPunct(toks[j], ",")) {
          ++j;
          continue;
        }
        break;
      }
      init_ranges.emplace_back(init_start, std::min(j, toks.size()));
    }
    if (j >= toks.size()) continue;

    if (IsPunct(toks[j], "{")) {
      FunctionInfo fn;
      fn.name = t.text;
      fn.qualifier = qualifier;
      fn.name_token = k;
      fn.body_begin = j;
      fn.body_end = MatchForward(toks, j);
      fn.kind = ClassifyFunction(fn.name, fn.qualifier);
      out.decl_name_tokens.insert(k);
      out.functions.push_back(std::move(fn));
      continue;
    }
    if (IsPunct(toks[j], ";")) {
      // Declaration vs call-statement: a declaration has a type before the
      // (possibly qualified) name; a call at statement start does not.
      std::size_t s = k;
      while (s >= 2 && IsPunct(toks[s - 1], "::") && IsIdent(toks[s - 2])) s -= 2;
      if (s == 0) continue;
      const Token& prev = toks[s - 1];
      const bool type_precedes =
          (IsIdent(prev) && kw.count(prev.text) == 0) || IsPunct(prev, "&") ||
          IsPunct(prev, "*") || IsPunct(prev, ">") || IsPunct(prev, "~");
      if (type_precedes) out.decl_name_tokens.insert(k);
    }
  }
}

void ScanLambdas(const std::vector<Token>& toks, SyntaxInfo& out) {
  const std::set<std::string>& kw = ControlKeywords();
  for (std::size_t k = 0; k < toks.size(); ++k) {
    if (!IsPunct(toks[k], "[") || toks[k].in_preprocessor) continue;
    if (k + 1 < toks.size() && IsPunct(toks[k + 1], "[")) {
      // [[attribute]] — skip the whole group.
      k = MatchForward(toks, k);
      if (k >= toks.size()) break;
      continue;
    }
    if (k > 0) {
      const Token& prev = toks[k - 1];
      const bool subscript_prev =
          (IsIdent(prev) && kw.count(prev.text) == 0) || prev.kind == TokenKind::kNumber ||
          prev.kind == TokenKind::kString || IsPunct(prev, "]") || IsPunct(prev, ")") ||
          IsPunct(prev, "::") || IsPunct(prev, ".") || IsPunct(prev, "->");
      if (subscript_prev) continue;
    }
    const std::size_t close = MatchForward(toks, k);
    if (close >= toks.size()) continue;

    LambdaInfo lam;
    lam.intro = k;
    // Parse the capture list: items split at top-level commas.
    std::size_t a = k + 1;
    while (a < close) {
      std::size_t b = a;
      int depth = 0;
      while (b < close) {
        const Token& t = toks[b];
        if (t.kind == TokenKind::kPunct) {
          if (t.text == "(" || t.text == "[" || t.text == "{" || t.text == "<") ++depth;
          if (t.text == ")" || t.text == "]" || t.text == "}" || t.text == ">") --depth;
          if (t.text == "," && depth == 0) break;
        }
        ++b;
      }
      // Item is toks[a, b).
      if (b > a) {
        Capture cap;
        bool has_eq = false;
        for (std::size_t m = a; m < b; ++m) {
          if (IsPunct(toks[m], "=") && !(m + 1 < b && IsPunct(toks[m + 1], "="))) has_eq = true;
        }
        if (IsPunct(toks[a], "&")) {
          if (b == a + 1) {
            cap.is_default = true;
            lam.default_ref = true;
          } else if (IsIdent(toks[a + 1])) {
            cap.by_ref = true;
            cap.name = toks[a + 1].text;
            cap.has_init = has_eq;
          }
        } else if (IsPunct(toks[a], "=") && b == a + 1) {
          cap.is_default = true;
          lam.default_copy = true;
        } else if (IsIdent(toks[a]) && toks[a].text == "this") {
          cap.is_this = true;
          lam.captures_this = true;
        } else if (IsPunct(toks[a], "*") && a + 1 < b && IsIdent(toks[a + 1]) &&
                   toks[a + 1].text == "this") {
          cap.is_this = true;
          lam.captures_this = true;
        } else if (IsIdent(toks[a])) {
          cap.name = toks[a].text;
          cap.has_init = has_eq;  // init-capture introduces a lambda-local name
        }
        lam.captures.push_back(std::move(cap));
      }
      a = b + 1;
    }

    // Optional parameter list.
    std::size_t j = close + 1;
    if (j < toks.size() && IsPunct(toks[j], "(")) {
      const std::size_t pclose = MatchForward(toks, j);
      if (pclose >= toks.size()) continue;
      std::size_t pa = j + 1;
      while (pa < pclose) {
        std::size_t pb = pa;
        int depth = 0;
        std::string last_ident;
        while (pb < pclose) {
          const Token& t = toks[pb];
          if (t.kind == TokenKind::kPunct) {
            if (t.text == "(" || t.text == "[" || t.text == "{" || t.text == "<") ++depth;
            if (t.text == ")" || t.text == "]" || t.text == "}" || t.text == ">") --depth;
            if (t.text == "," && depth == 0) break;
            if (t.text == "=" && depth == 0) {
              // Default argument: the declared name is before the `=`.
              while (pb < pclose && !(IsPunct(toks[pb], ",") && depth == 0)) ++pb;
              break;
            }
          }
          if (IsIdent(t)) last_ident = t.text;
          ++pb;
        }
        if (!last_ident.empty()) lam.params.push_back(last_ident);
        pa = pb + 1;
      }
      j = pclose + 1;
    }

    // Specifiers, then the body.
    while (j < toks.size()) {
      if (IsIdent(toks[j]) &&
          (toks[j].text == "mutable" || toks[j].text == "constexpr" ||
           toks[j].text == "noexcept")) {
        const bool was_noexcept = toks[j].text == "noexcept";
        ++j;
        if (was_noexcept && j < toks.size() && IsPunct(toks[j], "(")) {
          j = MatchForward(toks, j) + 1;
        }
        continue;
      }
      if (IsPunct(toks[j], "->")) {
        ++j;
        while (j < toks.size() && !IsPunct(toks[j], "{") && !IsPunct(toks[j], ";")) {
          if (IsPunct(toks[j], "(") || IsPunct(toks[j], "[")) {
            j = MatchForward(toks, j);
            if (j >= toks.size()) break;
          } else if (IsPunct(toks[j], "<")) {
            const std::size_t m = MatchAngleForward(toks, j);
            if (m != j) j = m;
          }
          ++j;
        }
        continue;
      }
      break;
    }
    if (j >= toks.size() || !IsPunct(toks[j], "{")) continue;  // not a lambda
    lam.body_begin = j;
    lam.body_end = MatchForward(toks, j);
    out.lambdas.push_back(std::move(lam));
  }
}

}  // namespace

SyntaxInfo ScanSyntax(const LexedFile& file) {
  SyntaxInfo out;
  const std::vector<Token>& toks = file.tokens;
  const std::vector<ClassScope> scopes = CollectClassScopes(toks);
  ScanFunctions(toks, scopes, out);
  ScanLambdas(toks, out);
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> WorkerCallSpans(
    const std::vector<Token>& toks) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
    if (!IsIdent(toks[k]) ||
        (toks[k].text != "ParallelFor" && toks[k].text != "Submit")) {
      continue;
    }
    if (k == 0 || !(IsPunct(toks[k - 1], ".") || IsPunct(toks[k - 1], "->"))) continue;
    if (!IsPunct(toks[k + 1], "(")) continue;
    const std::size_t end = MatchForward(toks, k + 1);
    if (end < toks.size()) spans.emplace_back(k + 2, end);
  }
  return spans;
}

const FunctionInfo* EnclosingFunction(const SyntaxInfo& syntax, std::size_t tok) {
  const FunctionInfo* best = nullptr;
  for (const FunctionInfo& fn : syntax.functions) {
    if (tok < fn.name_token || tok > fn.body_end) continue;
    if (best == nullptr || fn.body_end - fn.name_token < best->body_end - best->name_token) {
      best = &fn;
    }
  }
  return best;
}

bool InAnySpan(const std::vector<std::pair<std::size_t, std::size_t>>& spans,
               std::size_t tok) {
  for (const auto& [begin, end] : spans) {
    if (tok >= begin && tok < end) return true;
  }
  return false;
}

}  // namespace tslint
}  // namespace tierscape
