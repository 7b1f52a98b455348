// tslint's syntactic layer (DESIGN.md §4c): a lightweight recovery pass on
// top of the lexer's token stream that finds function/method boundaries
// (including out-of-line definitions, constructors with member-initializer
// lists, and in-class bodies with their enclosing class), lambda expressions
// with parsed capture lists, and call-expression receiver chains. The
// flow-aware rules — worker-capture-purity and
// handle-resolution-at-construction — are built on this layer instead of on
// raw token windows.
//
// This is deliberately a *recovery* parser, not a grammar: it never fails,
// it tolerates macros and preprocessor noise, and when a construct is too
// ambiguous to classify it errs on the side of silence (a missed finding is
// recoverable by review; a false positive erodes trust in the linter).
#ifndef TOOLS_TSLINT_SYNTAX_H_
#define TOOLS_TSLINT_SYNTAX_H_

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/tslint.h"

namespace tierscape {
namespace tslint {

// ---------------------------------------------------------------------------
// Token-level matching helpers

// `open` indexes a kPunct "(", "[", or "{"; returns the index of the matching
// closer, or tokens.size() when unbalanced (recovery: treat as end of file).
std::size_t MatchForward(const std::vector<Token>& toks, std::size_t open);

// Walks backwards from `last` (the final identifier of a member chain, e.g.
// the `GetCounter` in `slots[i]->obs.metrics.GetCounter`) over
// ident / `::` / `.` / `->` / balanced `[...]` / `(...)` elements. `start` is
// the first token of the chain, `base` the leading identifier ("" when the
// chain starts with something else), and `subscript` whether any receiver
// element is indexed (the disjoint-slot pattern).
struct ChainInfo {
  std::size_t start = 0;
  std::string base;
  bool subscript = false;
  bool starts_with_this = false;
  // (open `[`, close `]`) token indices of every subscript element met while
  // walking the chain. Lets flow-aware rules ask not just "was there a
  // subscript" but "what indexed it" — slot-owned receivers must be indexed
  // by a worker-local (`slots[i]`), not by captured/shared state.
  std::vector<std::pair<std::size_t, std::size_t>> subscripts;
};
ChainInfo WalkChainBack(const std::vector<Token>& toks, std::size_t last);

// ---------------------------------------------------------------------------
// Recovered constructs

// One item of a lambda capture list.
struct Capture {
  std::string name;       // empty for default captures and `this`
  bool by_ref = false;    // `&x` (or the `&` default)
  bool is_this = false;   // `this` / `*this`
  bool is_default = false;  // bare `&` or `=`
  bool has_init = false;  // init-capture `x = expr` (introduces a new name)
};

struct LambdaInfo {
  std::size_t intro = 0;       // token index of the `[`
  std::size_t body_begin = 0;  // token index of the body `{`
  std::size_t body_end = 0;    // token index of the matching `}`
  std::vector<Capture> captures;
  std::vector<std::string> params;  // declared parameter names
  bool default_ref = false;         // `[&...]`
  bool default_copy = false;        // `[=...]`
  bool captures_this = false;       // explicit `this`/`*this` capture
};

enum class FunctionKind {
  kConstructor,  // name matches its class (out-of-line `X::X` or in-class)
  kInitLike,     // Init*/Register*/Resolve*/Setup*/Build* — one-time wiring
  kOther,
};

// A function *definition* (has a body). The span [name_token, body_end]
// covers the signature, any constructor member-initializer list, and the
// body, so "inside the constructor" includes init-list expressions.
struct FunctionInfo {
  std::string name;       // unqualified (last component)
  std::string qualifier;  // `X` for `X::f`, or the enclosing class for
                          // in-class definitions; empty for free functions
  std::size_t name_token = 0;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  FunctionKind kind = FunctionKind::kOther;
};

struct SyntaxInfo {
  std::vector<FunctionInfo> functions;  // definitions, in token order
  std::vector<LambdaInfo> lambdas;      // all lambda expressions, in order
  // Token indices that are the *name* position of a function declaration or
  // definition — call-site rules skip these (a declaration is not a call).
  std::set<std::size_t> decl_name_tokens;
};

// Single recovery pass over a lexed file.
SyntaxInfo ScanSyntax(const LexedFile& file);

// Argument spans (token ranges, half-open) of every `.Submit(...)` /
// `.ParallelFor(...)` member call: the token ranges whose lambdas are
// ThreadPool worker bodies (thread_pool.h).
std::vector<std::pair<std::size_t, std::size_t>> WorkerCallSpans(
    const std::vector<Token>& toks);

// Innermost function whose [name_token, body_end] span contains `tok`;
// nullptr when `tok` is at namespace scope.
const FunctionInfo* EnclosingFunction(const SyntaxInfo& syntax, std::size_t tok);

// True when `tok` falls inside any of the given spans.
bool InAnySpan(const std::vector<std::pair<std::size_t, std::size_t>>& spans,
               std::size_t tok);

}  // namespace tslint
}  // namespace tierscape

#endif  // TOOLS_TSLINT_SYNTAX_H_
