// tslint — TierScape's repo-native invariant checker (DESIGN.md §4c).
//
// The compiler cannot see the invariants this reproduction lives on: the
// determinism quarantine (no wall clock / unseeded randomness outside the
// wall/ boundary, DESIGN.md §4b), the strict layer DAG, Status-instead-of-
// exceptions, §-cited paper constants, and the ThreadPool purity contract.
// tslint walks src/, bench/, and tests/ with a lightweight C++ tokenizer
// (comments, strings, raw strings, and preprocessor continuations are
// understood, so a banned identifier inside a string literal never trips)
// and enforces each invariant as a distinct named rule with file:line
// diagnostics and optional machine-readable JSONL output.
//
// This is deliberately plain C++ with no external dependencies: the library
// here is linked both by the `tslint` binary (registered under `ctest -L
// lint`) and by tests/tslint_test.cc, which unit-tests the tokenizer and
// rules against in-memory sources.
#ifndef TOOLS_TSLINT_H_
#define TOOLS_TSLINT_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace tierscape {
namespace tslint {

// ---------------------------------------------------------------------------
// Tokenizer

enum class TokenKind {
  kIdentifier,
  kNumber,
  kString,      // ordinary, raw, and char literals (text excludes quotes)
  kPunct,       // single chars plus "::" and "->"
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;
  int line = 0;  // 1-based
  int col = 0;   // 1-based
  // Token belongs to a preprocessor logical line (backslash continuations
  // included); `directive` names it ("include", "define", ...).
  bool in_preprocessor = false;
  std::string directive;
};

struct LexedFile {
  std::string path;                // repo-relative, '/' separators
  std::vector<Token> tokens;       // comments stripped
  std::vector<std::string> lines;  // raw text, for ±N-line context searches
  // Quoted-include paths in order of appearance (token index into `tokens`).
  struct Include {
    std::string path;
    int line = 0;
    bool angled = false;  // <...> system include (never checked for layering)
  };
  std::vector<Include> includes;
};

// Tokenizes C++ source text. Never fails: unterminated constructs are closed
// at end of file (and will usually trip a rule downstream anyway).
LexedFile Lex(const std::string& path, const std::string& content);

// ---------------------------------------------------------------------------
// Diagnostics and allowlist

struct Diagnostic {
  std::string rule;
  std::string file;
  int line = 0;
  int col = 0;
  std::string message;
};

// One entry of tools/tslint_allow.txt: `<rule> <path> <rationale...>`.
// An entry exempts exactly one (rule, file) pair and must carry a non-empty
// justification. determinism-quarantine entries double as the marker that a
// translation unit touches wall-clock state, which arms the wall-prefix rule
// for that file.
struct AllowEntry {
  std::string rule;
  std::string path;
  std::string rationale;
  int line = 0;  // line in the allowlist file, for stale-entry diagnostics
};

// Parses an allowlist. Malformed lines (missing rationale or path) are
// reported as `allowlist` diagnostics against `allow_path`.
std::vector<AllowEntry> ParseAllowlist(const std::string& allow_path,
                                       const std::string& content,
                                       std::vector<Diagnostic>& diags);

// ---------------------------------------------------------------------------
// Rules

inline constexpr const char* kRuleDeterminism = "determinism-quarantine";
inline constexpr const char* kRuleLayering = "layering";
inline constexpr const char* kRuleNoExceptions = "no-exceptions";
inline constexpr const char* kRuleWallPrefix = "wall-prefix";
inline constexpr const char* kRuleCiteConstants = "cite-constants";
inline constexpr const char* kRulePoolPurity = "pool-purity";
inline constexpr const char* kRuleFaultHook = "fault-hook-purity";
inline constexpr const char* kRuleWorkerCapture = "worker-capture-purity";
inline constexpr const char* kRuleHandleResolution = "handle-resolution-at-construction";
inline constexpr const char* kRuleAllowlist = "allowlist";  // tool hygiene

// Every rule tslint enforces, in documentation order. Allowlist entries whose
// rule is not in this list fail the run (`allowlist` diagnostic).
const std::vector<std::string>& AllRuleNames();

// Layer indices of the DAG (CLAUDE.md "Layering"): common → obs → fault →
// mem → {compress, zpool} → zswap → telemetry/solver → tiering → core →
// multitenant → workloads → {tests, bench, examples, tools}. Returns -1 for
// paths outside
// the DAG (non-repo-relative), which the layering rule reports as a style
// violation.
int LayerOf(const std::string& repo_relative_path);

// True for fault-injection hook files: anything under src/fault/ plus any
// file that directly includes src/fault/fault_injector.h. Hook files may
// never read the wall clock — the fault-hook-purity rule reports banned
// identifiers there instead of determinism-quarantine, takes no allowlist
// exemption, and flags a determinism-quarantine allow entry on such a file
// as a violation in its own right (DESIGN.md §4d).
bool IsFaultHookFile(const LexedFile& file);

// True for files whose paper-derived constants must carry a § citation
// within ±3 lines (tier specs, cost model, media specs, telemetry).
bool IsCiteDesignated(const std::string& repo_relative_path);

// Per-file rules (everything except include-graph checks). `allow` is the
// full allowlist; suppressed diagnostics mark their entry used via
// `used_allow` (indices into `allow`).
void CheckFile(const LexedFile& file, const std::vector<AllowEntry>& allow,
               std::vector<bool>& used_allow, std::vector<Diagnostic>& diags);

// Flow-aware rules built on the syntactic layer (tools/tslint_syntax.h);
// CheckFile runs both.
struct SyntaxInfo;  // tools/tslint_syntax.h
void CheckWorkerCapture(const LexedFile& file, const SyntaxInfo& syntax,
                        const std::vector<AllowEntry>& allow, std::vector<bool>& used_allow,
                        std::vector<Diagnostic>& diags);
void CheckHandleResolution(const LexedFile& file, const SyntaxInfo& syntax,
                           const std::vector<AllowEntry>& allow, std::vector<bool>& used_allow,
                           std::vector<Diagnostic>& diags);

// Include-graph rules over the whole scanned set: upward edges, missing
// repo-relative targets, and cycles (a cycle is reported once per
// participating file so fixture accounting sees every member).
void CheckIncludeGraph(const std::map<std::string, LexedFile>& files,
                       std::vector<Diagnostic>& diags);

// Runs everything over an in-memory tree (path → content) in one serial
// pass: each file is lexed and checked in path order, then the include graph
// and allowlist hygiene run over the whole set. Used by the tslint binary
// after walking the real tree and by unit tests directly. Appends
// `allowlist` diagnostics for entries whose path matches no scanned file,
// whose rule name does not exist, or which suppressed nothing (hygiene is
// restricted to entries under top-level directories that were scanned, so a
// run without --self never flags tools/ entries).
std::vector<Diagnostic> LintTree(const std::map<std::string, std::string>& sources,
                                 const std::vector<AllowEntry>& allow,
                                 const std::string& allow_path);

// ---------------------------------------------------------------------------
// Driver helpers (filesystem walk, output, self-test)

struct TreeScan {
  std::map<std::string, std::string> sources;  // repo-relative path → content
  std::vector<std::string> errors;             // unreadable files etc.
};

// Simple `*`-only glob match (gitignore directory patterns).
bool GlobMatch(const std::string& pattern, const std::string& name);

// Directory names tslint refuses to descend into: defaults (build*, .git,
// tslint_fixtures, ...) plus top-level directory patterns from `root`'s
// .gitignore. `root` must itself not live inside an ignored directory —
// ScanTree reports that as an error instead of scanning stale build trees.
std::vector<std::string> IgnoredDirPatterns(const std::string& root);

// Walks {src, bench, tests, examples} under `root` collecting *.h/*.cc/*.cpp
// (repo-relative keys). With `include_tools`, tools/ joins the walk so the
// linter lints itself under the same rules (`tslint --self`, no
// special-casing).
TreeScan ScanTree(const std::string& root, bool include_tools = false);

// JSON-escapes a string (no surrounding quotes).
std::string JsonEscape(const std::string& s);
// One diagnostic as a JSONL object line.
std::string ToJsonl(const Diagnostic& d);
// `file:line:col: [rule] message` for humans.
std::string ToText(const Diagnostic& d);
// The full run as a SARIF 2.1.0 log (single run, one reportingDescriptor per
// rule in AllRuleNames() order, one result per diagnostic) so CI annotates
// findings inline.
std::string ToSarif(const std::vector<Diagnostic>& diags);

// Self-test over a fixture tree: every scanned file must declare
// `// tslint-fixture: <rule>|none` in its first 5 lines and trip exactly the
// declared rule (at least once, and nothing else). Returns 0 on success;
// failures are appended to `failures`.
int SelfTest(const std::string& fixture_root, std::vector<std::string>& failures);

}  // namespace tslint
}  // namespace tierscape

#endif  // TOOLS_TSLINT_H_
