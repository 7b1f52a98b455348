#include "tools/tslint.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <tuple>

#include "tools/tslint_syntax.h"

namespace tierscape {
namespace tslint {

namespace {

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

const std::vector<std::string>& AllRuleNames() {
  static const std::vector<std::string> kRules = {
      kRuleDeterminism,   kRuleLayering,   kRuleNoExceptions,  kRuleWallPrefix,
      kRuleCiteConstants, kRulePoolPurity, kRuleFaultHook,     kRuleWorkerCapture,
      kRuleHandleResolution, kRuleAllowlist,
  };
  return kRules;
}

// ---------------------------------------------------------------------------
// Tokenizer

LexedFile Lex(const std::string& path, const std::string& content) {
  LexedFile out;
  out.path = path;

  // Raw lines for ±N-line context searches (cite-constants, fixture markers).
  {
    std::string line;
    for (char c : content) {
      if (c == '\n') {
        out.lines.push_back(line);
        line.clear();
      } else if (c != '\r') {
        line += c;
      }
    }
    out.lines.push_back(line);
  }

  std::size_t i = 0;
  const std::size_t n = content.size();
  int line = 1;
  int col = 1;
  bool line_has_token = false;   // only whitespace seen so far on this line?
  bool in_preproc = false;       // inside a preprocessor logical line
  std::string directive;         // current directive name ("include", ...)
  bool directive_pending = false;  // saw '#', first identifier names it

  auto advance = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && i < n; ++k, ++i) {
      if (content[i] == '\n') {
        ++line;
        col = 1;
        line_has_token = false;
      } else {
        ++col;
      }
    }
  };

  auto push = [&](TokenKind kind, std::string text, int tok_line, int tok_col) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.line = tok_line;
    t.col = tok_col;
    t.in_preprocessor = in_preproc;
    t.directive = in_preproc ? directive : std::string();
    out.tokens.push_back(std::move(t));
  };

  while (i < n) {
    const char c = content[i];

    if (c == '\n') {
      if (in_preproc) {
        // A preprocessor logical line ends at a newline not escaped by '\'.
        std::size_t back = i;
        bool continued = false;
        while (back > 0) {
          const char prev = content[back - 1];
          if (prev == '\\') {
            continued = true;
            break;
          }
          if (prev == ' ' || prev == '\t' || prev == '\r') {
            --back;
            continue;
          }
          break;
        }
        if (!continued) {
          in_preproc = false;
          directive.clear();
          directive_pending = false;
        }
      }
      advance(1);
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' || c == '\\') {
      advance(1);
      continue;
    }

    // Comments.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      while (i < n && content[i] != '\n') advance(1);
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      advance(2);
      while (i < n && !(content[i] == '*' && i + 1 < n && content[i + 1] == '/')) advance(1);
      advance(2);
      continue;
    }

    // Preprocessor line start: '#' as the first non-whitespace on the line.
    if (c == '#' && !line_has_token && !in_preproc) {
      in_preproc = true;
      directive_pending = true;
      line_has_token = true;
      advance(1);
      continue;
    }

    line_has_token = true;
    const int tok_line = line;
    const int tok_col = col;

    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && content[i + 1] == '"') {
      std::size_t d = i + 2;
      std::string delim;
      while (d < n && content[d] != '(' && content[d] != '\n' && delim.size() <= 16) {
        delim += content[d];
        ++d;
      }
      if (d < n && content[d] == '(') {
        const std::string closer = ")" + delim + "\"";
        advance(d + 1 - i);  // past R"delim(
        std::string body;
        while (i < n && content.compare(i, closer.size(), closer) != 0) {
          body += content[i];
          advance(1);
        }
        advance(closer.size());
        push(TokenKind::kString, std::move(body), tok_line, tok_col);
        continue;
      }
      // 'R' not starting a raw string: fall through as identifier below.
    }

    // String / char literals (also consumes C++14 digit separators' quotes
    // only when they genuinely open a char literal — number lexing below
    // claims separators inside numeric tokens first).
    if (c == '"' || c == '\'') {
      const char quote = c;
      advance(1);
      std::string body;
      while (i < n && content[i] != quote) {
        if (content[i] == '\\' && i + 1 < n) {
          body += content[i];
          body += content[i + 1];
          advance(2);
          continue;
        }
        if (content[i] == '\n') break;  // unterminated: close at line end
        body += content[i];
        advance(1);
      }
      if (i < n && content[i] == quote) advance(1);
      push(TokenKind::kString, std::move(body), tok_line, tok_col);
      continue;
    }

    // Numbers (including 0x..., separators, exponents, suffixes).
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(content[i + 1]))) {
      std::string text;
      bool prev_exp = false;
      while (i < n) {
        const char d = content[i];
        if (IsIdentChar(d) || d == '.' || d == '\'' || (prev_exp && (d == '+' || d == '-'))) {
          prev_exp = (d == 'e' || d == 'E' || d == 'p' || d == 'P');
          text += d;
          advance(1);
          continue;
        }
        break;
      }
      push(TokenKind::kNumber, std::move(text), tok_line, tok_col);
      continue;
    }

    // Identifiers / keywords.
    if (IsIdentStart(c)) {
      std::string text;
      while (i < n && IsIdentChar(content[i])) {
        text += content[i];
        advance(1);
      }
      if (directive_pending) {
        directive = text;
        directive_pending = false;
        // The token itself still records the directive it names.
      }
      push(TokenKind::kIdentifier, std::move(text), tok_line, tok_col);
      // #include <system/header>: consume the angled path as one unit so the
      // header name's identifiers never reach the rules.
      if (in_preproc && directive == "include" && out.tokens.back().text == "include") {
        std::size_t j = i;
        while (j < n && (content[j] == ' ' || content[j] == '\t')) ++j;
        if (j < n && content[j] == '<') {
          std::string sys;
          std::size_t k = j + 1;
          while (k < n && content[k] != '>' && content[k] != '\n') {
            sys += content[k];
            ++k;
          }
          if (k < n && content[k] == '>') {
            advance(k + 1 - i);
            out.includes.push_back({sys, tok_line, /*angled=*/true});
          }
        }
      }
      continue;
    }

    // Punctuation ("::" and "->" fused; everything else single-char).
    if (c == ':' && i + 1 < n && content[i + 1] == ':') {
      push(TokenKind::kPunct, "::", tok_line, tok_col);
      advance(2);
      continue;
    }
    if (c == '-' && i + 1 < n && content[i + 1] == '>') {
      push(TokenKind::kPunct, "->", tok_line, tok_col);
      advance(2);
      continue;
    }
    push(TokenKind::kPunct, std::string(1, c), tok_line, tok_col);
    advance(1);
  }

  // Quoted includes: a string token on an include directive line.
  for (const Token& t : out.tokens) {
    if (t.in_preprocessor && t.directive == "include" && t.kind == TokenKind::kString) {
      out.includes.push_back({t.text, t.line, /*angled=*/false});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Allowlist

std::vector<AllowEntry> ParseAllowlist(const std::string& allow_path,
                                       const std::string& content,
                                       std::vector<Diagnostic>& diags) {
  std::vector<AllowEntry> entries;
  std::istringstream in(content);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string trimmed = raw;
    trimmed.erase(0, trimmed.find_first_not_of(" \t"));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::istringstream fields(trimmed);
    AllowEntry entry;
    entry.line = line_no;
    fields >> entry.rule >> entry.path;
    std::getline(fields, entry.rationale);
    entry.rationale.erase(0, entry.rationale.find_first_not_of(" \t"));
    if (entry.rule.empty() || entry.path.empty() || entry.rationale.empty()) {
      diags.push_back({kRuleAllowlist, allow_path, line_no, 1,
                       "malformed allowlist entry: need `<rule> <path> <rationale>`"});
      continue;
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Layering

int LayerOf(const std::string& path) {
  auto starts = [&](const char* prefix) { return path.rfind(prefix, 0) == 0; };
  if (starts("src/common/")) return 0;
  if (starts("src/obs/")) return 1;
  if (starts("src/fault/")) return 2;
  if (starts("src/mem/")) return 3;
  if (starts("src/compress/") || starts("src/zpool/")) return 4;
  if (starts("src/zswap/")) return 5;
  if (starts("src/telemetry/") || starts("src/solver/")) return 6;
  if (starts("src/tiering/")) return 7;
  if (starts("src/core/")) return 8;
  if (starts("src/multitenant/")) return 9;
  if (starts("src/workloads/")) return 10;
  if (starts("tests/") || starts("bench/") || starts("examples/") || starts("tools/")) return 100;
  return -1;
}

bool IsCiteDesignated(const std::string& path) {
  // Only production headers/TUs hold paper constants; tests and benches use
  // synthetic values (e.g. cost_model_property_test.cc) that cite nothing.
  if (path.rfind("src/", 0) != 0) return false;
  if (path.rfind("src/telemetry/", 0) == 0) return true;
  return path.find("tier_specs") != std::string::npos ||
         path.find("cost_model") != std::string::npos ||
         path.find("medium") != std::string::npos;
}

// ---------------------------------------------------------------------------
// Per-file rules

namespace {

bool Allowed(const std::string& rule, const std::string& file,
             const std::vector<AllowEntry>& allow, std::vector<bool>& used_allow) {
  for (std::size_t k = 0; k < allow.size(); ++k) {
    if (allow[k].rule == rule && allow[k].path == file) {
      used_allow[k] = true;
      return true;
    }
  }
  return false;
}

bool HasAllowEntry(const std::string& rule, const std::string& file,
                   const std::vector<AllowEntry>& allow) {
  for (const AllowEntry& e : allow) {
    if (e.rule == rule && e.path == file) return true;
  }
  return false;
}

// Marks a (rule, file) entry consumed without suppressing anything: used by
// side effects of an entry's *presence* (arming wall-prefix, the fault-hook
// entry-is-a-violation case), so unused-entry hygiene doesn't double-report.
void MarkUsed(const std::string& rule, const std::string& file,
              const std::vector<AllowEntry>& allow, std::vector<bool>& used_allow) {
  for (std::size_t k = 0; k < allow.size(); ++k) {
    if (allow[k].rule == rule && allow[k].path == file) used_allow[k] = true;
  }
}

// Previous token is a member-access operator ('.' or '->').
bool PrevIsMemberAccess(const std::vector<Token>& toks, std::size_t idx) {
  if (idx == 0) return false;
  const Token& p = toks[idx - 1];
  return p.kind == TokenKind::kPunct && (p.text == "." || p.text == "->");
}

// Numeric literal value, ignoring separators and suffixes; NaN on failure.
double NumericValue(const std::string& text) {
  std::string cleaned;
  for (char c : text) {
    if (c != '\'') cleaned += c;
  }
  const char* begin = cleaned.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) return std::nan("");
  return v;
}

// `keyword` occurs in `line` at a word-ish boundary: the preceding char is
// not alphanumeric (`cost_per_gib` matches "cost") or the keyword starts a
// camelCase hump (`kDecompressCostNs` matches "cost"). Interior matches like
// the "ns" in "constants" never count.
bool KeywordOnLine(const std::string& line, const std::string& keyword) {
  const std::string lower = Lower(line);
  std::size_t pos = 0;
  while ((pos = lower.find(keyword, pos)) != std::string::npos) {
    if (pos == 0 || !std::isalnum(static_cast<unsigned char>(lower[pos - 1])) ||
        std::isupper(static_cast<unsigned char>(line[pos]))) {
      return true;
    }
    ++pos;
  }
  return false;
}

}  // namespace

bool IsFaultHookFile(const LexedFile& file) {
  if (file.path.rfind("src/fault/", 0) == 0) return true;
  for (const LexedFile::Include& inc : file.includes) {
    if (!inc.angled && inc.path == "src/fault/fault_injector.h") return true;
  }
  return false;
}

namespace {

void CheckDeterminism(const LexedFile& file, const std::vector<AllowEntry>& allow,
                      std::vector<bool>& used_allow, std::vector<Diagnostic>& diags) {
  const bool fault_hook = IsFaultHookFile(file);
  // A fault-injection hook file can never justify wall-clock access: even a
  // "reporting-only" reading sitting next to injection hooks invites faults
  // whose timing depends on the host. The allow entry itself is the bug.
  if (fault_hook && HasAllowEntry(kRuleDeterminism, file.path, allow)) {
    MarkUsed(kRuleDeterminism, file.path, allow, used_allow);  // consumed as a violation
    diags.push_back({kRuleFaultHook, file.path, 1, 1,
                     "determinism-quarantine allowlist entry on a fault-injection hook file: "
                         "fault hooks must derive entirely from the seeded injector and may "
                         "not be exempted (DESIGN.md §4d)"});
  }
  // Identifiers whose mere appearance in code is banned (wall clocks and
  // nondeterministic entropy sources), and identifiers banned only as direct
  // calls (common words like `time` would otherwise false-positive).
  static const std::set<std::string> kBannedAlways = {
      "steady_clock",     "system_clock", "high_resolution_clock",
      "clock_gettime",    "gettimeofday", "timespec_get",
      "random_device",    "getenv",       "secure_getenv",
  };
  static const std::set<std::string> kBannedCalls = {
      "time", "rand", "srand", "rand_r", "drand48", "clock",
  };
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t k = 0; k < toks.size(); ++k) {
    const Token& t = toks[k];
    if (t.kind != TokenKind::kIdentifier) continue;
    bool hit = false;
    if (kBannedAlways.count(t.text) != 0) {
      hit = true;
    } else if (kBannedCalls.count(t.text) != 0 && !PrevIsMemberAccess(toks, k) &&
               k + 1 < toks.size() && toks[k + 1].kind == TokenKind::kPunct &&
               toks[k + 1].text == "(") {
      hit = true;
    }
    if (!hit) continue;
    if (fault_hook) {
      // Hard ban, no allowlist: reported under fault-hook-purity instead of
      // determinism-quarantine.
      diags.push_back({kRuleFaultHook, file.path, t.line, t.col,
                       "wall-clock / nondeterminism source `" + t.text +
                           "` in a fault-injection hook file: fault hooks must derive "
                           "entirely from the seeded injector; no allowlist exemption "
                           "(DESIGN.md §4d)"});
      continue;
    }
    if (Allowed(kRuleDeterminism, file.path, allow, used_allow)) continue;
    diags.push_back({kRuleDeterminism, file.path, t.line, t.col,
                     "wall-clock / nondeterminism source `" + t.text +
                         "` outside the wall/ quarantine; justify in tools/tslint_allow.txt "
                         "if the value never reaches virtual-time results (DESIGN.md §4b)"});
  }
}

void CheckNoExceptions(const LexedFile& file, const std::vector<AllowEntry>& allow,
                       std::vector<bool>& used_allow, std::vector<Diagnostic>& diags) {
  for (const Token& t : file.tokens) {
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text != "throw" && t.text != "try" && t.text != "catch") continue;
    if (Allowed(kRuleNoExceptions, file.path, allow, used_allow)) continue;
    diags.push_back({kRuleNoExceptions, file.path, t.line, t.col,
                     "`" + t.text + "` is banned: use Status/StatusOr for fallible paths and "
                         "TS_CHECK for invariants (CLAUDE.md)"});
  }
}

void CheckWallPrefix(const LexedFile& file, const std::vector<AllowEntry>& allow,
                     std::vector<bool>& used_allow, std::vector<Diagnostic>& diags) {
  // Only translation units declared wall-clock-touching (they hold a
  // determinism-quarantine allowlist entry) are constrained: every metric
  // they register must live under wall/ so wall-clock-derived values can
  // never leak into deterministic exports.
  if (!HasAllowEntry(kRuleDeterminism, file.path, allow)) return;
  static const std::set<std::string> kRegistrars = {"GetCounter", "GetGauge", "GetHistogram"};
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t k = 0; k + 2 < toks.size(); ++k) {
    if (toks[k].kind != TokenKind::kIdentifier || kRegistrars.count(toks[k].text) == 0) continue;
    if (toks[k + 1].kind != TokenKind::kPunct || toks[k + 1].text != "(") continue;
    if (toks[k + 2].kind != TokenKind::kString) continue;
    // The determinism entry did real work here — it armed this rule for a
    // registering TU — so it counts as used even when it suppressed nothing.
    MarkUsed(kRuleDeterminism, file.path, allow, used_allow);
    const std::string& name = toks[k + 2].text;
    if (name.rfind("wall/", 0) == 0) continue;
    if (Allowed(kRuleWallPrefix, file.path, allow, used_allow)) continue;
    diags.push_back({kRuleWallPrefix, file.path, toks[k + 2].line, toks[k + 2].col,
                     "metric `" + name + "` registered in a wall-clock-touching TU must carry "
                         "the wall/ prefix (DESIGN.md §4b)"});
  }
}

void CheckCiteConstants(const LexedFile& file, const std::vector<AllowEntry>& allow,
                        std::vector<bool>& used_allow, std::vector<Diagnostic>& diags) {
  if (!IsCiteDesignated(file.path)) return;
  // Heuristic: a non-{0,1} numeric literal assigned on a line mentioning a
  // latency/cost-flavored identifier is presumed paper-derived and must have
  // a § citation within ±3 lines.
  static const char* kFlavors[] = {"latency", "_ns", "cost", "usd", "period", "penalty", "decay"};
  for (const Token& t : file.tokens) {
    if (t.kind != TokenKind::kNumber || t.in_preprocessor) continue;
    const double v = NumericValue(t.text);
    if (std::isnan(v) || v == 0.0 || v == 1.0) continue;
    if (t.line < 1 || t.line > static_cast<int>(file.lines.size())) continue;
    const std::string& line_text = file.lines[t.line - 1];
    if (line_text.find('=') == std::string::npos) continue;
    bool flavored = false;
    for (const char* f : kFlavors) {
      if (KeywordOnLine(line_text, f)) {
        flavored = true;
        break;
      }
    }
    if (!flavored) continue;
    bool cited = false;
    const int lo = std::max(1, t.line - 3);
    const int hi = std::min(static_cast<int>(file.lines.size()), t.line + 3);
    for (int ln = lo; ln <= hi && !cited; ++ln) {
      cited = file.lines[ln - 1].find("§") != std::string::npos;
    }
    if (cited) continue;
    if (Allowed(kRuleCiteConstants, file.path, allow, used_allow)) continue;
    diags.push_back({kRuleCiteConstants, file.path, t.line, t.col,
                     "latency/cost constant `" + t.text +
                         "` needs a § paper citation within 3 lines (CLAUDE.md)"});
  }
}

// The banned identifier at `j` is reached through a member chain whose
// receiver contains an index subscript (`slots[i]->obs.metrics.GetCounter`).
// Walks the chain backwards over `ident` / `]...[` / `)...(` elements joined
// by '.'/'->' and reports whether any element is subscripted.
bool ReceiverChainHasSubscript(const std::vector<Token>& toks, std::size_t j) {
  std::size_t k = j;
  while (k >= 2 && toks[k - 1].kind == TokenKind::kPunct &&
         (toks[k - 1].text == "." || toks[k - 1].text == "->")) {
    std::size_t r = k - 2;  // last token of the receiver element
    // Skip one balanced ]...[ or )...( group (subscript or call).
    for (const auto& [close, open] : {std::pair{"]", "["}, std::pair{")", "("}}) {
      if (toks[r].kind == TokenKind::kPunct && toks[r].text == close) {
        if (close[0] == ']') return true;  // indexed element: disjoint slot
        int depth = 0;
        while (r > 0) {
          if (toks[r].kind == TokenKind::kPunct && toks[r].text == close) ++depth;
          if (toks[r].kind == TokenKind::kPunct && toks[r].text == open && --depth == 0) break;
          --r;
        }
        if (r == 0) return false;
        --r;
      }
    }
    if (toks[r].kind != TokenKind::kIdentifier) return false;
    k = r;
  }
  return false;
}

void CheckPoolPurity(const LexedFile& file, const std::vector<AllowEntry>& allow,
                     std::vector<bool>& used_allow, std::vector<Diagnostic>& diags) {
  // Workers inside ThreadPool::ParallelFor bodies may only compute pure
  // results into disjoint slots (thread_pool.h); logging, metric mutation,
  // and trace spans there would make output depend on wall-clock scheduling.
  //
  // One idiom is exempt: registrar/mutator calls reached through an indexed
  // receiver (`slots[i]->obs.metrics.GetCounter(...)`) mutate observability
  // state owned by this worker's disjoint slot — the experiment-grid runner's
  // per-cell registries (bench/experiment_grid.h) — and commute with
  // scheduling by construction. `Observability::Default()` in a worker is the
  // inverse: it reaches the shared process-default scope and is always banned.
  static const std::set<std::string> kBannedInWorker = {
      "TS_LOG", "TS_TRACE_SPAN", "TS_TRACE_INSTANT",
      "GetCounter", "GetGauge", "GetHistogram",
  };
  static const std::set<std::string> kMutators = {"Add", "Set", "Record"};
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
    if (toks[k].kind != TokenKind::kIdentifier ||
        (toks[k].text != "ParallelFor" && toks[k].text != "Submit")) {
      continue;
    }
    if (!PrevIsMemberAccess(toks, k)) continue;
    if (toks[k + 1].kind != TokenKind::kPunct || toks[k + 1].text != "(") continue;
    // Span of the call: match parens at token level (strings/comments are
    // already out of the stream, so this cannot be fooled by literals).
    int depth = 0;
    std::size_t end = k + 1;
    for (; end < toks.size(); ++end) {
      if (toks[end].kind != TokenKind::kPunct) continue;
      if (toks[end].text == "(") ++depth;
      if (toks[end].text == ")" && --depth == 0) break;
    }
    for (std::size_t j = k + 2; j < end && j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (t.kind != TokenKind::kIdentifier) continue;
      std::string why;
      if (kBannedInWorker.count(t.text) != 0) {
        if (ReceiverChainHasSubscript(toks, j)) continue;  // disjoint-slot obs
        why = "`" + t.text + "` inside a ThreadPool worker lambda: workers must be pure; "
              "log/record on the submitting thread in submission order, or go through the "
              "worker's disjoint slot (`slots[i]->...`, thread_pool.h)";
      } else if (t.text == "Default" && j >= 2 && toks[j - 1].text == "::" &&
                 toks[j - 2].text == "Observability") {
        why = "`Observability::Default()` inside a ThreadPool worker lambda reaches the "
              "shared process-default scope; use the cell's private Observability slot "
              "(bench/experiment_grid.h)";
      } else if (t.text.rfind("m_", 0) == 0 && j + 2 < toks.size() &&
                 toks[j + 1].kind == TokenKind::kPunct &&
                 (toks[j + 1].text == "->" || toks[j + 1].text == ".") &&
                 kMutators.count(toks[j + 2].text) != 0) {
        // Handle-mutation idiom: m_foo_->Add(...), m_foo_.Set(...).
        if (ReceiverChainHasSubscript(toks, j)) continue;  // slot-owned handle
        why = "`" + t.text + "` inside a ThreadPool worker lambda: workers must be pure; "
              "log/record on the submitting thread in submission order (thread_pool.h)";
      } else {
        continue;
      }
      if (Allowed(kRulePoolPurity, file.path, allow, used_allow)) continue;
      diags.push_back({kRulePoolPurity, file.path, t.line, t.col, why});
    }
    k = end;
  }
}

// True when any subscript recorded on `chain` mentions one of `locals` — the
// lambda's parameters or worker-local declarations. `slots[i]` and
// `scratch[i * kSlotBytes]` qualify; `shared[kFixed]` and `map[captured_key]`
// do not: a subscript only makes a receiver slot-owned when a worker-local
// index picks the disjoint slot (thread_pool.h).
bool SubscriptNamesLocal(const std::vector<Token>& toks, const ChainInfo& chain,
                         const std::set<std::string>& locals) {
  for (const auto& [open, close] : chain.subscripts) {
    for (std::size_t k = open + 1; k < close && k < toks.size(); ++k) {
      if (toks[k].kind == TokenKind::kIdentifier && locals.count(toks[k].text) != 0) {
        return true;
      }
    }
  }
  return false;
}

// Classifies the receiver chain of an expression that ENDS in a subscript
// (`...base...[expr]`), given the index of its closing `]`: recovers the
// chain behind the `[`, then folds the trailing subscript in so callers can
// apply the same slot-owned test as for interior subscripts.
ChainInfo ChainEndingInSubscript(const std::vector<Token>& toks, std::size_t close) {
  ChainInfo chain;
  int depth = 0;
  std::size_t r = close;
  while (r > 0) {
    if (toks[r].kind == TokenKind::kPunct && toks[r].text == "]") ++depth;
    if (toks[r].kind == TokenKind::kPunct && toks[r].text == "[" && --depth == 0) break;
    --r;
  }
  if (r == 0) return chain;  // unmatched / starts the statement: unclassifiable
  if (toks[r - 1].kind == TokenKind::kIdentifier) {
    chain = WalkChainBack(toks, r - 1);
  }
  chain.subscript = true;
  chain.subscripts.emplace_back(r, close);
  return chain;
}

// For `++x.y[i]`-style prefix increments starting at `first` (an identifier),
// returns the index of the chain's last identifier (so WalkChainBack can
// classify the whole receiver).
std::size_t ForwardChainLastIdent(const std::vector<Token>& toks, std::size_t first) {
  std::size_t last = first;
  std::size_t k = first + 1;
  while (k < toks.size() && toks[k].kind == TokenKind::kPunct) {
    if (toks[k].text == "." || toks[k].text == "->" || toks[k].text == "::") {
      if (k + 1 < toks.size() && toks[k + 1].kind == TokenKind::kIdentifier) {
        last = k + 1;
        k += 2;
        continue;
      }
      break;
    }
    if (toks[k].text == "[") {
      k = MatchForward(toks, k) + 1;
      continue;
    }
    break;
  }
  return last;
}

}  // namespace

void CheckWorkerCapture(const LexedFile& file, const SyntaxInfo& syntax,
                        const std::vector<AllowEntry>& allow, std::vector<bool>& used_allow,
                        std::vector<Diagnostic>& diags) {
  // Flow-aware companion to pool-purity: inside a lambda passed to
  // ThreadPool::Submit/ParallelFor, by-reference captures may only be written
  // through a subscripted (slot-owned) receiver, and virtual time may not be
  // charged at all — both would make results depend on wall-clock scheduling
  // (thread_pool.h, DESIGN.md §4c).
  const std::vector<Token>& toks = file.tokens;
  const auto spans = WorkerCallSpans(toks);
  if (spans.empty()) return;

  for (const LambdaInfo& lam : syntax.lambdas) {
    if (!InAnySpan(spans, lam.intro)) continue;
    // Nested lambdas are scanned as part of their outermost worker lambda so
    // worker-local state they capture by reference is recognized as local.
    bool nested = false;
    for (const LambdaInfo& outer : syntax.lambdas) {
      if (&outer != &lam && InAnySpan(spans, outer.intro) &&
          lam.intro > outer.body_begin && lam.intro < outer.body_end) {
        nested = true;
        break;
      }
    }
    if (nested) continue;

    std::set<std::string> by_ref;
    std::set<std::string> by_value;
    for (const Capture& c : lam.captures) {
      if (c.is_this || c.is_default || c.name.empty()) continue;
      if (c.by_ref && !c.has_init) {
        by_ref.insert(c.name);
      } else {
        by_value.insert(c.name);  // value captures and init-captures: local
      }
    }
    const bool shares_this = lam.captures_this || lam.default_ref || lam.default_copy;
    std::set<std::string> locals(lam.params.begin(), lam.params.end());
    for (const LambdaInfo& inner : syntax.lambdas) {
      if (&inner == &lam || inner.intro <= lam.body_begin || inner.intro >= lam.body_end) {
        continue;
      }
      locals.insert(inner.params.begin(), inner.params.end());
      for (const Capture& c : inner.captures) {
        if (c.has_init && !c.by_ref && !c.name.empty()) locals.insert(c.name);
      }
    }

    // True when a write through this receiver chain lands on state shared
    // with other workers or the submitting thread.
    auto shared_write = [&](const ChainInfo& chain) {
      if (chain.subscript) {
        // A subscripted receiver is slot-owned only when a worker-local picks
        // the slot (`slots[i]->...`); `shards[kFixed].map[key] = ...` through
        // a captured container is as shared as an unsubscripted write.
        if (SubscriptNamesLocal(toks, chain, locals)) return false;
      }
      if (chain.base.empty()) return false;
      if (chain.starts_with_this) return true;  // explicit this-> member write
      if (locals.count(chain.base) != 0) return false;
      if (by_value.count(chain.base) != 0) return false;  // worker-local copy
      if (by_ref.count(chain.base) != 0) return true;
      if (lam.default_ref) return true;  // [&]: every unlisted name is shared
      // [=] / [this] still share members (style: trailing underscore).
      if (shares_this && chain.base.back() == '_') return true;
      return false;
    };
    auto report = [&](const Token& at, const std::string& why) {
      if (Allowed(kRuleWorkerCapture, file.path, allow, used_allow)) return;
      diags.push_back({kRuleWorkerCapture, file.path, at.line, at.col, why});
    };

    for (std::size_t j = lam.body_begin + 1; j < lam.body_end && j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (t.in_preprocessor) continue;

      // Virtual-time charges: member `.Compute(...)` on an unsubscripted
      // receiver, or any `Charge*`-named call.
      if (t.kind == TokenKind::kIdentifier && j + 1 < toks.size() &&
          toks[j + 1].kind == TokenKind::kPunct && toks[j + 1].text == "(") {
        const bool is_compute = t.text == "Compute" && PrevIsMemberAccess(toks, j);
        const bool is_charge = t.text.rfind("Charge", 0) == 0;
        if ((is_compute || is_charge) && !ReceiverChainHasSubscript(toks, j)) {
          report(t, "virtual-time charge `" + t.text +
                        "(...)` inside a ThreadPool worker lambda: workers compute pure "
                        "results; charge virtual time on the submitting thread in "
                        "submission order (thread_pool.h, DESIGN.md §4c)");
        }
        continue;
      }
      if (t.kind != TokenKind::kPunct) continue;

      // Increment / decrement.
      if ((t.text == "+" || t.text == "-") && j + 1 < lam.body_end &&
          toks[j + 1].kind == TokenKind::kPunct && toks[j + 1].text == t.text) {
        std::size_t target_last = toks.size();
        if (j + 2 < lam.body_end && toks[j + 2].kind == TokenKind::kIdentifier) {
          target_last = ForwardChainLastIdent(toks, j + 2);  // prefix ++x
        } else if (j >= 1 && toks[j - 1].kind == TokenKind::kIdentifier) {
          target_last = j - 1;  // postfix x++
        } else if (j >= 1 && toks[j - 1].kind == TokenKind::kPunct && toks[j - 1].text == "]") {
          // Postfix on a subscripted receiver: slot-owned only when a
          // worker-local indexes it.
          const ChainInfo chain = ChainEndingInSubscript(toks, j - 1);
          if (shared_write(chain)) {
            report(toks[j - 1],
                   "write to shared captured state `" + chain.base +
                       "` inside a ThreadPool worker lambda: workers may only write "
                       "through their disjoint slot (`slots[i]->...`); commit shared "
                       "mutations on the submitting thread in submission order "
                       "(thread_pool.h, DESIGN.md §4c)");
          }
          ++j;
          continue;
        }
        if (target_last < toks.size()) {
          const ChainInfo chain = WalkChainBack(toks, target_last);
          if (shared_write(chain)) {
            report(toks[target_last],
                   "write to shared captured state `" + chain.base +
                       "` inside a ThreadPool worker lambda: workers may only write "
                       "through their disjoint slot (`slots[i]->...`); commit shared "
                       "mutations on the submitting thread in submission order "
                       "(thread_pool.h, DESIGN.md §4c)");
          }
        }
        ++j;
        continue;
      }

      // Assignments: `=` and compound `+=`-style (two tokens).
      if (t.text != "=") continue;
      if (j + 1 < toks.size() && toks[j + 1].kind == TokenKind::kPunct &&
          toks[j + 1].text == "=") {
        ++j;  // `==`
        continue;
      }
      if (j == 0) continue;
      const Token& before = toks[j - 1];
      bool compound = false;
      if (before.kind == TokenKind::kPunct) {
        const std::string& p = before.text;
        if (p == "=" || p == "!" || p == "<" || p == ">") continue;  // comparisons
        if (p == "+" || p == "-" || p == "*" || p == "/" || p == "%" || p == "&" ||
            p == "|" || p == "^") {
          compound = true;
        } else if (p != "]" && p != ")") {
          continue;  // `{`, `(`, `,`, ... — default args, designated init, etc.
        }
      }
      std::size_t lhs_end = compound ? j - 2 : j - 1;
      if (lhs_end >= toks.size()) continue;
      if (toks[lhs_end].kind == TokenKind::kPunct && toks[lhs_end].text == "]") {
        // Subscripted LHS: slot-owned only when a worker-local indexes it.
        const ChainInfo chain = ChainEndingInSubscript(toks, lhs_end);
        if (shared_write(chain)) {
          report(toks[lhs_end],
                 "write to shared captured state `" + chain.base +
                     "` inside a ThreadPool worker lambda: workers may only write through "
                     "their disjoint slot (`slots[i]->...`); commit shared mutations on the "
                     "submitting thread in submission order (thread_pool.h, DESIGN.md §4c)");
        }
        continue;
      }
      if (toks[lhs_end].kind != TokenKind::kIdentifier) continue;
      const ChainInfo chain = WalkChainBack(toks, lhs_end);
      // A declaration with an initializer introduces a worker-local name:
      // a type (identifier, `>`, `auto`) possibly followed by `&`/`*`
      // immediately precedes the declared name.
      if (!compound && chain.start == lhs_end && chain.start > 0) {
        std::size_t p = chain.start - 1;
        while (p > 0 && toks[p].kind == TokenKind::kPunct &&
               (toks[p].text == "&" || toks[p].text == "*")) {
          --p;
        }
        static const std::set<std::string> kNotTypes = {
            "return", "delete", "else", "do",   "case",
            "goto",   "new",    "throw", "co_return", "co_yield"};
        const Token& before_decl = toks[p];
        const bool type_precedes =
            (before_decl.kind == TokenKind::kIdentifier &&
             kNotTypes.count(before_decl.text) == 0) ||
            (before_decl.kind == TokenKind::kPunct && before_decl.text == ">");
        if (type_precedes) {
          // `Type name = ...` / `Type& name = ...`: declares a worker-local.
          locals.insert(chain.base);
          continue;
        }
      }
      if (shared_write(chain)) {
        report(toks[lhs_end],
               "write to shared captured state `" + chain.base +
                   "` inside a ThreadPool worker lambda: workers may only write through "
                   "their disjoint slot (`slots[i]->...`); commit shared mutations on the "
                   "submitting thread in submission order (thread_pool.h, DESIGN.md §4c)");
      }
    }
  }
}

void CheckHandleResolution(const LexedFile& file, const SyntaxInfo& syntax,
                           const std::vector<AllowEntry>& allow, std::vector<bool>& used_allow,
                           std::vector<Diagnostic>& diags) {
  // DESIGN.md §4b: components resolve metric/trace handles by string once at
  // construction and store them; hot paths only mutate stored handles. A
  // registry lookup outside a constructor or Init-style method is a per-call
  // string hash on a hot path. Only production code is constrained — bench
  // and test scaffolding resolve ad hoc by design (per-cell registries).
  if (file.path.rfind("src/", 0) != 0) return;
  static const std::set<std::string> kRegistrars = {"GetCounter", "GetGauge", "GetHistogram"};
  const std::vector<Token>& toks = file.tokens;
  const auto worker_spans = WorkerCallSpans(toks);
  for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
    const Token& t = toks[k];
    if (t.kind != TokenKind::kIdentifier || t.in_preprocessor) continue;
    if (kRegistrars.count(t.text) == 0 && t.text.rfind("Resolve", 0) != 0) continue;
    if (toks[k + 1].kind != TokenKind::kPunct || toks[k + 1].text != "(") continue;
    if (syntax.decl_name_tokens.count(k) != 0) continue;  // declaration/definition
    if (InAnySpan(worker_spans, k)) continue;  // pool-purity owns worker bodies
    const FunctionInfo* fn = EnclosingFunction(syntax, k);
    if (fn == nullptr) continue;  // namespace-scope initialization
    if (fn->kind != FunctionKind::kOther) continue;
    if (Allowed(kRuleHandleResolution, file.path, allow, used_allow)) continue;
    const std::string where =
        fn->qualifier.empty() ? fn->name : fn->qualifier + "::" + fn->name;
    diags.push_back({kRuleHandleResolution, file.path, t.line, t.col,
                     "handle `" + t.text + "(...)` resolved by string inside `" + where +
                         "`: resolve once at construction (or an Init*/Register*/Resolve*/"
                         "Setup*/Build* method), store the handle, and mutate it on the hot "
                         "path (DESIGN.md §4b)"});
  }
}

void CheckFile(const LexedFile& file, const std::vector<AllowEntry>& allow,
               std::vector<bool>& used_allow, std::vector<Diagnostic>& diags) {
  const SyntaxInfo syntax = ScanSyntax(file);
  CheckDeterminism(file, allow, used_allow, diags);
  CheckNoExceptions(file, allow, used_allow, diags);
  CheckWallPrefix(file, allow, used_allow, diags);
  CheckCiteConstants(file, allow, used_allow, diags);
  CheckPoolPurity(file, allow, used_allow, diags);
  CheckWorkerCapture(file, syntax, allow, used_allow, diags);
  CheckHandleResolution(file, syntax, allow, used_allow, diags);
}

// ---------------------------------------------------------------------------
// Include graph

void CheckIncludeGraph(const std::map<std::string, LexedFile>& files,
                       std::vector<Diagnostic>& diags) {
  for (const auto& [path, file] : files) {
    const int from_layer = LayerOf(path);
    for (const LexedFile::Include& inc : file.includes) {
      if (inc.angled) continue;  // system/third-party headers are exempt
      const int to_layer = LayerOf(inc.path);
      if (to_layer < 0) {
        diags.push_back({kRuleLayering, path, inc.line, 1,
                         "include \"" + inc.path + "\" is not repo-relative: use the full "
                             "path from the repo root (CLAUDE.md)"});
        continue;
      }
      // tools/ joins the scanned set only under --self; without it, existence
      // and direction of tools/ includes are left to the linter's own build.
      if (inc.path.rfind("tools/", 0) == 0 && files.find(inc.path) == files.end()) continue;
      if (files.find(inc.path) == files.end()) {
        diags.push_back({kRuleLayering, path, inc.line, 1,
                         "include \"" + inc.path + "\" does not resolve to a scanned file"});
        continue;
      }
      if (to_layer > from_layer) {
        diags.push_back({kRuleLayering, path, inc.line, 1,
                         "upward layer edge: " + path + " may not include \"" + inc.path +
                             "\" (layering DAG, CLAUDE.md)"});
      }
    }
  }

  // Cycle detection over resolvable quoted-include edges. Each distinct cycle
  // is reported once on every participating file, so per-file accounting
  // (fixtures, allowlists) sees all members.
  enum Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  std::vector<std::string> stack;
  std::set<std::vector<std::string>> reported;

  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = kGray;
    stack.push_back(node);
    auto it = files.find(node);
    if (it != files.end()) {
      for (const LexedFile::Include& inc : it->second.includes) {
        if (inc.angled || files.find(inc.path) == files.end()) continue;
        const Color c = color.count(inc.path) ? color[inc.path] : kWhite;
        if (c == kWhite) {
          dfs(inc.path);
        } else if (c == kGray) {
          auto begin = std::find(stack.begin(), stack.end(), inc.path);
          std::vector<std::string> cycle(begin, stack.end());
          std::vector<std::string> key = cycle;
          std::sort(key.begin(), key.end());
          if (reported.insert(key).second) {
            std::string desc;
            for (const std::string& member : cycle) desc += member + " -> ";
            desc += inc.path;
            for (const std::string& member : cycle) {
              diags.push_back({kRuleLayering, member, inc.line, 1,
                               "include cycle: " + desc});
            }
          }
        }
      }
    }
    stack.pop_back();
    color[node] = kBlack;
  };
  for (const auto& [path, file] : files) {
    if (!color.count(path) || color[path] == kWhite) dfs(path);
  }
}

// ---------------------------------------------------------------------------
// Whole-tree lint

std::vector<Diagnostic> LintTree(const std::map<std::string, std::string>& sources,
                                 const std::vector<AllowEntry>& allow,
                                 const std::string& allow_path) {
  std::vector<Diagnostic> diags;
  std::vector<bool> used(allow.size(), false);
  std::map<std::string, LexedFile> files;
  for (const auto& [path, content] : sources) {
    const LexedFile& file = files.emplace(path, Lex(path, content)).first->second;
    CheckFile(file, allow, used, diags);
  }
  CheckIncludeGraph(files, diags);

  // Allowlist hygiene: unknown rules, stale paths, unused entries. Scoped to
  // top-level directories that were actually scanned so a run without --self
  // never flags tools/ entries.
  std::set<std::string> scanned_tops;
  for (const auto& [path, content] : sources) scanned_tops.insert(path.substr(0, path.find('/')));
  const std::set<std::string> known(AllRuleNames().begin(), AllRuleNames().end());
  for (std::size_t k = 0; k < allow.size(); ++k) {
    const AllowEntry& e = allow[k];
    if (scanned_tops.count(e.path.substr(0, e.path.find('/'))) == 0) continue;
    if (known.count(e.rule) == 0) {
      diags.push_back({kRuleAllowlist, allow_path, e.line, 1,
                       "unknown rule `" + e.rule +
                           "` in allowlist entry: the rule no longer exists (see "
                           "tslint --list-rules)"});
      continue;
    }
    if (sources.find(e.path) == sources.end()) {
      diags.push_back({kRuleAllowlist, allow_path, e.line, 1,
                       "stale allowlist entry: `" + e.path + "` was not scanned"});
      continue;
    }
    if (!used[k]) {
      diags.push_back({kRuleAllowlist, allow_path, e.line, 1,
                       "unused allowlist entry: `" + e.path + "` tripped no [" + e.rule +
                           "] diagnostics this run; remove the entry"});
    }
  }

  std::sort(diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.file, a.line, a.col, a.rule) < std::tie(b.file, b.line, b.col, b.rule);
  });
  return diags;
}

// ---------------------------------------------------------------------------
// Driver helpers

bool GlobMatch(const std::string& pattern, const std::string& name) {
  // '*'-only glob, recursive two-pointer with backtracking.
  std::size_t p = 0, s = 0, star = std::string::npos, match = 0;
  while (s < name.size()) {
    if (p < pattern.size() && (pattern[p] == name[s])) {
      ++p;
      ++s;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = s;
    } else if (star != std::string::npos) {
      p = star + 1;
      s = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::vector<std::string> IgnoredDirPatterns(const std::string& root) {
  // tslint_fixtures is intentionally full of violations; scanning it from the
  // real tree would drown the report (self-test scans it as its own root).
  std::vector<std::string> patterns = {"build*", "cmake-build*", ".git",   ".cache",
                                       "out",    "obs_artifacts", ".claude", "tslint_fixtures"};
  std::ifstream in(root + "/.gitignore");
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
    if (line.empty() || line[0] == '#' || line[0] == '!') continue;
    if (!line.empty() && line.back() == '/') line.pop_back();
    // Only simple directory-name patterns (no interior slashes).
    if (line.empty() || line.find('/') != std::string::npos) continue;
    if (std::find(patterns.begin(), patterns.end(), line) == patterns.end()) {
      patterns.push_back(line);
    }
  }
  return patterns;
}

namespace {

void WalkDir(const std::filesystem::path& dir, const std::filesystem::path& root,
             const std::vector<std::string>& ignored, TreeScan& out) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::directory_entry> entries;
  for (fs::directory_iterator it(dir, ec); !ec && it != fs::directory_iterator();
       it.increment(ec)) {
    entries.push_back(*it);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.path() < b.path(); });
  for (const fs::directory_entry& entry : entries) {
    const std::string name = entry.path().filename().generic_string();
    if (entry.is_directory()) {
      bool skip = false;
      for (const std::string& pattern : ignored) {
        if (GlobMatch(pattern, name)) {
          skip = true;
          break;
        }
      }
      if (!skip) WalkDir(entry.path(), root, ignored, out);
      continue;
    }
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().generic_string();
    if (ext != ".h" && ext != ".cc" && ext != ".cpp" && ext != ".hpp") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in) {
      out.errors.push_back("unreadable: " + entry.path().generic_string());
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string rel =
        fs::relative(entry.path(), root, ec).generic_string();
    out.sources[ec ? entry.path().generic_string() : rel] = buf.str();
  }
}

}  // namespace

TreeScan ScanTree(const std::string& root, bool include_tools) {
  namespace fs = std::filesystem;
  TreeScan out;
  std::error_code ec;
  const fs::path root_path = fs::weakly_canonical(fs::path(root), ec);
  if (ec || !fs::is_directory(root_path)) {
    out.errors.push_back("root is not a directory: " + root);
    return out;
  }
  // Refuse to scan inside an ignored (build) tree: linting stale generated
  // copies of the sources produces nonsense reports. The fixture tree is the
  // one intentionally-scannable ignored directory (`--self-test` roots it).
  const std::vector<std::string> ignored = IgnoredDirPatterns(root_path.generic_string());
  std::vector<std::string> refuse = ignored;
  refuse.erase(std::remove(refuse.begin(), refuse.end(), "tslint_fixtures"), refuse.end());
  for (const fs::path& part : root_path) {
    for (const std::string& pattern : refuse) {
      if (GlobMatch(pattern, part.generic_string())) {
        out.errors.push_back("refusing to scan ignored directory `" + part.generic_string() +
                             "` (gitignored build tree); point --root at the repo checkout");
        return out;
      }
    }
  }
  std::vector<const char*> tops = {"src", "bench", "tests", "examples"};
  if (include_tools) tops.push_back("tools");
  for (const char* top : tops) {
    const fs::path dir = root_path / top;
    if (fs::is_directory(dir)) WalkDir(dir, root_path, ignored, out);
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ToJsonl(const Diagnostic& d) {
  std::ostringstream out;
  out << "{\"rule\":\"" << JsonEscape(d.rule) << "\",\"file\":\"" << JsonEscape(d.file)
      << "\",\"line\":" << d.line << ",\"col\":" << d.col << ",\"message\":\""
      << JsonEscape(d.message) << "\"}";
  return out.str();
}

std::string ToText(const Diagnostic& d) {
  std::ostringstream out;
  out << d.file << ":" << d.line << ":" << d.col << ": [" << d.rule << "] " << d.message;
  return out.str();
}

std::string ToSarif(const std::vector<Diagnostic>& diags) {
  std::ostringstream out;
  out << "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
      << "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"tslint\","
      << "\"rules\":[";
  const std::vector<std::string>& rules = AllRuleNames();
  std::map<std::string, std::size_t> rule_index;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i != 0) out << ",";
    out << "{\"id\":\"" << JsonEscape(rules[i]) << "\"}";
    rule_index.emplace(rules[i], i);
  }
  out << "]}},\"results\":[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    if (i != 0) out << ",";
    out << "{\"ruleId\":\"" << JsonEscape(d.rule) << "\"";
    const auto it = rule_index.find(d.rule);
    if (it != rule_index.end()) out << ",\"ruleIndex\":" << it->second;
    out << ",\"level\":\"error\",\"message\":{\"text\":\"" << JsonEscape(d.message)
        << "\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\""
        << JsonEscape(d.file) << "\"},\"region\":{\"startLine\":" << std::max(1, d.line)
        << ",\"startColumn\":" << std::max(1, d.col) << "}}}]}";
  }
  out << "]}]}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Self-test

int SelfTest(const std::string& fixture_root, std::vector<std::string>& failures) {
  TreeScan scan = ScanTree(fixture_root);
  for (const std::string& err : scan.errors) failures.push_back(err);
  if (scan.sources.empty()) {
    failures.push_back("no fixture sources under " + fixture_root);
    return 1;
  }

  std::vector<Diagnostic> diags;
  std::vector<AllowEntry> allow;
  const std::string allow_rel = "tools/tslint_allow.txt";
  std::ifstream allow_in(fixture_root + "/" + allow_rel);
  if (allow_in) {
    std::ostringstream buf;
    buf << allow_in.rdbuf();
    allow = ParseAllowlist(allow_rel, buf.str(), diags);
  }
  std::vector<Diagnostic> lint = LintTree(scan.sources, allow, allow_rel);
  diags.insert(diags.end(), lint.begin(), lint.end());

  // Expected rule per file from its `// tslint-fixture: <rule>|none` marker.
  std::map<std::string, std::string> expected;
  for (const auto& [path, content] : scan.sources) {
    std::istringstream in(content);
    std::string line;
    std::string marker;
    for (int k = 0; k < 5 && std::getline(in, line); ++k) {
      const std::size_t pos = line.find("tslint-fixture:");
      if (pos == std::string::npos) continue;
      marker = line.substr(pos + std::string("tslint-fixture:").size());
      marker.erase(0, marker.find_first_not_of(" \t"));
      marker.erase(marker.find_last_not_of(" \t\r") + 1);
      break;
    }
    if (marker.empty()) {
      failures.push_back(path + ": fixture missing `// tslint-fixture: <rule>|none` marker");
      continue;
    }
    expected[path] = marker;
  }

  std::map<std::string, std::set<std::string>> tripped;
  for (const Diagnostic& d : diags) {
    tripped[d.file].insert(d.rule);
  }
  for (const auto& [path, want] : expected) {
    const std::set<std::string>& got = tripped[path];
    if (want == "none") {
      if (!got.empty()) {
        std::string rules;
        for (const std::string& r : got) rules += r + " ";
        failures.push_back(path + ": expected clean, tripped: " + rules);
      }
      continue;
    }
    if (got != std::set<std::string>{want}) {
      std::string rules;
      for (const std::string& r : got) rules += r + " ";
      failures.push_back(path + ": expected exactly [" + want + "], tripped: [" +
                         (rules.empty() ? "nothing" : rules) + "]");
    }
  }
  // Diagnostics against unscanned paths (e.g. stale fixture allowlist
  // entries) are failures too: the fixture tree must stay self-consistent.
  for (const auto& [path, rules] : tripped) {
    if (expected.find(path) == expected.end() && !rules.empty()) {
      failures.push_back(path + ": diagnostics against a non-fixture path");
    }
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace tslint
}  // namespace tierscape
