// Unit tests for the tslint internals (tools/tslint.h): tokenizer edge cases
// — banned identifiers hidden in strings, comments, raw strings, multi-line
// preprocessor continuations — plus every rule against small in-memory
// trees. The end-to-end fixture check (`tests/tslint_fixtures/`) runs
// separately as the `tslint_selftest` ctest target.
#include "tools/tslint.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/tslint_syntax.h"

namespace tierscape {
namespace tslint {
namespace {

std::vector<Diagnostic> LintOne(const std::string& path, const std::string& content,
                                const std::vector<AllowEntry>& allow = {}) {
  std::map<std::string, std::string> sources;
  sources[path] = content;
  return LintTree(sources, allow, "tools/tslint_allow.txt");
}

std::set<std::string> Rules(const std::vector<Diagnostic>& diags) {
  std::set<std::string> out;
  for (const Diagnostic& d : diags) out.insert(d.rule);
  return out;
}

// --- Tokenizer ------------------------------------------------------------

TEST(Lexer, StringLiteralContainingThrowIsNotCode) {
  const auto diags = LintOne("src/common/a.cc", R"(const char* s = "throw try catch";)");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(Lexer, BannedIdentifierInCommentIgnored) {
  const auto diags = LintOne("src/common/a.cc",
                             "// steady_clock::now() would be banned here\n"
                             "/* rand(); getenv(\"X\"); throw; */\n"
                             "int x = 1;\n");
  EXPECT_TRUE(diags.empty());
}

TEST(Lexer, RawStringsAreOpaque) {
  const auto diags = LintOne("src/common/a.cc",
                             "const char* a = R\"(throw steady_clock rand();)\";\n"
                             "const char* b = R\"xy(catch (random_device) {})xy\";\n");
  EXPECT_TRUE(diags.empty());
}

TEST(Lexer, EscapedQuotesStayInString) {
  const auto diags =
      LintOne("src/common/a.cc", R"(const char* s = "say \"throw\" loudly"; int y = 2;)");
  EXPECT_TRUE(diags.empty());
}

TEST(Lexer, CharLiteralDoesNotOpenString) {
  // A quote char literal must not swallow the rest of the file as a string —
  // the `throw` after it is real code and must trip.
  const auto diags = LintOne("src/common/a.cc", "char q = '\"'; void f() { throw 1; }\n");
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRuleNoExceptions});
}

TEST(Lexer, DigitSeparatorsLexAsOneNumber) {
  const auto diags = LintOne("src/common/a.cc", "int big = 1'000'000; int t = big;\n");
  EXPECT_TRUE(diags.empty());
}

TEST(Lexer, MultiLinePreprocessorContinuationIsStillCode) {
  // The banned call hides on the continuation line of a #define: the lexer
  // must keep the logical line open and still see `rand` as a call.
  const auto diags = LintOne("src/common/a.cc",
                             "#define JITTER(x) \\\n"
                             "  ((x) + rand())\n");
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRuleDeterminism});
}

TEST(Lexer, SystemIncludeHeaderNameNeverTrips) {
  // <random> / <ctime> etc. are fine to *include*; only uses are banned. The
  // angled path must not leak identifiers into the rules.
  const auto diags = LintOne("src/common/a.cc", "#include <random>\n#include <ctime>\n");
  EXPECT_TRUE(diags.empty());
}

TEST(Lexer, QuotedIncludeExtraction) {
  const LexedFile file = Lex("src/mem/a.cc",
                             "#include \"src/common/status.h\"\n"
                             "#include <vector>\n");
  ASSERT_EQ(file.includes.size(), 2u);
  EXPECT_EQ(file.includes[1].path, "src/common/status.h");  // angled recorded first? order
  EXPECT_TRUE(file.includes[0].angled || file.includes[1].angled);
}

// --- determinism-quarantine ----------------------------------------------

TEST(Determinism, BansClocksRandomnessAndGetenv) {
  const auto diags = LintOne("src/core/a.cc",
                             "void f() {\n"
                             "  auto t = std::chrono::steady_clock::now();\n"
                             "  std::random_device rd;\n"
                             "  const char* e = std::getenv(\"X\");\n"
                             "}\n");
  EXPECT_EQ(diags.size(), 3u);
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRuleDeterminism});
}

TEST(Determinism, MemberCallNamedTimeIsFine) {
  const auto diags = LintOne("src/core/a.cc",
                             "double f(Stats& s, Stats* p) { return s.time() + p->rand(); }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(Determinism, RandWithoutCallParensIsFine) {
  // e.g. a variable or member named `rand` that is never called like libc.
  const auto diags = LintOne("src/core/a.cc", "int rand = 3; int y = rand + 1;\n");
  EXPECT_TRUE(diags.empty());
}

TEST(Determinism, AllowlistSuppressesWithJustification) {
  std::vector<Diagnostic> parse_diags;
  const auto allow = ParseAllowlist(
      "tools/tslint_allow.txt",
      "determinism-quarantine src/core/a.cc wall ms charged via wall/ only\n", parse_diags);
  ASSERT_TRUE(parse_diags.empty());
  const auto diags =
      LintOne("src/core/a.cc", "auto t = std::chrono::steady_clock::now();\n", allow);
  EXPECT_TRUE(diags.empty());
}

TEST(Determinism, StaleAllowlistEntryReported) {
  std::vector<Diagnostic> parse_diags;
  const auto allow = ParseAllowlist("tools/tslint_allow.txt",
                                    "determinism-quarantine src/core/gone.cc was removed\n",
                                    parse_diags);
  const auto diags = LintOne("src/core/a.cc", "int x = 2;\n", allow);
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRuleAllowlist});
}

TEST(Determinism, MalformedAllowlistEntryReported) {
  std::vector<Diagnostic> diags;
  ParseAllowlist("tools/tslint_allow.txt", "determinism-quarantine src/core/a.cc\n", diags);
  ASSERT_EQ(diags.size(), 1u);  // missing rationale
  EXPECT_EQ(diags[0].rule, kRuleAllowlist);
}

// --- layering -------------------------------------------------------------

TEST(Layering, LayerOrder) {
  EXPECT_EQ(LayerOf("src/common/status.h"), 0);
  EXPECT_LT(LayerOf("src/obs/metrics.h"), LayerOf("src/fault/fault_injector.h"));
  EXPECT_LT(LayerOf("src/fault/fault_injector.h"), LayerOf("src/mem/medium.h"));
  EXPECT_LT(LayerOf("src/obs/metrics.h"), LayerOf("src/mem/medium.h"));
  EXPECT_EQ(LayerOf("src/compress/lz4.h"), LayerOf("src/zpool/zbud.h"));
  EXPECT_LT(LayerOf("src/zswap/zswap.h"), LayerOf("src/telemetry/hotness.h"));
  EXPECT_EQ(LayerOf("src/telemetry/hotness.h"), LayerOf("src/solver/mckp.h"));
  EXPECT_LT(LayerOf("src/solver/mckp.h"), LayerOf("src/tiering/engine.h"));
  EXPECT_LT(LayerOf("src/tiering/engine.h"), LayerOf("src/core/ts_daemon.h"));
  EXPECT_LT(LayerOf("src/core/ts_daemon.h"), LayerOf("src/workloads/driver.h"));
  EXPECT_LT(LayerOf("src/workloads/driver.h"), LayerOf("tests/core_test.cc"));
  EXPECT_EQ(LayerOf("bench/bench_common.h"), LayerOf("examples/quickstart.cpp"));
  EXPECT_EQ(LayerOf("not/in/repo.h"), -1);
}

TEST(Layering, UpwardIncludeRejected) {
  std::map<std::string, std::string> sources;
  sources["src/mem/medium.h"] = "#include \"src/core/api.h\"\n";
  sources["src/core/api.h"] = "int x;\n";
  const auto diags = LintTree(sources, {}, "tools/tslint_allow.txt");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleLayering);
  EXPECT_EQ(diags[0].file, "src/mem/medium.h");
}

TEST(Layering, DownwardAndSameLayerIncludesFine) {
  std::map<std::string, std::string> sources;
  sources["src/core/api.h"] = "#include \"src/common/status.h\"\n#include \"src/core/other.h\"\n";
  sources["src/common/status.h"] = "int s;\n";
  sources["src/core/other.h"] = "int o;\n";
  EXPECT_TRUE(LintTree(sources, {}, "tools/tslint_allow.txt").empty());
}

TEST(Layering, NonRepoRelativeIncludeRejected) {
  const auto diags = LintOne("src/core/a.cc", "#include \"common/status.h\"\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleLayering);
}

TEST(Layering, CycleReportedOnEveryMember) {
  std::map<std::string, std::string> sources;
  sources["src/zpool/a.h"] = "#include \"src/zpool/b.h\"\n";
  sources["src/zpool/b.h"] = "#include \"src/zpool/a.h\"\n";
  const auto diags = LintTree(sources, {}, "tools/tslint_allow.txt");
  std::set<std::string> files;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, kRuleLayering);
    files.insert(d.file);
  }
  EXPECT_EQ(files, (std::set<std::string>{"src/zpool/a.h", "src/zpool/b.h"}));
}

// --- fault-hook-purity ----------------------------------------------------

TEST(FaultHook, WallClockUnderSrcFaultFlagged) {
  const auto diags = LintOne("src/fault/fault_injector.cc",
                             "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRuleFaultHook});
}

TEST(FaultHook, DirectIncluderOfInjectorHeaderIsAHookFile) {
  std::map<std::string, std::string> sources;
  sources["src/fault/fault_injector.h"] = "int f;\n";
  sources["src/mem/medium.cc"] =
      "#include \"src/fault/fault_injector.h\"\n"
      "auto t = std::chrono::steady_clock::now();\n";
  const auto diags = LintTree(sources, {}, "tools/tslint_allow.txt");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleFaultHook);
  EXPECT_EQ(diags[0].file, "src/mem/medium.cc");
}

TEST(FaultHook, AllowlistCannotExemptAndIsItselfAViolation) {
  std::vector<Diagnostic> parse_diags;
  const auto allow = ParseAllowlist(
      "tools/tslint_allow.txt",
      "determinism-quarantine src/fault/fault_injector.cc wall ms is reporting-only\n",
      parse_diags);
  const auto diags = LintOne("src/fault/fault_injector.cc",
                             "auto t = std::chrono::steady_clock::now();\n", allow);
  // Both the banned identifier and the allow entry itself are flagged, and
  // neither under determinism-quarantine.
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRuleFaultHook});
  EXPECT_GE(diags.size(), 2u);
}

TEST(FaultHook, TransitiveIncluderKeepsItsQuarantineExemption) {
  // Only *direct* includers of the injector header are hook files: a file
  // reaching it through another header (e.g. analytical.cc via mckp.h) keeps
  // its justified determinism-quarantine entry.
  std::map<std::string, std::string> sources;
  sources["src/fault/fault_injector.h"] = "int f;\n";
  sources["src/solver/mckp.h"] = "#include \"src/fault/fault_injector.h\"\n";
  sources["src/core/analytical.cc"] =
      "#include \"src/solver/mckp.h\"\n"
      "auto t = std::chrono::steady_clock::now();\n";
  std::vector<Diagnostic> parse_diags;
  const auto allow = ParseAllowlist(
      "tools/tslint_allow.txt",
      "determinism-quarantine src/core/analytical.cc wall ms recorded under wall/ only\n",
      parse_diags);
  EXPECT_TRUE(LintTree(sources, allow, "tools/tslint_allow.txt").empty());
}

TEST(FaultHook, CleanHookFileStaysClean) {
  const auto diags = LintOne("src/fault/fault_injector.cc",
                             "// steady_clock::now() only in this comment\n"
                             "unsigned long long Mix(unsigned long long x) { return x * 7; }\n");
  EXPECT_TRUE(diags.empty());
}

// --- wall-prefix ----------------------------------------------------------

TEST(WallPrefix, ArmedOnlyByDeterminismAllowlistEntry) {
  // Register*-named so handle-resolution-at-construction stays quiet: this
  // test isolates the arming behavior of wall-prefix.
  const std::string body =
      "void RegisterOps(MetricsRegistry& m) { m.GetCounter(\"engine/ops\").Add(1); }\n";
  // Unarmed: registering a bare-name metric is fine.
  EXPECT_TRUE(LintOne("src/tiering/a.cc", body).empty());
  // Armed via a determinism entry: the bare name now trips wall-prefix.
  std::vector<Diagnostic> parse_diags;
  const auto allow = ParseAllowlist("tools/tslint_allow.txt",
                                    "determinism-quarantine src/tiering/a.cc measures wall ms\n",
                                    parse_diags);
  const auto diags = LintOne("src/tiering/a.cc", body, allow);
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRuleWallPrefix});
}

TEST(WallPrefix, WallPrefixedRegistrationsPass) {
  std::vector<Diagnostic> parse_diags;
  const auto allow = ParseAllowlist("tools/tslint_allow.txt",
                                    "determinism-quarantine src/tiering/a.cc measures wall ms\n",
                                    parse_diags);
  const auto diags = LintOne(
      "src/tiering/a.cc",
      "void RegisterWall(MetricsRegistry& m) { m.GetGauge(\"wall/engine/solve_ms\").Set(2.0); }\n",
      allow);
  EXPECT_TRUE(diags.empty());
}

// --- cite-constants -------------------------------------------------------

TEST(CiteConstants, UncitedLatencyConstantFlagged) {
  const auto diags =
      LintOne("src/mem/medium.cc", "MediumSpec s{.load_latency_ns = 170};\n");
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRuleCiteConstants});
}

TEST(CiteConstants, CitationWithinThreeLinesPasses) {
  const auto diags = LintOne("src/mem/medium.cc",
                             "// Optane read latency (§8.1).\n"
                             "MediumSpec s{.load_latency_ns = 170};\n");
  EXPECT_TRUE(diags.empty());
}

TEST(CiteConstants, ZeroAndOneAreDefinitional) {
  const auto diags = LintOne("src/mem/medium.cc",
                             "double cost_per_gib = 1.0;\n"
                             "double penalty_ns = 0;\n");
  EXPECT_TRUE(diags.empty());
}

TEST(CiteConstants, OnlyDesignatedFilesChecked) {
  // Same line in a non-designated file: not checked.
  const auto diags = LintOne("src/zswap/zswap.cc", "int load_latency_ns = 170;\n");
  EXPECT_TRUE(diags.empty());
}

TEST(CiteConstants, SizeUnitsAreNotCostConstants) {
  // kGiB/kMiB capacity defaults carry no § requirement ("gib" inside a size
  // unit identifier is not a cost flavor).
  const auto diags = LintOne("src/core/tier_specs.h",
                             "std::size_t dram_bytes = 512 * kMiB;\n"
                             "std::size_t nvmm_bytes = 2 * kGiB;\n");
  EXPECT_TRUE(diags.empty());
}

// --- pool-purity ----------------------------------------------------------

TEST(PoolPurity, LoggingAndMetricMutationInWorkerFlagged) {
  const auto diags = LintOne("src/core/a.cc",
                             "void f(ThreadPool& pool, R* r) {\n"
                             "  pool.ParallelFor(8, [&](std::size_t i) {\n"
                             "    TS_LOG(Info) << i;\n"
                             "    m_ops_->Add(1);\n"
                             "    r[i].value = Work(i);\n"
                             "  });\n"
                             "}\n");
  EXPECT_EQ(diags.size(), 2u);
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRulePoolPurity});
}

TEST(PoolPurity, PureWorkerAndPostBarrierChargesPass) {
  const auto diags = LintOne("src/core/a.cc",
                             "void f(ThreadPool& pool, R* r, std::size_t n) {\n"
                             "  pool.ParallelFor(n, [&](std::size_t i) {\n"
                             "    r[i].value = Work(i);\n"
                             "  });\n"
                             "  TS_LOG(Info) << \"done\";\n"
                             "  for (std::size_t i = 0; i < n; ++i) m_ops_->Add(1);\n"
                             "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(PoolPurity, TraceSpanInWorkerFlagged) {
  const auto diags = LintOne("src/core/a.cc",
                             "void f(ThreadPool& pool) {\n"
                             "  pool.ParallelFor(4, [&](std::size_t i) {\n"
                             "    TS_TRACE_SPAN(trace, \"compress\");\n"
                             "    Work(i);\n"
                             "  });\n"
                             "}\n");
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRulePoolPurity});
}

TEST(PoolPurity, SubscriptedSlotObservabilityPasses) {
  // The grid runner's disjoint-slot idiom: registrar and handle-mutator calls
  // whose receiver chain is subscripted touch this worker's slot only.
  const auto diags = LintOne("bench/grid.cc",
                             "void f(ThreadPool& pool, Slot* slots, std::size_t n) {\n"
                             "  pool.ParallelFor(n, [&](std::size_t i) {\n"
                             "    slots[i].obs.metrics.GetCounter(\"cell/runs\")->Add(1);\n"
                             "    slots[i]->obs.metrics.GetHistogram(\"cell/ms\")->Record(1.0);\n"
                             "    slots[i]->m_runs_->Add(1);\n"
                             "    slots[i].result = Run(slots[i].spec);\n"
                             "  });\n"
                             "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(PoolPurity, UnsubscriptedRegistrarInWorkerStillFlagged) {
  // Same calls without an indexed receiver: shared registry, still banned.
  const auto diags = LintOne("bench/grid.cc",
                             "void f(ThreadPool& pool, Obs& obs, std::size_t n) {\n"
                             "  pool.ParallelFor(n, [&](std::size_t i) {\n"
                             "    obs.metrics.GetCounter(\"cell/runs\")->Add(1);\n"
                             "  });\n"
                             "}\n");
  EXPECT_EQ(diags.size(), 1u);
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRulePoolPurity});
}

TEST(PoolPurity, ObservabilityDefaultInWorkerFlagged) {
  const auto diags = LintOne("bench/grid.cc",
                             "void f(ThreadPool& pool, Slot* slots, std::size_t n) {\n"
                             "  pool.ParallelFor(n, [&](std::size_t i) {\n"
                             "    slots[i].result = Run(slots[i].spec, Observability::Default());\n"
                             "  });\n"
                             "}\n");
  EXPECT_EQ(diags.size(), 1u);
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRulePoolPurity});
}

TEST(PoolPurity, ObservabilityDefaultOutsideWorkerPasses) {
  const auto diags = LintOne("bench/grid.cc",
                             "void f(ThreadPool& pool, Slot* slots, std::size_t n) {\n"
                             "  pool.ParallelFor(n, [&](std::size_t i) {\n"
                             "    slots[i].result = Run(slots[i].spec);\n"
                             "  });\n"
                             "  Observability::Default().metrics.GetCounter(\"grid/cells\")->Add(1);\n"
                             "}\n");
  EXPECT_TRUE(diags.empty());
}

// --- no-exceptions --------------------------------------------------------

TEST(NoExceptions, TryEmplaceIsOneIdentifier) {
  const auto diags = LintOne("src/telemetry/hotness_aux.cc",
                             "void f(M& m) { m.try_emplace(1, 0.0); }\n");
  EXPECT_TRUE(diags.empty());
}

// --- syntactic layer (tools/tslint_syntax.h) ------------------------------

TEST(Syntax, FunctionsMethodsAndConstructors) {
  const LexedFile file = Lex("src/core/a.cc",
                             "class TS_NODISCARD Daemon {\n"
                             " public:\n"
                             "  Daemon(Engine& e) : engine_(e), window_(e.now() + 5) {}\n"
                             "  void InitMetrics(Registry& r);\n"
                             "  double Rate() const { return 0.0; }\n"
                             "};\n"
                             "Daemon::Daemon(Engine& e, int n) : engine_(e) { Track(n); }\n"
                             "Status Daemon::Flush() { return OkStatus(); }\n");
  const SyntaxInfo syntax = ScanSyntax(file);
  std::map<std::string, FunctionKind> kinds;
  for (const FunctionInfo& fn : syntax.functions) kinds[fn.name] = fn.kind;
  // The macro in the class head must not steal the class name, and init-list
  // members (`window_(...)`) must not be recorded as function definitions.
  ASSERT_EQ(syntax.functions.size(), 4u);  // both Daemon ctors, Rate, Flush
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds.count("engine_") + kinds.count("window_"), 0u);
  EXPECT_EQ(kinds["Daemon"], FunctionKind::kConstructor);
  EXPECT_EQ(kinds["Rate"], FunctionKind::kOther);
  EXPECT_EQ(kinds["Flush"], FunctionKind::kOther);
  // `InitMetrics` is a declaration (no body): recorded only as a decl token.
  EXPECT_EQ(kinds.count("InitMetrics"), 0u);
}

TEST(Syntax, LambdaCapturesParamsAndNesting) {
  const LexedFile file = Lex(
      "src/core/a.cc",
      "void f(Pool& pool, Slot* slots, std::size_t n, double bias) {\n"
      "  auto body = [&, bias, k = n * 2](std::size_t i, int depth) mutable {\n"
      "    auto inner = [this, &slots](int j) { return slots[j]; };\n"
      "    (void)inner;\n"
      "  };\n"
      "  int arr[3];\n"
      "  (void)arr[1];  // subscript, not a lambda introducer\n"
      "  [[maybe_unused]] int x = 0;  // attribute, not a lambda\n"
      "}\n");
  const SyntaxInfo syntax = ScanSyntax(file);
  ASSERT_EQ(syntax.lambdas.size(), 2u);
  const LambdaInfo& outer = syntax.lambdas[0];
  EXPECT_TRUE(outer.default_ref);
  EXPECT_FALSE(outer.default_copy);
  ASSERT_EQ(outer.captures.size(), 3u);
  EXPECT_EQ(outer.captures[1].name, "bias");
  EXPECT_FALSE(outer.captures[1].by_ref);
  EXPECT_EQ(outer.captures[2].name, "k");
  EXPECT_TRUE(outer.captures[2].has_init);
  EXPECT_EQ(outer.params, (std::vector<std::string>{"i", "depth"}));
  const LambdaInfo& inner = syntax.lambdas[1];
  EXPECT_TRUE(inner.captures_this);
  ASSERT_EQ(inner.captures.size(), 2u);
  EXPECT_EQ(inner.captures[1].name, "slots");
  EXPECT_TRUE(inner.captures[1].by_ref);
  EXPECT_GT(inner.intro, outer.body_begin);
  EXPECT_LT(inner.body_end, outer.body_end);
}

TEST(Syntax, MacroBodyBracesDoNotCorruptSpans) {
  const LexedFile file = Lex("src/core/a.cc",
                             "#define OPEN_SCOPE {\n"
                             "void f() { int x = 0; (void)x; }\n");
  const SyntaxInfo syntax = ScanSyntax(file);
  ASSERT_EQ(syntax.functions.size(), 1u);
  EXPECT_EQ(syntax.functions[0].name, "f");
  EXPECT_LT(syntax.functions[0].body_end, file.tokens.size());
}

TEST(Syntax, WorkerCallSpansCoverOnlyArguments) {
  const LexedFile file = Lex("src/core/a.cc",
                             "void f(Pool& pool, std::size_t n) {\n"
                             "  Before();\n"
                             "  pool.ParallelFor(n, [&](std::size_t i) { Work(i); });\n"
                             "  After();\n"
                             "}\n"
                             "void ParallelFor(int n);  // free fn, not a worker call\n");
  const auto spans = WorkerCallSpans(file.tokens);
  ASSERT_EQ(spans.size(), 1u);
  std::set<std::string> inside;
  for (std::size_t k = spans[0].first; k < spans[0].second; ++k) {
    if (file.tokens[k].kind == TokenKind::kIdentifier) inside.insert(file.tokens[k].text);
  }
  EXPECT_EQ(inside.count("Work"), 1u);
  EXPECT_EQ(inside.count("Before") + inside.count("After"), 0u);
}

// --- worker-capture-purity ------------------------------------------------

TEST(WorkerCapture, SharedAccumulatorAndChargeFlagged) {
  const auto diags = LintOne("src/solver/a.cc",
                             "void f(Pool& pool, Engine& engine, Slot* slots, std::size_t n) {\n"
                             "  double total = 0.0;\n"
                             "  pool.ParallelFor(n, [&](std::size_t i) {\n"
                             "    slots[i].sum = Score(i);\n"
                             "    total += slots[i].sum;\n"
                             "    engine.Compute(5);\n"
                             "  });\n"
                             "}\n");
  EXPECT_EQ(diags.size(), 2u);
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRuleWorkerCapture});
}

TEST(WorkerCapture, SlotWritesLocalsAndValueCapturesPass) {
  const auto diags = LintOne("src/solver/a.cc",
                             "void f(Pool& pool, Slot* slots, std::size_t n, double bias) {\n"
                             "  pool.ParallelFor(n, [&, bias](std::size_t i) {\n"
                             "    double acc = bias;\n"
                             "    acc += 1.0;\n"
                             "    bias = 0.0;\n"  // value capture: worker-local copy
                             "    slots[i].sum = acc;\n"
                             "    slots[i].obs.calls++;\n"
                             "    ++slots[i].obs.calls;\n"
                             "  });\n"
                             "}\n");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(WorkerCapture, ExplicitByRefCaptureWriteFlagged) {
  const auto diags = LintOne("src/solver/a.cc",
                             "void f(Pool& pool, std::size_t n) {\n"
                             "  std::size_t done = 0;\n"
                             "  pool.ParallelFor(n, [&done](std::size_t i) { ++done; });\n"
                             "}\n");
  EXPECT_EQ(diags.size(), 1u);
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRuleWorkerCapture});
}

TEST(WorkerCapture, MemberWriteThroughCapturedThisFlagged) {
  const auto diags = LintOne("src/solver/a.cc",
                             "void C::Run(Pool& pool, std::size_t n) {\n"
                             "  pool.Submit([this](std::size_t i) { this->count_ = i; });\n"
                             "  pool.Submit([=](std::size_t i) { count_ = i; });\n"
                             "}\n");
  EXPECT_EQ(diags.size(), 2u);
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRuleWorkerCapture});
}

TEST(WorkerCapture, NestedLambdaInsideWorkerUsesOuterLocals) {
  // The inner [&] captures the worker's own local by reference — that is
  // still worker-local state, not shared across workers.
  const auto diags = LintOne("src/solver/a.cc",
                             "void f(Pool& pool, Slot* slots, std::size_t n) {\n"
                             "  pool.ParallelFor(n, [&](std::size_t i) {\n"
                             "    double acc = 0.0;\n"
                             "    auto add = [&](double v) { acc += v; };\n"
                             "    add(1.0);\n"
                             "    slots[i].sum = acc;\n"
                             "  });\n"
                             "}\n");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(WorkerCapture, SharedSubscriptWritesFlagged) {
  // A subscript only makes a receiver slot-owned when a worker-local indexes
  // it (DESIGN.md §4g): writing a captured shard map through a captured key
  // or a fixed stripe is shared mutation, assignment and increment alike.
  const auto diags = LintOne("src/zswap/a.cc",
                             "void f(Pool& pool, Shard* shards, Slot* slots, std::size_t n,\n"
                             "       std::size_t key) {\n"
                             "  pool.ParallelFor(n, [&](std::size_t i) {\n"
                             "    shards[key].entries = 0;\n"
                             "    shards[kHot].hits += 1;\n"
                             "    ++shards[key].pins;\n"
                             "    shards[key].misses++;\n"
                             "    slots[i].sum = 1.0;\n"
                             "  });\n"
                             "}\n");
  EXPECT_EQ(diags.size(), 4u);
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRuleWorkerCapture});
}

TEST(WorkerCapture, LocalIndexedSubscriptWritesPass) {
  // slots[i], scratch[i * kStride], and a local-derived stripe index are all
  // slot-owned; a bare subscripted LHS (`slots[i * kStride] = ...`) too.
  const auto diags = LintOne("src/zswap/a.cc",
                             "void f(Pool& pool, Shard* shards, Slot* slots, double* scratch,\n"
                             "       std::size_t n) {\n"
                             "  pool.ParallelFor(n, [&](std::size_t i) {\n"
                             "    const std::size_t stripe = i * kStride + 1;\n"
                             "    shards[stripe].scratch = 0;\n"
                             "    scratch[i * kStride] = 2.0;\n"
                             "    slots[i].delta.loads += 1;\n"
                             "    slots[i].obs.flushes++;\n"
                             "    ++slots[i].obs.commits;\n"
                             "  });\n"
                             "}\n");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(WorkerCapture, ComparisonsAndDeclarationsNotWrites) {
  const auto diags = LintOne("src/solver/a.cc",
                             "void f(Pool& pool, Slot* slots, std::size_t n, int limit) {\n"
                             "  pool.ParallelFor(n, [&](std::size_t i) {\n"
                             "    if (slots[i].sum == 0.0 && limit <= 4) { slots[i].hit = true; }\n"
                             "    const Slot& s = slots[i];\n"
                             "    slots[i].copy = s.sum;\n"
                             "  });\n"
                             "}\n");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

// --- handle-resolution-at-construction ------------------------------------

TEST(HandleResolution, PlainMethodResolutionFlagged) {
  const auto diags = LintOne("src/obs/a.cc",
                             "void C::Record(MetricsRegistry& m) {\n"
                             "  m.GetCounter(\"c/hits\").Add(1);\n"
                             "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleHandleResolution);
}

TEST(HandleResolution, ConstructorInitListAndInitMethodsPass) {
  const auto diags = LintOne("src/obs/a.cc",
                             "C::C(MetricsRegistry& m) : m_hits_(&m.GetCounter(\"c/hits\")) {\n"
                             "  m_miss_ = &m.GetCounter(\"c/miss\");\n"
                             "}\n"
                             "void C::InitSlow(MetricsRegistry& m) {\n"
                             "  m_slow_ = &m.GetGauge(\"c/slow\");\n"
                             "}\n"
                             "void C::RegisterAll(MetricsRegistry& m) {\n"
                             "  m_all_ = &m.GetHistogram(\"c/all\", kBounds);\n"
                             "}\n");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(HandleResolution, OnlyProductionCodeConstrained) {
  const auto diags = LintOne("bench/a.cc",
                             "void Cell::Run(MetricsRegistry& m) {\n"
                             "  m.GetCounter(\"cell/ops\").Add(1);\n"
                             "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(HandleResolution, WorkerSpansBelongToPoolRules) {
  // Inside a worker lambda the pool rules own registrar calls — the same
  // construct must not double-report under handle-resolution.
  const auto diags = LintOne("src/solver/a.cc",
                             "void C::Run(Pool& pool, Obs& obs, std::size_t n) {\n"
                             "  pool.ParallelFor(n, [&](std::size_t i) {\n"
                             "    obs.metrics.GetCounter(\"x\")->Add(1);\n"
                             "  });\n"
                             "}\n");
  EXPECT_EQ(Rules(diags), std::set<std::string>{kRulePoolPurity});
}

TEST(HandleResolution, NamespaceScopeRegistrationAllowed) {
  const auto diags =
      LintOne("src/obs/a.cc", "Counter& g_hits = Default().metrics.GetCounter(\"g/hits\");\n");
  EXPECT_TRUE(diags.empty());
}

// --- allowlist hygiene ----------------------------------------------------

TEST(AllowHygiene, UnknownRuleNameFails) {
  std::vector<Diagnostic> parse_diags;
  const auto allow =
      ParseAllowlist("tools/tslint_allow.txt",
                     "determinizm-quarantine src/core/a.cc typo in the rule name\n", parse_diags);
  const auto diags = LintOne("src/core/a.cc", "int x = 1;\n", allow);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleAllowlist);
  EXPECT_NE(diags[0].message.find("unknown rule"), std::string::npos);
}

TEST(AllowHygiene, UnusedEntryFails) {
  std::vector<Diagnostic> parse_diags;
  const auto allow = ParseAllowlist("tools/tslint_allow.txt",
                                    "determinism-quarantine src/core/a.cc nothing to suppress\n",
                                    parse_diags);
  const auto diags = LintOne("src/core/a.cc", "int x = 1;\n", allow);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleAllowlist);
  EXPECT_NE(diags[0].message.find("unused"), std::string::npos);
}

TEST(AllowHygiene, EntriesOutsideScannedTopDirsIgnored) {
  // A run without --self never scans tools/, so tools/ entries are neither
  // stale nor unused — they are simply out of scope.
  std::vector<Diagnostic> parse_diags;
  const auto allow = ParseAllowlist("tools/tslint_allow.txt",
                                    "determinism-quarantine tools/tslint_main.cc bench timing\n",
                                    parse_diags);
  EXPECT_TRUE(LintOne("src/core/a.cc", "int x = 1;\n", allow).empty());
}

// --- SARIF ----------------------------------------------------------------

TEST(Sarif, StructureAndRuleIndices) {
  const std::vector<Diagnostic> diags = {
      {kRuleLayering, "src/mem/up.cc", 1, 10, "layer \"mem\" may not include \"core\""},
      {kRuleHandleResolution, "src/obs/a.cc", 2, 5, "handle `GetCounter(...)` resolved by string"},
  };
  const std::string sarif = ToSarif(diags);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"tslint\""), std::string::npos);
  // Every rule is declared once, in AllRuleNames() order, and results carry
  // the matching ruleIndex.
  for (const std::string& rule : AllRuleNames()) {
    EXPECT_NE(sarif.find("\"id\":\"" + rule + "\""), std::string::npos) << rule;
  }
  std::size_t layering_index = 0;
  std::size_t handle_index = 0;
  for (std::size_t i = 0; i < AllRuleNames().size(); ++i) {
    if (AllRuleNames()[i] == kRuleLayering) layering_index = i;
    if (AllRuleNames()[i] == kRuleHandleResolution) handle_index = i;
  }
  EXPECT_NE(sarif.find("\"ruleIndex\":" + std::to_string(layering_index)), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\":" + std::to_string(handle_index)), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"src/mem/up.cc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":2"), std::string::npos);
  // Escaping: the quoted layer names must be escaped in the message text.
  EXPECT_NE(sarif.find("layer \\\"mem\\\""), std::string::npos);
}

TEST(Sarif, EmptyRunStillDeclaresTool) {
  const std::string sarif = ToSarif({});
  EXPECT_NE(sarif.find("\"results\":[]"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"tslint\""), std::string::npos);
}

// --- driver helpers -------------------------------------------------------

TEST(Glob, StarPatterns) {
  EXPECT_TRUE(GlobMatch("build*", "build"));
  EXPECT_TRUE(GlobMatch("build*", "build-tsan"));
  EXPECT_TRUE(GlobMatch("build*", "build2"));
  EXPECT_FALSE(GlobMatch("build*", "rebuild"));
  EXPECT_TRUE(GlobMatch("cmake-build*", "cmake-build-debug"));
  EXPECT_TRUE(GlobMatch(".git", ".git"));
  EXPECT_FALSE(GlobMatch(".git", ".github"));
  EXPECT_TRUE(GlobMatch("*.jsonl", "tslint.jsonl"));
}

TEST(Jsonl, EscapesAndShapes) {
  Diagnostic d{"layering", "src/a \"b\".cc", 3, 7, "line1\nline2"};
  EXPECT_EQ(ToJsonl(d),
            "{\"rule\":\"layering\",\"file\":\"src/a \\\"b\\\".cc\",\"line\":3,\"col\":7,"
            "\"message\":\"line1\\nline2\"}");
}

}  // namespace
}  // namespace tslint
}  // namespace tierscape
