// tslint CLI — see tools/tslint.h and DESIGN.md §4c.
//
//   tslint [--root DIR] [--allowlist FILE] [--jsonl FILE|-] [--sarif FILE]
//          [--self] [--quiet]
//   tslint --self-test FIXTURE_ROOT
//   tslint --list-rules
//
// --self adds tools/ to the scan so the linter lints itself under the same
// rules.
//
// Exit codes: 0 clean, 1 violations (or self-test failures), 2 usage/IO.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/tslint.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: tslint [--root DIR] [--allowlist FILE] [--jsonl FILE|-] [--sarif FILE]\n"
               "              [--self] [--quiet]\n"
               "       tslint --self-test FIXTURE_ROOT\n"
               "       tslint --list-rules\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tierscape::tslint;

  std::string root = ".";
  std::string allow_file;
  std::string jsonl;
  std::string sarif;
  std::string self_test_root;
  bool self = false;
  bool quiet = false;
  bool list_rules = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    if (arg == "--root") {
      if (!next(root)) return Usage();
    } else if (arg == "--allowlist") {
      if (!next(allow_file)) return Usage();
    } else if (arg == "--jsonl") {
      if (!next(jsonl)) return Usage();
    } else if (arg == "--sarif") {
      if (!next(sarif)) return Usage();
    } else if (arg == "--self") {
      self = true;
    } else if (arg == "--self-test") {
      if (!next(self_test_root)) return Usage();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else {
      return Usage();
    }
  }

  if (list_rules) {
    for (const std::string& rule : AllRuleNames()) {
      std::printf("%s\n", rule.c_str());
    }
    return 0;
  }

  if (!self_test_root.empty()) {
    std::vector<std::string> failures;
    const int rc = SelfTest(self_test_root, failures);
    for (const std::string& failure : failures) {
      std::fprintf(stderr, "tslint self-test: %s\n", failure.c_str());
    }
    if (rc == 0) {
      std::fprintf(stderr, "tslint self-test: all fixtures tripped exactly their rule\n");
    }
    return rc;
  }

  TreeScan scan = ScanTree(root, self);
  for (const std::string& err : scan.errors) {
    std::fprintf(stderr, "tslint: %s\n", err.c_str());
  }
  if (!scan.errors.empty()) {
    return 2;
  }
  if (scan.sources.empty()) {
    std::fprintf(stderr, "tslint: nothing to scan under %s\n", root.c_str());
    return 2;
  }

  if (allow_file.empty()) {
    allow_file = root + "/tools/tslint_allow.txt";
  }
  std::vector<Diagnostic> diags;
  std::vector<AllowEntry> allow;
  {
    std::ifstream in(allow_file);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      allow = ParseAllowlist("tools/tslint_allow.txt", buf.str(), diags);
    }
  }

  const std::vector<Diagnostic> lint = LintTree(scan.sources, allow, "tools/tslint_allow.txt");
  diags.insert(diags.end(), lint.begin(), lint.end());

  if (!jsonl.empty()) {
    if (jsonl == "-") {
      for (const Diagnostic& d : diags) std::printf("%s\n", ToJsonl(d).c_str());
    } else {
      std::ofstream out(jsonl);
      if (!out) {
        std::fprintf(stderr, "tslint: cannot write %s\n", jsonl.c_str());
        return 2;
      }
      for (const Diagnostic& d : diags) out << ToJsonl(d) << "\n";
    }
  }
  if (!sarif.empty()) {
    std::ofstream out(sarif);
    if (!out) {
      std::fprintf(stderr, "tslint: cannot write %s\n", sarif.c_str());
      return 2;
    }
    out << ToSarif(diags) << "\n";
  }
  if (!quiet) {
    for (const Diagnostic& d : diags) {
      std::fprintf(stderr, "%s\n", ToText(d).c_str());
    }
    std::fprintf(stderr, "tslint: %zu file(s), %zu violation(s)\n", scan.sources.size(),
                 diags.size());
  }
  return diags.empty() ? 0 : 1;
}
