// §8.4 solver cost at scale: the MCKP ("ILP") solver's cold greedy solve
// across a 10³ -> 10⁶-group curve, plus DP cells at the shapes the analytical
// policy solves every window (§6.4). The paper reports OR-Tools consuming
// <0.3% of a CPU and ~480 MB at paper scale.
//
// Cells run through the experiment grid, so per-cell wall/solver/solve_ms
// lands in $TIERSCAPE_BENCH_JSON (the perf trajectory across PRs) while
// stdout carries only deterministic solver outputs — total cost and work
// (greedy moves or DP cells) — byte-identical across grid thread counts
// (tools/bench_smoke.sh diffs them). Wall-clock solve times go to stderr.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/experiment_grid.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/solver/mckp.h"

using namespace tierscape;
using namespace tierscape::bench;

namespace {

constexpr int kTiers = 6;  // the standard mix's tier count (§8.1)

MckpProblem MakeProblem(std::size_t groups, int choices, double tightness, std::uint64_t seed) {
  Rng rng(seed);
  MckpProblem problem;
  problem.groups.reserve(groups);
  double min_total = 0.0;
  double max_total = 0.0;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<MckpChoice> group;
    group.reserve(choices);
    double group_min = 1e18;
    double group_max = 0.0;
    for (int k = 0; k < choices; ++k) {
      MckpChoice choice{.cost = rng.NextDouble() * 1e6, .weight = rng.NextDouble()};
      group_min = std::min(group_min, choice.weight);
      group_max = std::max(group_max, choice.weight);
      group.push_back(choice);
    }
    min_total += group_min;
    max_total += group_max;
    problem.groups.push_back(std::move(group));
  }
  problem.capacity = min_total + tightness * (max_total - min_total);
  return problem;
}

// A greedy cell forces Strategy::kGreedy; a DP cell runs the default options,
// where kAuto must pick the budget DP — the solve AnalyticalPolicy::Decide
// makes at every window boundary.
struct SolverCell {
  std::string label;
  std::size_t groups = 0;
  int choices = 0;
  bool dp = false;
  int solves = 1;
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Repeats the cold solve and records the median per-solve wall time in the
// cell's wall/ gauge only (this TU is determinism-quarantine allowlisted, so
// every metric it registers must be wall/-prefixed); stdout gets the
// deterministic total cost and work.
ExperimentResult RunCell(const SolverCell& cell, Observability& obs) {
  ExperimentResult result;
  result.workload = "mckp";
  result.policy = cell.label;
  Gauge& wall_solve_ms = obs.metrics.GetGauge("wall/solver/solve_ms");

  const MckpProblem problem = MakeProblem(cell.groups, cell.choices, 0.3, 42);
  MckpSolver::Options options;
  if (!cell.dp) {
    options.strategy = MckpSolver::Strategy::kGreedy;
  }
  MckpSolver solver(options);
  std::vector<double> solve_ms;
  MckpSolution solution;
  for (int i = 0; i < cell.solves; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto solved = solver.Solve(problem);
    solve_ms.push_back(MsSince(start));
    TS_CHECK(solved.ok()) << cell.label << ": " << solved.status().ToString();
    solution = *std::move(solved);
  }
  TS_CHECK(ValidateSolution(problem, solution).ok()) << cell.label;
  TS_CHECK(solver.stats().used ==
           (cell.dp ? MckpSolver::Strategy::kDp : MckpSolver::Strategy::kGreedy))
      << cell.label;
  std::sort(solve_ms.begin(), solve_ms.end());
  const double median_ms = solve_ms[solve_ms.size() / 2];
  result.extras.emplace_back("groups", static_cast<double>(cell.groups));
  result.extras.emplace_back("cost", solution.total_cost);
  result.extras.emplace_back("work", static_cast<double>(cell.dp ? solver.stats().dp_cells
                                                                 : solver.stats().greedy_moves));
  result.extras.emplace_back("wall_solve_ms", median_ms);
  wall_solve_ms.Set(median_ms);
  return result;
}

std::string ResultsTable(const std::vector<ExperimentResult>& results) {
  TablePrinter table({"cell", "groups", "cost", "work"});
  for (const ExperimentResult& r : results) {
    table.AddRow({r.policy, TablePrinter::Fmt(r.Extra("groups"), 0),
                  TablePrinter::Fmt(r.Extra("cost"), 0), TablePrinter::Fmt(r.Extra("work"), 0)});
  }
  return table.ToString();
}

}  // namespace

int main() {
  const bool smoke = BenchSmoke();
  // Smoke keeps the curve tiny so every CI leg still exercises both
  // strategies (EXPERIMENTS.md "CI smoke").
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1'000, 10'000}
            : std::vector<std::size_t>{1'000, 10'000, 100'000, 1'000'000};
  const int dp_solves = smoke ? 16 : 200;

  std::vector<SolverCell> cells;
  for (const std::size_t n : sizes) {
    cells.push_back({"greedy/n" + std::to_string(n), n, kTiers, false, 1});
  }
  // memcached-ycsb's 26 regions on the 4-tier standard mix (2,049 buckets),
  // and 256 regions x 6 tiers (4,097 buckets, still under kAuto's DP
  // threshold).
  cells.push_back({"dp/26x4", 26, 4, true, dp_solves});
  cells.push_back({"dp/256x6", 256, 6, true, dp_solves});

  ExperimentGrid grid("micro_solver");
  for (const SolverCell& cell : cells) {
    CellSpec spec;
    spec.label = cell.label;
    spec.run = [cell](Observability& obs, const CellContext&) { return RunCell(cell, obs); };
    grid.Add(std::move(spec));
  }
  const std::vector<ExperimentResult> results = grid.Run();

  std::printf("Micro: MCKP solver, cold greedy curve and DP cells (%s)\n\n",
              smoke ? "smoke" : "full");
  std::printf("%s\n", ResultsTable(results).c_str());

  // Wall-clock reporting (stderr: host-dependent, excluded from the smoke
  // byte-diff).
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::fprintf(stderr, "%s: %.3f ms/solve (median of %d)\n", cells[i].label.c_str(),
                 results[i].Extra("wall_solve_ms"), cells[i].solves);
  }
  return 0;
}
