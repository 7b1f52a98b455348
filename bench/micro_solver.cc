// §8.4 solver cost at scale: the MCKP ("ILP") solver's 10³ -> 10⁶-region
// scaling curve, cold vs warm-start vs sharded (DESIGN.md §4e), plus a
// churn-rate sweep. The paper reports OR-Tools consuming <0.3% of a CPU and
// ~480 MB at paper scale; ROADMAP item 5 targets a >=10x warm-start win at
// 10⁶ regions with <=5% bucket churn, which this bench asserts outside smoke
// mode. Two cold DP cells time the budget DP at the shapes the analytical
// policy solves every window (§6.4).
//
// Cells run through the experiment grid, so per-cell wall/solver/* metrics
// land in $TIERSCAPE_BENCH_JSON (the perf trajectory across PRs) while
// stdout carries only deterministic solver outputs — total cost, move
// counts, churn — byte-identical across grid thread counts
// (tools/bench_smoke.sh diffs them). Wall-clock speedups go to stderr.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/experiment_grid.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
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

double CapacityAt(const MckpProblem& problem, double tightness) {
  double min_total = 0.0;
  double max_total = 0.0;
  for (const auto& group : problem.groups) {
    double group_min = 1e18;
    double group_max = 0.0;
    for (const auto& choice : group) {
      group_min = std::min(group_min, choice.weight);
      group_max = std::max(group_max, choice.weight);
    }
    min_total += group_min;
    max_total += group_max;
  }
  return min_total + tightness * (max_total - min_total);
}

// One window of bucket churn: re-rolls `count` seeded-random groups and
// marks them in `hint` (the telemetry changed-bucket bitmap stand-in).
void ChurnGroups(Rng& rng, MckpProblem& problem, std::size_t count,
                 std::vector<std::uint8_t>& hint) {
  hint.assign(problem.groups.size(), 0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t g = rng.NextBelow(problem.groups.size());
    for (auto& choice : problem.groups[g]) {
      choice.cost = rng.NextDouble() * 1e6;
      choice.weight = rng.NextDouble();
    }
    hint[g] = 1;
  }
}

struct CurveCell {
  std::string label;
  std::size_t groups = 0;
  double churn = 0.0;  // fraction of groups re-rolled per warm window
  int windows = 0;     // warm windows after the cold first solve
  int shards = 1;
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Runs one scaling-curve cell: a cold first solve, then `windows` churned
// warm windows. Deterministic solver outputs go into `extras` for the stdout
// table; measured times go to the cell's wall/ gauges only (this TU is
// determinism-quarantine allowlisted, so every metric it registers must be
// wall/-prefixed).
ExperimentResult RunCurveCell(const CurveCell& cell, Observability& obs,
                              const CellContext& ctx) {
  ExperimentResult result;
  result.workload = "mckp";
  result.policy = cell.label;
  Gauge& wall_solve_ms = obs.metrics.GetGauge("wall/solver/solve_ms");
  Gauge& wall_cold_ms = obs.metrics.GetGauge("wall/solver/cold_ms");
  Gauge& wall_warm_ms = obs.metrics.GetGauge("wall/solver/warm_ms");

  MckpProblem problem = MakeProblem(cell.groups, kTiers, 0.3, 42);
  MckpSolver::Options options;
  options.strategy = MckpSolver::Strategy::kGreedy;
  options.shards = cell.shards;
  // Mirror the runner's nested-pool cap (experiment_grid.h): a parallel grid
  // keeps each cell's solver pool serial. Wall-clock-only — the shard count,
  // not the pool size, determines the result.
  ThreadPool pool(cell.shards > 1 && ctx.grid_threads <= 1 ? 4 : 1);
  options.pool = cell.shards > 1 ? &pool : nullptr;
  MckpSolver solver(options);
  MckpIncrementalState state;

  const auto cold_start = std::chrono::steady_clock::now();
  auto solution = solver.Solve(problem, &state);
  const double cold_ms = MsSince(cold_start);
  TS_CHECK(solution.ok()) << cell.label << ": " << solution.status().ToString();
  TS_CHECK(ValidateSolution(problem, *solution).ok()) << cell.label;
  result.extras.emplace_back("groups", static_cast<double>(cell.groups));
  result.extras.emplace_back("cold_cost", solution->total_cost);
  result.extras.emplace_back("cold_moves", static_cast<double>(solver.stats().greedy_moves));
  result.extras.emplace_back("shards", static_cast<double>(solver.stats().shards_used));

  Rng churn_rng(1000 + cell.groups + static_cast<std::uint64_t>(cell.churn * 100.0));
  std::vector<std::uint8_t> hint;
  double warm_total_ms = 0.0;
  double last_cost = solution->total_cost;
  std::size_t warm_windows = 0;
  std::size_t changed_total = 0;
  std::size_t fallbacks = 0;
  for (int window = 0; window < cell.windows; ++window) {
    const auto count = static_cast<std::size_t>(
        static_cast<double>(cell.groups) * cell.churn + 0.5);
    ChurnGroups(churn_rng, problem, count, hint);
    problem.capacity = CapacityAt(problem, 0.3);
    const auto warm_start = std::chrono::steady_clock::now();
    auto warm = solver.Solve(problem, &state, &hint);
    warm_total_ms += MsSince(warm_start);
    TS_CHECK(warm.ok()) << cell.label << " window " << window;
    TS_CHECK(ValidateSolution(problem, *warm).ok()) << cell.label << " window " << window;
    last_cost = warm->total_cost;
    warm_windows += solver.stats().warm ? 1 : 0;
    fallbacks += solver.stats().warm_fallback ? 1 : 0;
    changed_total += solver.stats().groups_changed;
  }
  const double warm_avg_ms =
      cell.windows > 0 ? warm_total_ms / static_cast<double>(cell.windows) : 0.0;
  result.extras.emplace_back("last_cost", last_cost);
  result.extras.emplace_back("warm_windows", static_cast<double>(warm_windows));
  result.extras.emplace_back("fallbacks", static_cast<double>(fallbacks));
  result.extras.emplace_back(
      "changed_per_window",
      cell.windows > 0 ? static_cast<double>(changed_total) / cell.windows : 0.0);
  // Wall-side records (BENCH_grid.json + stderr; never stdout).
  result.extras.emplace_back("wall_cold_ms", cold_ms);
  result.extras.emplace_back("wall_warm_avg_ms", warm_avg_ms);
  wall_cold_ms.Set(cold_ms);
  wall_warm_ms.Set(warm_avg_ms);
  wall_solve_ms.Set(cell.windows > 0 ? warm_avg_ms : cold_ms);
  return result;
}

// A cold DP cell: `groups` x `choices` at the default options, where kAuto
// picks the budget DP — the solve AnalyticalPolicy::Decide makes at every
// window boundary.
struct DpCell {
  std::string label;
  std::size_t groups = 0;
  int choices = 0;
};

// Repeats the cold solve and records the median per-solve wall time; stdout
// gets the deterministic total cost.
ExperimentResult RunDpCell(const DpCell& cell, int solves, Observability& obs) {
  ExperimentResult result;
  result.workload = "mckp";
  result.policy = cell.label;
  Gauge& wall_solve_ms = obs.metrics.GetGauge("wall/solver/solve_ms");

  const MckpProblem problem = MakeProblem(cell.groups, cell.choices, 0.3, 42);
  MckpSolver solver;
  std::vector<double> solve_ms;
  double cost = 0.0;
  for (int i = 0; i < solves; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto solution = solver.Solve(problem);
    solve_ms.push_back(MsSince(start));
    TS_CHECK(solution.ok()) << cell.label << ": " << solution.status().ToString();
    TS_CHECK(solver.stats().used == MckpSolver::Strategy::kDp) << cell.label;
    cost = solution->total_cost;
  }
  std::sort(solve_ms.begin(), solve_ms.end());
  const double median_ms = solve_ms[solve_ms.size() / 2];
  result.extras.emplace_back("groups", static_cast<double>(cell.groups));
  result.extras.emplace_back("cold_cost", cost);
  result.extras.emplace_back("last_cost", cost);
  result.extras.emplace_back("shards", 1.0);
  result.extras.emplace_back("dp_cells", static_cast<double>(solver.stats().dp_cells));
  result.extras.emplace_back("wall_solve_ms", median_ms);
  wall_solve_ms.Set(median_ms);
  return result;
}

std::string ResultsTable(const std::vector<ExperimentResult>& results) {
  TablePrinter table({"cell", "groups", "cold cost", "last cost", "warm wins", "fallbacks",
                      "changed/win", "shards"});
  for (const ExperimentResult& r : results) {
    table.AddRow({r.policy, TablePrinter::Fmt(r.Extra("groups"), 0),
                  TablePrinter::Fmt(r.Extra("cold_cost"), 0),
                  TablePrinter::Fmt(r.Extra("last_cost"), 0),
                  TablePrinter::Fmt(r.Extra("warm_windows"), 0),
                  TablePrinter::Fmt(r.Extra("fallbacks"), 0),
                  TablePrinter::Fmt(r.Extra("changed_per_window"), 0),
                  TablePrinter::Fmt(r.Extra("shards"), 0)});
  }
  return table.ToString();
}

const ExperimentResult* FindCell(const std::vector<ExperimentResult>& results,
                                 const std::string& label) {
  for (const ExperimentResult& r : results) {
    if (r.policy == label) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace

int main() {
  const bool smoke = BenchSmoke();
  // Smoke keeps the curve tiny so every CI leg still exercises cold, warm,
  // sharded, and churn-sweep paths (EXPERIMENTS.md "CI smoke").
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1'000, 10'000}
            : std::vector<std::size_t>{1'000, 10'000, 100'000, 1'000'000};
  const std::size_t sweep_size = smoke ? 10'000 : 100'000;
  constexpr int kWarmWindows = 8;

  ExperimentGrid grid("micro_solver");
  std::vector<CurveCell> cells;
  for (const std::size_t n : sizes) {
    const std::string suffix = "/n" + std::to_string(n);
    cells.push_back({"cold" + suffix, n, 0.0, 0, 1});
    cells.push_back({"warm" + suffix, n, 0.05, kWarmWindows, 1});
    cells.push_back({"sharded" + suffix, n, 0.0, 0, 8});
  }
  for (const int churn_pct : {1, 5, 20, 90}) {
    // Churn re-rolls sample with replacement, so 90% of the group count
    // touches ~59% unique groups — above Options::warm_churn_fallback, so
    // every window of that cell must fall back to the cold path (visible in
    // its "fallbacks" column).
    cells.push_back({"churn/n" + std::to_string(sweep_size) + "/c" + std::to_string(churn_pct),
                     sweep_size, churn_pct / 100.0, kWarmWindows, 1});
  }
  cells.push_back({"warm_sharded/n" + std::to_string(sizes.back()), sizes.back(), 0.05,
                   kWarmWindows, 8});
  // memcached-ycsb's 26 regions on the 4-tier standard mix (2,049 buckets),
  // and 256 regions x 6 tiers (4,097 buckets, still under kAuto's DP
  // threshold).
  const std::vector<DpCell> dp_cells = {{"dp/26x4", 26, 4}, {"dp/256x6", 256, 6}};
  const int dp_solves = smoke ? 16 : 200;

  for (const CurveCell& cell : cells) {
    CellSpec spec;
    spec.label = cell.label;
    spec.run = [cell](Observability& obs, const CellContext& ctx) {
      return RunCurveCell(cell, obs, ctx);
    };
    grid.Add(std::move(spec));
  }
  for (const DpCell& cell : dp_cells) {
    CellSpec spec;
    spec.label = cell.label;
    spec.run = [cell, dp_solves](Observability& obs, const CellContext&) {
      return RunDpCell(cell, dp_solves, obs);
    };
    grid.Add(std::move(spec));
  }
  const std::vector<ExperimentResult> results = grid.Run();

  std::printf("Micro: MCKP solver scaling curve, cold vs warm vs sharded, and cold DP (%s)\n\n",
              smoke ? "smoke" : "full");
  std::printf("%s\n", ResultsTable(results).c_str());

  // Wall-clock reporting (stderr: host-dependent, excluded from the smoke
  // byte-diff). The >=10x warm-start acceptance gate runs at full scale only.
  for (const std::size_t n : sizes) {
    const std::string suffix = "/n" + std::to_string(n);
    const ExperimentResult* cold = FindCell(results, "cold" + suffix);
    const ExperimentResult* warm = FindCell(results, "warm" + suffix);
    const ExperimentResult* sharded = FindCell(results, "sharded" + suffix);
    if (cold == nullptr || warm == nullptr || sharded == nullptr) {
      continue;
    }
    const double cold_ms = cold->Extra("wall_cold_ms");
    const double warm_ms = warm->Extra("wall_warm_avg_ms");
    const double sharded_ms = sharded->Extra("wall_cold_ms");
    std::fprintf(stderr,
                 "n=%zu: cold %.2f ms, warm %.2f ms/window (%.1fx), sharded cold %.2f ms "
                 "(%.2fx)\n",
                 n, cold_ms, warm_ms, warm_ms > 0.0 ? cold_ms / warm_ms : 0.0, sharded_ms,
                 sharded_ms > 0.0 ? cold_ms / sharded_ms : 0.0);
    if (!smoke && n == 1'000'000 && warm_ms > 0.0) {
      TS_CHECK_GT(cold_ms / warm_ms, 10.0)
          << "warm-start speedup below 10x at 10^6 regions with 5% churn (ROADMAP item 5)";
    }
  }
  for (const DpCell& cell : dp_cells) {
    const ExperimentResult* dp = FindCell(results, cell.label);
    if (dp == nullptr) {
      continue;
    }
    std::fprintf(stderr, "%s: cold DP %.3f ms/solve (median of %d, %.0f cells)\n",
                 cell.label.c_str(), dp->Extra("wall_solve_ms"), dp_solves,
                 dp->Extra("dp_cells"));
  }
  return 0;
}
