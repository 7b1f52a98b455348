// Tests for the MCKP solver: correctness against brute force on randomized
// small instances (both strategies), budget handling, and edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/solver/mckp.h"

namespace tierscape {
namespace {

// Exhaustive optimum for small instances.
double BruteForce(const MckpProblem& problem) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> choice(problem.groups.size(), 0);
  for (;;) {
    double cost = 0.0;
    double weight = 0.0;
    for (std::size_t g = 0; g < problem.groups.size(); ++g) {
      cost += problem.groups[g][choice[g]].cost;
      weight += problem.groups[g][choice[g]].weight;
    }
    if (weight <= problem.capacity && cost < best) {
      best = cost;
    }
    // Odometer increment.
    std::size_t g = 0;
    while (g < choice.size()) {
      if (++choice[g] < static_cast<int>(problem.groups[g].size())) {
        break;
      }
      choice[g] = 0;
      ++g;
    }
    if (g == choice.size()) {
      break;
    }
  }
  return best;
}

// Integer costs and weights in [0, range): exact ties are common, and the
// smaller the range the more of them.
MckpProblem RandomProblem(Rng& rng, int groups, int choices, std::uint64_t range = 1000) {
  MckpProblem problem;
  double min_weight_total = 0.0;
  double max_weight_total = 0.0;
  for (int g = 0; g < groups; ++g) {
    std::vector<MckpChoice> group;
    double group_min = 1e18;
    double group_max = 0.0;
    for (int k = 0; k < choices; ++k) {
      MckpChoice choice;
      choice.cost = static_cast<double>(rng.NextBelow(range));
      choice.weight = static_cast<double>(rng.NextBelow(range));
      group_min = std::min(group_min, choice.weight);
      group_max = std::max(group_max, choice.weight);
      group.push_back(choice);
    }
    min_weight_total += group_min;
    max_weight_total += group_max;
    problem.groups.push_back(std::move(group));
  }
  problem.capacity =
      min_weight_total + rng.NextDouble() * (max_weight_total - min_weight_total);
  return problem;
}

// Budget at `alpha` between the minimum- and maximum-weight assignments.
double CapacityAt(const MckpProblem& problem, double alpha) {
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
  return min_total + alpha * (max_total - min_total);
}

// Real-valued costs below 1e6 and weights below 1, like the analytical
// policy's perf costs and TCO weights; budget at `tightness` (CapacityAt).
MckpProblem RealValuedProblem(Rng& rng, int groups, int choices, double tightness) {
  MckpProblem problem;
  for (int g = 0; g < groups; ++g) {
    std::vector<MckpChoice> group;
    for (int k = 0; k < choices; ++k) {
      group.push_back({.cost = rng.NextDouble() * 1e6, .weight = rng.NextDouble()});
    }
    problem.groups.push_back(std::move(group));
  }
  problem.capacity = CapacityAt(problem, tightness);
  return problem;
}

TEST(MckpSolverTest, TrivialSingleGroup) {
  MckpProblem problem;
  problem.groups = {{{.cost = 10.0, .weight = 5.0}, {.cost = 1.0, .weight = 20.0}}};
  problem.capacity = 25.0;
  MckpSolver solver;
  auto solution = solver.Solve(problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->choice[0], 1);  // cheap choice fits
  EXPECT_DOUBLE_EQ(solution->total_cost, 1.0);
}

TEST(MckpSolverTest, BudgetForcesExpensiveChoice) {
  MckpProblem problem;
  problem.groups = {{{.cost = 10.0, .weight = 5.0}, {.cost = 1.0, .weight = 20.0}}};
  problem.capacity = 10.0;
  MckpSolver solver;
  auto solution = solver.Solve(problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->choice[0], 0);
  EXPECT_LE(solution->total_weight, 10.0);
}

TEST(MckpSolverTest, InfeasibleReported) {
  MckpProblem problem;
  problem.groups = {{{.cost = 1.0, .weight = 50.0}, {.cost = 2.0, .weight = 60.0}}};
  problem.capacity = 10.0;
  MckpSolver solver;
  auto solution = solver.Solve(problem);
  ASSERT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kResourceExhausted);
}

TEST(MckpSolverTest, RejectsMalformedProblems) {
  MckpSolver solver;
  EXPECT_FALSE(solver.Solve(MckpProblem{}).ok());
  MckpProblem empty_group;
  empty_group.groups = {{}};
  empty_group.capacity = 1.0;
  EXPECT_FALSE(solver.Solve(empty_group).ok());
}

TEST(MckpSolverTest, ZeroCapacityWithZeroWeights) {
  MckpProblem problem;
  problem.groups = {{{.cost = 3.0, .weight = 0.0}, {.cost = 1.0, .weight = 1.0}}};
  problem.capacity = 0.0;
  MckpSolver solver;
  auto solution = solver.Solve(problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->choice[0], 0);
}

// Parameterized: DP matches brute force on random instances. The DP rounds
// weights up to capacity/8192 buckets; with weights up to 1000 and ~6 groups
// the discretization error is far below one unit of cost here, so we allow
// a tiny slack only.
class DpExactnessTest : public ::testing::TestWithParam<int> {};

TEST_P(DpExactnessTest, MatchesBruteForce) {
  Rng rng(1000 + GetParam());
  for (int round = 0; round < 20; ++round) {
    const MckpProblem problem = RandomProblem(rng, 5, 4);
    MckpSolver::Options options;
    options.strategy = MckpSolver::Strategy::kDp;
    options.dp_buckets = 16384;
    MckpSolver solver(options);
    auto solution = solver.Solve(problem);
    const double brute = BruteForce(problem);
    if (!solution.ok()) {
      // The DP may only fail when even the min assignment barely fits; the
      // brute-force must then also be infeasible or borderline.
      EXPECT_TRUE(std::isinf(brute));
      continue;
    }
    EXPECT_TRUE(ValidateSolution(problem, *solution).ok());
    // Rounding up weights can exclude solutions that fit exactly; allow the
    // DP to be no better than brute force and within a small factor above.
    EXPECT_GE(solution->total_cost, brute - 1e-9);
    EXPECT_LE(solution->total_cost, brute + 200.0)
        << "DP too far from optimum in round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpExactnessTest, ::testing::Range(0, 5));

// Greedy must be feasible and close to optimal on random instances.
class GreedyQualityTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyQualityTest, FeasibleAndNearOptimal) {
  Rng rng(2000 + GetParam());
  double total_gap = 0.0;
  int measured = 0;
  for (int round = 0; round < 20; ++round) {
    const MckpProblem problem = RandomProblem(rng, 6, 4);
    MckpSolver::Options options;
    options.strategy = MckpSolver::Strategy::kGreedy;
    MckpSolver solver(options);
    auto solution = solver.Solve(problem);
    const double brute = BruteForce(problem);
    if (!solution.ok()) {
      continue;
    }
    EXPECT_TRUE(ValidateSolution(problem, *solution).ok());
    EXPECT_GE(solution->total_cost, brute - 1e-9);
    total_gap += (solution->total_cost - brute) / (brute + 1.0);
    ++measured;
  }
  ASSERT_GT(measured, 10);
  EXPECT_LT(total_gap / measured, 0.25) << "greedy average gap too large";
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyQualityTest, ::testing::Range(0, 5));

TEST(MckpSolverTest, LargeInstanceSolvesQuickly) {
  // Paper-scale: thousands of regions x 6 tiers (§8.4 reports <0.3% CPU).
  Rng rng(3);
  const MckpProblem problem = RealValuedProblem(rng, 4000, 6, 0.3);
  MckpSolver solver;
  auto solution = solver.Solve(problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(ValidateSolution(problem, *solution).ok());
  EXPECT_LE(solution->total_weight, problem.capacity * (1.0 + 1e-9));
}

TEST(MckpSolverTest, AlphaSweepMonotonicity) {
  // As the budget loosens, optimal cost must not increase — the knob's
  // monotone TCO/perf trade-off (Fig. 5/10) rests on this.
  Rng rng(17);
  const MckpProblem base = RandomProblem(rng, 8, 5);
  double previous_cost = std::numeric_limits<double>::infinity();
  for (double alpha = 0.0; alpha <= 1.0001; alpha += 0.1) {
    MckpProblem problem = base;
    problem.capacity = CapacityAt(base, alpha);
    MckpSolver solver;
    auto solution = solver.Solve(problem);
    ASSERT_TRUE(solution.ok()) << "alpha " << alpha;
    EXPECT_LE(solution->total_cost, previous_cost + 1e-6) << "alpha " << alpha;
    previous_cost = solution->total_cost;
  }
}

TEST(MckpSolverTest, DpRoundingLossBoundedAtScale) {
  // At 1024 groups the DP's cumulative weight round-up must stay small
  // enough that greedy cannot beat it by more than a few percent.
  Rng rng(55);
  const MckpProblem problem = RealValuedProblem(rng, 1024, 6, 0.3);
  MckpSolver::Options dp_options;
  dp_options.strategy = MckpSolver::Strategy::kDp;
  MckpSolver dp(dp_options);
  MckpSolver::Options greedy_options;
  greedy_options.strategy = MckpSolver::Strategy::kGreedy;
  MckpSolver greedy(greedy_options);
  auto dp_solution = dp.Solve(problem);
  auto greedy_solution = greedy.Solve(problem);
  ASSERT_TRUE(dp_solution.ok());
  ASSERT_TRUE(greedy_solution.ok());
  EXPECT_LT(dp_solution->total_cost, greedy_solution->total_cost * 1.05)
      << "DP rounding loss too large at scale";
}

// Pruning (Options::prune) must be invisible in the solved cost: dominance
// pruning is exact for the DP and the greedy seed/improvement scans, and the
// hull restriction is exact for the greedy efficiency walk. The integer-valued
// RandomProblem generator makes exact cost/weight ties and colinear triples
// common, so this also exercises the keep-first tie-break paths.
class PruningEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PruningEquivalenceTest, PruningPreservesTotalCost) {
  Rng rng(4000 + GetParam());
  std::size_t total_dominated = 0;
  for (int round = 0; round < 15; ++round) {
    const MckpProblem problem = RandomProblem(rng, 8, 6);
    for (const MckpSolver::Strategy strategy :
         {MckpSolver::Strategy::kDp, MckpSolver::Strategy::kGreedy}) {
      MckpSolver::Options pruned_options;
      pruned_options.strategy = strategy;
      pruned_options.prune = true;
      MckpSolver::Options full_options = pruned_options;
      full_options.prune = false;
      MckpSolver pruned(pruned_options);
      MckpSolver full(full_options);
      auto pruned_solution = pruned.Solve(problem);
      auto full_solution = full.Solve(problem);
      ASSERT_EQ(pruned_solution.ok(), full_solution.ok())
          << "round " << round << " strategy " << static_cast<int>(strategy);
      if (!pruned_solution.ok()) {
        continue;
      }
      // Bit-exact, not approximate: pruning may only skip choices the full
      // scan provably never picks, so the solve path is move-for-move equal.
      EXPECT_EQ(pruned_solution->total_cost, full_solution->total_cost)
          << "round " << round << " strategy " << static_cast<int>(strategy);
      EXPECT_EQ(pruned_solution->total_weight, full_solution->total_weight)
          << "round " << round << " strategy " << static_cast<int>(strategy);
      EXPECT_EQ(pruned_solution->choice, full_solution->choice)
          << "round " << round << " strategy " << static_cast<int>(strategy);
      EXPECT_TRUE(ValidateSolution(problem, *pruned_solution).ok());
      total_dominated += pruned.stats().pruned_dominated;
      EXPECT_EQ(full.stats().pruned_dominated, 0u);
    }
  }
  // The integer generator produces dominated choices in nearly every group;
  // a zero count would mean the pruner never engaged.
  EXPECT_GT(total_dominated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruningEquivalenceTest, ::testing::Range(0, 5));

TEST(MckpSolverTest, PruningHandlesDegenerateTies) {
  // Duplicates, a horizontal (equal-cost) hull segment, and a colinear
  // interior point — the cases where keep-first and colinear-keeping rules
  // carry the exactness proof.
  MckpProblem problem;
  problem.groups = {
      // Exact duplicates plus a dominated straggler.
      {{.cost = 5.0, .weight = 4.0}, {.cost = 5.0, .weight = 4.0}, {.cost = 6.0, .weight = 4.0}},
      // Horizontal segment: equal cost at weights 2/4/6 — heavier ones are
      // dominated yet remain legal efficiency-walk targets (on the hull).
      {{.cost = 3.0, .weight = 6.0}, {.cost = 3.0, .weight = 4.0}, {.cost = 3.0, .weight = 2.0}},
      // Colinear: (2,8) lies exactly on the segment (1,10)-(3,6).
      {{.cost = 10.0, .weight = 1.0}, {.cost = 8.0, .weight = 2.0}, {.cost = 6.0, .weight = 3.0}},
  };
  for (double capacity : {3.0, 5.0, 7.0, 9.0, 11.0, 13.0}) {
    problem.capacity = capacity;
    for (const MckpSolver::Strategy strategy :
         {MckpSolver::Strategy::kDp, MckpSolver::Strategy::kGreedy}) {
      MckpSolver::Options options;
      options.strategy = strategy;
      options.prune = true;
      MckpSolver pruned(options);
      options.prune = false;
      MckpSolver full(options);
      auto pruned_solution = pruned.Solve(problem);
      auto full_solution = full.Solve(problem);
      ASSERT_EQ(pruned_solution.ok(), full_solution.ok()) << "capacity " << capacity;
      if (!pruned_solution.ok()) {
        continue;
      }
      EXPECT_EQ(pruned_solution->total_cost, full_solution->total_cost)
          << "capacity " << capacity << " strategy " << static_cast<int>(strategy);
      EXPECT_EQ(pruned_solution->choice, full_solution->choice)
          << "capacity " << capacity << " strategy " << static_cast<int>(strategy);
    }
  }
}

TEST(MckpSolverTest, PruningShrinksDpWork) {
  // 6-choice groups with integer weights have dominated choices almost
  // always; the DP must visit measurably fewer cells with pruning on and
  // report what it dropped.
  Rng rng(91);
  const MckpProblem problem = RandomProblem(rng, 64, 6);
  MckpSolver::Options options;
  options.strategy = MckpSolver::Strategy::kDp;
  options.prune = true;
  MckpSolver pruned(options);
  options.prune = false;
  MckpSolver full(options);
  ASSERT_TRUE(pruned.Solve(problem).ok());
  ASSERT_TRUE(full.Solve(problem).ok());
  EXPECT_EQ(pruned.stats().choices_total, std::size_t{64 * 6});
  EXPECT_GT(pruned.stats().pruned_dominated, 0u);
  EXPECT_GT(pruned.stats().pruned_off_hull, 0u);
  EXPECT_LT(pruned.stats().dp_cells, full.stats().dp_cells);
  EXPECT_EQ(full.stats().dp_cells - pruned.stats().dp_cells,
            pruned.stats().pruned_dominated * (full.stats().dp_cells / (64 * 6)));
}

TEST(MckpSolverTest, StatsResetPerSolve) {
  // stats() must describe exactly the last Solve call: back-to-back windows
  // reuse one solver, and a cumulative dp_cells/greedy_moves would corrupt
  // the per-window §8.4 accounting.
  Rng rng(7);
  const MckpProblem big = RandomProblem(rng, 64, 6);
  MckpSolver solver;
  ASSERT_TRUE(solver.Solve(big).ok());
  const std::size_t big_cells = solver.stats().dp_cells;
  ASSERT_GT(big_cells, 0u);

  MckpProblem tiny;
  tiny.groups = {{{.cost = 1.0, .weight = 0.0}, {.cost = 2.0, .weight = 0.0}}};
  tiny.capacity = 0.0;
  ASSERT_TRUE(solver.Solve(tiny).ok());
  EXPECT_LT(solver.stats().dp_cells, big_cells);
  EXPECT_EQ(solver.stats().choices_total, 2u);
  EXPECT_EQ(solver.stats().groups_total, 1u);

  // A failed solve reports zero work — not the previous solve's counters.
  MckpProblem infeasible;
  infeasible.groups = {{{.cost = 1.0, .weight = 10.0}}};
  infeasible.capacity = 5.0;
  EXPECT_FALSE(solver.Solve(infeasible).ok());
  EXPECT_EQ(solver.stats().dp_cells, 0u);
  EXPECT_EQ(solver.stats().choices_total, 0u);
  EXPECT_EQ(solver.stats().greedy_moves, 0u);
}

// --- DP kernel reference ---

struct ReferenceDpResult {
  bool feasible = false;  // false: no assignment fits at this resolution
  std::vector<int> choice;
  double total_cost = 0.0;
  double total_weight = 0.0;
};

// MckpSolver's EffectiveBuckets: 16 buckets per group, clamped to
// [dp_buckets, dp_buckets_max].
int ReferenceBuckets(std::size_t n_groups, const MckpSolver::Options& options) {
  return static_cast<int>(std::min<std::size_t>(
      std::max<std::size_t>(16 * n_groups, options.dp_buckets), options.dp_buckets_max));
}

// Test-local reference for SolveDp: the bucket-by-bucket recurrence, in which
// every (bucket, choice) cell re-quantizes its weight, every group is scanned
// unpruned in ascending index order, and each bucket keeps the first strictly
// smallest candidate. Bucket count, reconstruction, and the FreshTotals
// summation order are the solver's.
ReferenceDpResult ReferenceSolveDp(const MckpProblem& problem,
                                   const MckpSolver::Options& options) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t n_groups = problem.groups.size();
  const int buckets = ReferenceBuckets(n_groups, options);
  const double width =
      problem.capacity > 0.0 ? problem.capacity / static_cast<double>(buckets) : 1.0;
  auto quantize = [&](double weight) -> int {
    if (weight <= 0.0) {
      return 0;
    }
    if (problem.capacity <= 0.0) {
      return buckets + 1;
    }
    const double q = std::ceil(weight / width - 1e-12);
    return q > static_cast<double>(buckets) ? buckets + 1 : static_cast<int>(q);
  };
  std::vector<double> dp(buckets + 1, 0.0);
  std::vector<double> next(buckets + 1, inf);
  std::vector<std::uint8_t> pick(n_groups * (buckets + 1), 0xff);
  for (std::size_t g = 0; g < n_groups; ++g) {
    const auto& group = problem.groups[g];
    for (int b = 0; b <= buckets; ++b) {
      double best = inf;
      int best_k = -1;
      for (std::size_t k = 0; k < group.size(); ++k) {
        const int wq = quantize(group[k].weight);
        if (wq > b) {
          continue;
        }
        const double cand = dp[b - wq] + group[k].cost;
        if (cand < best) {
          best = cand;
          best_k = static_cast<int>(k);
        }
      }
      next[b] = best;
      pick[g * (buckets + 1) + b] = best_k < 0 ? 0xff : static_cast<std::uint8_t>(best_k);
    }
    dp.swap(next);
  }
  ReferenceDpResult result;
  if (!std::isfinite(dp[buckets])) {
    return result;
  }
  result.feasible = true;
  result.choice.assign(n_groups, 0);
  int b = buckets;
  for (std::size_t g = n_groups; g-- > 0;) {
    const std::uint8_t k = pick[g * (buckets + 1) + b];
    EXPECT_NE(k, 0xff);
    result.choice[g] = k;
    b -= quantize(problem.groups[g][k].weight);
  }
  for (std::size_t g = 0; g < n_groups; ++g) {
    result.total_cost += problem.groups[g][result.choice[g]].cost;
    result.total_weight += problem.groups[g][result.choice[g]].weight;
  }
  return result;
}

// The kDp solver, pruned and unpruned, must return the reference's plan
// element for element and its totals bit for bit; where the reference is
// infeasible at this resolution, the solver must have fallen back to greedy.
// Returns whether the reference was feasible.
bool ExpectDpMatchesReference(const MckpProblem& problem, const std::string& what,
                              MckpSolver::Options options = {}) {
  options.strategy = MckpSolver::Strategy::kDp;
  const ReferenceDpResult reference = ReferenceSolveDp(problem, options);
  for (const bool prune : {true, false}) {
    options.prune = prune;
    MckpSolver solver(options);
    auto solution = solver.Solve(problem);
    const std::string where = what + (prune ? " (pruned)" : " (unpruned)");
    if (!reference.feasible) {
      EXPECT_EQ(solver.stats().used, MckpSolver::Strategy::kGreedy) << where;
      continue;
    }
    EXPECT_EQ(solver.stats().used, MckpSolver::Strategy::kDp) << where;
    if (!solution.ok()) {
      ADD_FAILURE() << where << ": " << solution.status().ToString();
      continue;
    }
    EXPECT_EQ(solution->choice, reference.choice) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(solution->total_cost),
              std::bit_cast<std::uint64_t>(reference.total_cost))
        << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(solution->total_weight),
              std::bit_cast<std::uint64_t>(reference.total_weight))
        << where;
    EXPECT_TRUE(solution->optimal) << where;
    // The documented work count: (buckets + 1) cells per kept choice.
    const std::size_t kept = solver.stats().choices_total - solver.stats().pruned_dominated;
    const auto row = static_cast<std::size_t>(ReferenceBuckets(problem.groups.size(), options)) + 1;
    EXPECT_EQ(solver.stats().dp_cells, row * kept) << where;
  }
  return reference.feasible;
}

TEST(DpKernelTest, MatchesReferenceOnIntegerInstances) {
  // Integer costs and weights: exact candidate ties, so the first-index
  // tie-break decides picks. Values below 8 make ties the common case.
  for (const std::uint64_t range : {1000, 8}) {
    Rng rng(8100 + range);
    for (int round = 0; round < 24; ++round) {
      const MckpProblem problem = RandomProblem(rng, 8, 1 + (round % 6), range);
      ExpectDpMatchesReference(
          problem, "range " + std::to_string(range) + " round " + std::to_string(round));
    }
  }
}

TEST(DpKernelTest, MatchesReferenceWithWeightsOnBucketEdges) {
  // 2,048 buckets over capacity 2,048 (width exactly 1) and over 204.8 (width
  // 0.1, where j * 0.1 lands a rounding step either side of the edge), plus a
  // choice heavier than the whole budget (quantized to buckets + 1) and
  // single-choice groups.
  for (const double width : {1.0, 0.1}) {
    Rng rng(width == 1.0 ? 8201 : 8202);
    for (int round = 0; round < 8; ++round) {
      MckpProblem problem;
      problem.capacity = 2048.0 * width;
      for (int g = 0; g < 12; ++g) {
        std::vector<MckpChoice> group;
        const int choices = g % 5 == 0 ? 1 : 4;
        for (int k = 0; k < choices; ++k) {
          // Choice 0 stays light so the minimum-weight assignment always fits.
          const std::uint64_t units = rng.NextBelow(k == 0 ? 100 : 400);
          group.push_back({.cost = static_cast<double>(rng.NextBelow(50)),
                           .weight = static_cast<double>(units) * width});
        }
        if (g % 4 == 1) {
          group.push_back({.cost = 0.0, .weight = problem.capacity * 1.5});
        }
        problem.groups.push_back(std::move(group));
      }
      ExpectDpMatchesReference(
          problem, "width " + std::to_string(width) + " round " + std::to_string(round));
    }
  }
}

TEST(DpKernelTest, MatchesReferenceAtZeroCapacity) {
  // Capacity 0: every positive weight quantizes past the budget, so only the
  // zero-weight choices reach any bucket.
  Rng rng(8301);
  MckpProblem problem;
  problem.capacity = 0.0;
  for (int g = 0; g < 6; ++g) {
    std::vector<MckpChoice> group;
    for (int k = 0; k < 4; ++k) {
      group.push_back({.cost = static_cast<double>(rng.NextBelow(10)),
                       .weight = k == g % 4 ? 0.0 : static_cast<double>(1 + rng.NextBelow(5))});
    }
    group.push_back({.cost = static_cast<double>(rng.NextBelow(10)), .weight = 0.0});
    problem.groups.push_back(std::move(group));
  }
  EXPECT_TRUE(ExpectDpMatchesReference(problem, "capacity 0"));
}

TEST(DpKernelTest, MatchesReferenceAtDaemonShape) {
  // 26 regions x 4 tiers at 2,048 buckets: the window problem the analytical
  // policy solves for memcached-ycsb on the standard mix.
  Rng rng(8401);
  int feasible = 0;
  for (int round = 0; round < 12; ++round) {
    const MckpProblem problem = RealValuedProblem(rng, 26, 4, 0.05 + 0.08 * round);
    feasible += ExpectDpMatchesReference(problem, "round " + std::to_string(round)) ? 1 : 0;
  }
  EXPECT_GT(feasible, 0);
}

TEST(DpKernelTest, MatchesReferenceAtBucketCap) {
  // 1,025 groups ask for 16,400 buckets; the kernel runs at dp_buckets_max
  // (16,384).
  Rng rng(8501);
  const MckpProblem problem = RealValuedProblem(rng, 1025, 3, 0.3);
  EXPECT_TRUE(ExpectDpMatchesReference(problem, "bucket cap"));
}

TEST(DpKernelTest, InfeasibleAtResolutionFallsBackToGreedy) {
  // Four buckets of width 1: the light choices (1.5, 1.5, 0.5, 0.5) sum to
  // exactly the budget, but round up to 2 + 2 + 1 + 1 buckets.
  MckpProblem problem;
  for (const double light : {1.5, 1.5, 0.5, 0.5}) {
    problem.groups.push_back({{.cost = 5.0, .weight = light}, {.cost = 1.0, .weight = 9.0}});
  }
  problem.capacity = 4.0;
  MckpSolver::Options options;
  options.dp_buckets = 4;
  options.dp_buckets_max = 4;
  EXPECT_FALSE(ExpectDpMatchesReference(problem, "rounded past the budget", options));
}

// --- Warm-start incremental solving (DESIGN.md §4e) ---

// Re-rolls `count` seeded-random groups' choice lists, marking them in `hint`.
void ChurnGroups(Rng& rng, MckpProblem& problem, int count, std::vector<std::uint8_t>& hint) {
  hint.assign(problem.groups.size(), 0);
  for (int i = 0; i < count; ++i) {
    const std::size_t g = rng.NextBelow(problem.groups.size());
    for (auto& choice : problem.groups[g]) {
      choice.cost = static_cast<double>(rng.NextBelow(1000));
      choice.weight = static_cast<double>(rng.NextBelow(1000));
    }
    hint[g] = 1;
  }
}

class IncrementalSolveTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalSolveTest, IncrementalMatchesFullSolve) {
  // W windows of seeded bucket churn: the warm path must stay valid every
  // window and track the cold solve's total_cost within the rounding bound,
  // with and without the caller's changed-group hint. A 100%-churn window
  // forces the fallback, where warm and cold must agree bit-for-bit.
  Rng rng(4200 + GetParam());
  MckpProblem problem = RandomProblem(rng, 200, 5);
  MckpSolver::Options options;
  options.strategy = MckpSolver::Strategy::kGreedy;  // same machinery both sides
  MckpSolver warm_hinted(options);
  MckpSolver warm_digest(options);
  MckpIncrementalState hinted_state;
  MckpIncrementalState digest_state;
  std::vector<std::uint8_t> hint(problem.groups.size(), 1);

  constexpr int kWindows = 12;
  for (int window = 0; window < kWindows; ++window) {
    const bool full_churn = window == 7;
    if (window > 0) {
      // ~5% churn per regular window; window 7 churns everything.
      const int count = full_churn ? static_cast<int>(problem.groups.size()) : 10;
      ChurnGroups(rng, problem, count, hint);
      if (full_churn) {
        hint.assign(problem.groups.size(), 1);
      }
    }
    problem.capacity = CapacityAt(problem, 0.35);

    MckpSolver cold(options);
    auto cold_solution = cold.Solve(problem);
    ASSERT_TRUE(cold_solution.ok()) << "window " << window;
    auto hinted = warm_hinted.Solve(problem, &hinted_state, &hint);
    auto digest = warm_digest.Solve(problem, &digest_state);
    ASSERT_TRUE(hinted.ok()) << "window " << window;
    ASSERT_TRUE(digest.ok()) << "window " << window;
    EXPECT_TRUE(ValidateSolution(problem, *hinted).ok()) << "window " << window;
    EXPECT_TRUE(ValidateSolution(problem, *digest).ok()) << "window " << window;

    const double bound = cold_solution->total_cost * 0.05 + 1e-6;
    EXPECT_LE(hinted->total_cost, cold_solution->total_cost + bound) << "window " << window;
    EXPECT_LE(digest->total_cost, cold_solution->total_cost + bound) << "window " << window;

    if (window == 0) {
      EXPECT_FALSE(warm_hinted.stats().warm);
    } else if (full_churn) {
      // Churn above the threshold: the fallback is the cold path itself.
      EXPECT_FALSE(warm_hinted.stats().warm);
      EXPECT_TRUE(warm_hinted.stats().warm_fallback);
      EXPECT_TRUE(warm_digest.stats().warm_fallback);
      EXPECT_EQ(hinted->choice, cold_solution->choice);
      EXPECT_EQ(digest->choice, cold_solution->choice);
    } else {
      EXPECT_TRUE(warm_hinted.stats().warm) << "window " << window;
      EXPECT_TRUE(warm_digest.stats().warm) << "window " << window;
      EXPECT_LE(warm_hinted.stats().groups_changed, 10u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSolveTest, ::testing::Range(0, 3));

TEST(MckpSolverTest, WarmLyingHintFallsBackToCold) {
  // An all-clear hint that contradicts the sampled digest cross-check
  // (Options::warm_check_stride) must be discarded: the solver runs the full
  // solve and reports the fallback.
  Rng rng(99);
  MckpProblem problem = RandomProblem(rng, 128, 4);
  MckpSolver::Options options;
  options.strategy = MckpSolver::Strategy::kGreedy;
  MckpSolver solver(options);
  MckpIncrementalState state;
  ASSERT_TRUE(solver.Solve(problem, &state).ok());

  // Mutate a group the stride-64 cross-check samples (g = 63), then claim
  // nothing changed.
  for (auto& choice : problem.groups[63]) {
    choice.cost += 100.0;
  }
  problem.capacity = CapacityAt(problem, 0.35);
  const std::vector<std::uint8_t> all_clear(problem.groups.size(), 0);
  auto warm = solver.Solve(problem, &state, &all_clear);
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(solver.stats().warm);
  EXPECT_TRUE(solver.stats().warm_fallback);
  MckpSolver cold(options);
  auto cold_solution = cold.Solve(problem);
  ASSERT_TRUE(cold_solution.ok());
  EXPECT_EQ(warm->choice, cold_solution->choice);
}

TEST(MckpSolverTest, WarmZeroChurnReusesIncumbent) {
  Rng rng(123);
  MckpProblem problem = RandomProblem(rng, 64, 4);
  MckpSolver::Options options;
  options.strategy = MckpSolver::Strategy::kGreedy;
  MckpSolver solver(options);
  MckpIncrementalState state;
  auto first = solver.Solve(problem, &state);
  ASSERT_TRUE(first.ok());
  auto second = solver.Solve(problem, &state);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(solver.stats().warm);
  EXPECT_EQ(solver.stats().groups_changed, 0u);
  EXPECT_EQ(second->choice, first->choice);
}

// --- Sharded hierarchical solving (DESIGN.md §4e) ---

TEST(MckpSolverTest, ShardedGreedyDeterministicAcrossPools) {
  // The shard count — never the pool size — determines the result: serial,
  // 2-thread, and 4-thread pools must produce byte-identical choices, and
  // the sharded plan must stay close to the unsharded one.
  Rng rng(31);
  const MckpProblem problem = RandomProblem(rng, 500, 5);
  MckpSolver::Options options;
  options.strategy = MckpSolver::Strategy::kGreedy;
  MckpSolver unsharded(options);
  auto base = unsharded.Solve(problem);
  ASSERT_TRUE(base.ok());

  std::vector<MckpSolution> sharded;
  for (const int threads : {0, 1, 2, 4}) {
    MckpSolver::Options sharded_options = options;
    sharded_options.shards = 8;
    ThreadPool pool(std::max(threads, 1));
    sharded_options.pool = threads == 0 ? nullptr : &pool;
    MckpSolver solver(sharded_options);
    auto solution = solver.Solve(problem);
    ASSERT_TRUE(solution.ok()) << "pool threads " << threads;
    EXPECT_TRUE(ValidateSolution(problem, *solution).ok());
    EXPECT_EQ(solver.stats().shards_used, 8);
    sharded.push_back(*std::move(solution));
  }
  for (std::size_t i = 1; i < sharded.size(); ++i) {
    EXPECT_EQ(sharded[i].choice, sharded[0].choice) << "pool variant " << i;
  }
  EXPECT_LE(sharded[0].total_cost, base->total_cost * 1.05 + 1e-6);
}

TEST(MckpSolverTest, WarmComposesWithShards) {
  // Sharded cold solve on the first window, warm delta-repair afterwards;
  // the combination must stay valid and deterministic across pool sizes.
  Rng rng(77);
  MckpProblem problem = RandomProblem(rng, 300, 5);
  std::vector<int> last_choice;
  for (const int threads : {1, 4}) {
    Rng churn_rng(500);
    MckpProblem run_problem = problem;
    ThreadPool pool(threads);
    MckpSolver::Options options;
    options.strategy = MckpSolver::Strategy::kGreedy;
    options.shards = 4;
    options.pool = &pool;
    MckpSolver solver(options);
    MckpIncrementalState state;
    std::vector<std::uint8_t> hint;
    MckpSolution final_solution;
    for (int window = 0; window < 5; ++window) {
      if (window > 0) {
        ChurnGroups(churn_rng, run_problem, 12, hint);
      }
      run_problem.capacity = CapacityAt(run_problem, 0.3);
      auto solution =
          solver.Solve(run_problem, &state, window > 0 ? &hint : nullptr);
      ASSERT_TRUE(solution.ok()) << "threads " << threads << " window " << window;
      EXPECT_TRUE(ValidateSolution(run_problem, *solution).ok());
      EXPECT_EQ(solver.stats().warm, window > 0) << "window " << window;
      final_solution = *std::move(solution);
    }
    if (last_choice.empty()) {
      last_choice = final_solution.choice;
    } else {
      EXPECT_EQ(final_solution.choice, last_choice);
    }
  }
}

TEST(ValidateSolutionTest, CatchesViolations) {
  MckpProblem problem;
  problem.groups = {{{.cost = 1.0, .weight = 10.0}}};
  problem.capacity = 5.0;
  MckpSolution solution;
  solution.choice = {0};
  solution.total_cost = 1.0;
  solution.total_weight = 10.0;
  EXPECT_FALSE(ValidateSolution(problem, solution).ok());
  solution.choice = {3};
  EXPECT_FALSE(ValidateSolution(problem, solution).ok());
}

}  // namespace
}  // namespace tierscape
