#include "src/core/analytical.h"

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"

namespace tierscape {
namespace {

// Steepest perf-per-TCO-dollar slope still available to `group` after
// choosing `chosen`: max over alternatives that cost more TCO but less perf.
// This is the group's contribution to the LP shadow price of Eq. 2's budget
// constraint — the gradient a global arbiter compares across tenants.
double GroupMarginalSlope(const std::vector<MckpChoice>& group, int chosen) {
  const MckpChoice& current = group[chosen];
  double best = 0.0;
  for (const MckpChoice& alt : group) {
    const double extra_weight = alt.weight - current.weight;
    const double saved_cost = current.cost - alt.cost;
    if (extra_weight > 1e-12 && saved_cost > 0.0) {
      best = std::max(best, saved_cost / extra_weight);
    }
  }
  return best;
}

}  // namespace

AnalyticalPolicy::AnalyticalPolicy(double alpha, MckpSolver::Options solver_options)
    : alpha_(std::clamp(alpha, 0.0, 1.0)), solver_(solver_options) {
  name_ = "AM(a=" + std::to_string(alpha_).substr(0, 4) + ")";
}

void AnalyticalPolicy::set_alpha(double alpha) {
  alpha_ = std::clamp(alpha, 0.0, 1.0);
  name_ = "AM(a=" + std::to_string(alpha_).substr(0, 4) + ")";
}

StatusOr<PlacementDecision> AnalyticalPolicy::Decide(const PlacementInput& input,
                                                     const CostModel& model,
                                                     const DecisionContext& ctx) {
  (void)ctx;  // pins are enforced by the filter; see the header note
  // Times every return path from entry — the alpha endpoints and a failed
  // solve included — so last_solve_ms never carries an earlier call's value.
  struct SolveTimer {
    Stats& stats;
    std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
    ~SolveTimer() {
      const auto elapsed = std::chrono::steady_clock::now() - start;
      stats.last_solve_ms =
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count() / 1e6;
      stats.total_solve_ms += stats.last_solve_ms;
    }
  } timer{stats_};
  const int n_tiers = model.tiers().count();

  stats_.last_solver_used = false;
  stats_.last_warm = false;
  stats_.last_warm_fallback = false;
  stats_.last_groups_changed = 0;
  stats_.last_shards = 1;
  stats_.last_marginal_gradient = 0.0;

  // Knob endpoints have exact answers (Fig. 5): alpha = 1 keeps everything in
  // DRAM (the budget constraint is slack, so the marginal gradient is zero);
  // alpha = 0 takes every region's cheapest tier.
  if (alpha_ >= 1.0) {
    ++stats_.solves;
    return PlacementDecision(input.regions.size(), 0);
  }
  if (alpha_ <= 0.0) {
    PlacementDecision decision;
    decision.reserve(input.regions.size());
    double gradient = 0.0;
    std::vector<MckpChoice> choices(n_tiers);
    for (const RegionProfile& region : input.regions) {
      int best = 0;
      for (int tier = 0; tier < n_tiers; ++tier) {
        choices[tier].cost = model.RegionPerfCost(region.region, region.hotness, tier);
        choices[tier].weight = model.RegionTcoCost(region.region, tier);
        if (tier > 0 && choices[tier].weight < choices[best].weight - 1e-15) {
          best = tier;
        }
      }
      decision.push_back(best);
      gradient = std::max(gradient, GroupMarginalSlope(choices, best));
    }
    ++stats_.solves;
    stats_.last_marginal_gradient = gradient;
    return decision;
  }

  MckpProblem problem;
  problem.groups.reserve(input.regions.size());
  double tco_min = 0.0;
  double tco_max = 0.0;
  for (const RegionProfile& region : input.regions) {
    std::vector<MckpChoice> choices(n_tiers);
    for (int tier = 0; tier < n_tiers; ++tier) {
      choices[tier].cost = model.RegionPerfCost(region.region, region.hotness, tier);
      choices[tier].weight = model.RegionTcoCost(region.region, tier);
    }
    double region_min = choices[0].weight;
    for (int tier = 1; tier < n_tiers; ++tier) {
      region_min = std::min(region_min, choices[tier].weight);
    }
    tco_min += region_min;
    tco_max += choices[0].weight;  // all data in DRAM (TCO_max, §6.4)
    problem.groups.push_back(std::move(choices));
  }
  // Eq. 1-2: budget = TCO_min + alpha * MTS.
  const double mts = tco_max - tco_min;
  problem.capacity = tco_min + alpha_ * mts;

  auto solution = incremental_ ? solver_.Solve(problem, &state_, input.changed_hint)
                               : solver_.Solve(problem);
  stats_.last_solver_used = true;
  stats_.last_warm = solver_.stats().warm;
  stats_.last_warm_fallback = solver_.stats().warm_fallback;
  stats_.last_groups_changed = solver_.stats().groups_changed;
  stats_.last_shards = solver_.stats().shards_used;
  if (!solution.ok()) {
    return solution.status();
  }
  TS_CHECK(ValidateSolution(problem, *solution).ok());

  double gradient = 0.0;
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    gradient = std::max(gradient, GroupMarginalSlope(problem.groups[g], solution->choice[g]));
  }
  stats_.last_marginal_gradient = gradient;

  ++stats_.solves;
  stats_.last_groups = problem.groups.size();
  stats_.last_budget = problem.capacity;
  stats_.last_tco_min = tco_min;
  stats_.last_tco_max = tco_max;
  return std::move(solution->choice);
}

}  // namespace tierscape
