#include "src/solver/mckp.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/fault/fault_injector.h"

namespace tierscape {

// Pruned per-group choice-index sets. Each rule is applied only where it is
// provably cost-neutral:
//
//  * dominant[g] — choices surviving dominance pruning: k is dropped iff some
//    sibling i has weight_i <= weight_k and either cost_i < cost_k, or
//    cost_i == cost_k with i < k ("keep-first"). Every exhaustive
//    first-index-tie-break scan (each DP column min, the greedy seed and
//    improvement passes) picks the same choice over dominant[g] as over the
//    full group: the dropped k is feasible only when i is, never strictly
//    better, and loses every tie to i.
//  * hull[g] — choices on the group's lower convex hull in (weight, cost),
//    colinear points and exact duplicates included. The greedy efficiency
//    walk only ever moves to hull choices: from a hull point, a choice
//    strictly above the hull has strictly worse efficiency than the adjacent
//    hull vertex, so restricting next_move to hull[g] reproduces the
//    unpruned walk move-for-move (up to floating-point-degenerate ties).
//    hull[g] is *not* a subset of dominant[g]: an equal-cost heavier choice
//    on a horizontal hull segment is dominated yet a legal walk target.
//
// Both lists are in ascending index order so first-index tie-breaks survive.
struct MckpPruning {
  std::vector<std::vector<int>> dominant;
  std::vector<std::vector<int>> hull;
};

// Warm-start carry-over (DESIGN.md §4e): everything the delta-repair needs to
// re-solve only the changed groups. `digest` detects change; `pruning` is
// reused verbatim for unchanged groups; `choice` plus the per-group chosen
// contributions let the repair subtract a changed group's old footprint in
// O(1) without keeping the previous window's rows.
struct MckpIncrementalState::Impl {
  bool valid = false;
  bool prune = true;  // pruning mode the cached lists were built with
  std::vector<std::uint64_t> digest;  // per-group row digest
  MckpPruning pruning;
  std::vector<int> choice;  // the incumbent plan
  std::vector<double> chosen_cost;
  std::vector<double> chosen_weight;
  // min_gain_dw[g]: the smallest weight increase any cost-gaining exchange
  // from the incumbent choice could cost (+inf when none exists). Lets the
  // warm improvement pass reject a group on one sequential array read instead
  // of a row scan — at 10⁶ groups the full-scan round costs ~75 ms to commit
  // a handful of moves. Exact filter: every gain candidate is strictly
  // heavier than the incumbent (a no-heavier cheaper sibling would dominate
  // it), so "even the lightest gain does not fit" rules the group out.
  std::vector<double> min_gain_dw;
  double total_cost = 0.0;
  double total_weight = 0.0;
  double capacity = 0.0;
};

MckpIncrementalState::MckpIncrementalState() : impl_(std::make_unique<Impl>()) {}
MckpIncrementalState::~MckpIncrementalState() = default;
bool MckpIncrementalState::valid() const { return impl_->valid; }
void MckpIncrementalState::Reset() { impl_->valid = false; }

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Status CheckProblem(const MckpProblem& problem) {
  if (problem.groups.empty()) {
    return InvalidArgument("mckp: no groups");
  }
  if (!(problem.capacity >= 0.0)) {
    return InvalidArgument("mckp: negative capacity");
  }
  double min_weight_total = 0.0;
  for (const auto& group : problem.groups) {
    if (group.empty()) {
      return InvalidArgument("mckp: empty group");
    }
    double min_weight = kInf;
    for (const auto& choice : group) {
      if (choice.weight < 0.0 || !std::isfinite(choice.cost)) {
        return InvalidArgument("mckp: bad choice");
      }
      min_weight = std::min(min_weight, choice.weight);
    }
    min_weight_total += min_weight;
  }
  if (min_weight_total > problem.capacity * (1.0 + 1e-9) + 1e-12) {
    return ResourceExhausted("mckp: minimum-weight assignment exceeds capacity");
  }
  return OkStatus();
}

// Order-independent work counters a shard worker fills locally; folded into
// SolveStats on the submitting thread in submission order (thread_pool.h).
struct PruneCounts {
  std::size_t choices_total = 0;
  std::size_t dominated = 0;
  std::size_t off_hull = 0;
};

// Reusable PruneGroup workspace: a caller pruning many groups (the cold
// build, a shard, the warm repair loop) allocates one and the per-call
// vectors keep their capacity instead of round-tripping the allocator — at
// 10⁶ groups the mallocs, not the sorts, dominate the build.
struct PrunePoint {
  double weight;
  double cost;
};
struct PruneScratch {
  std::vector<int> order;
  std::vector<PrunePoint> chain;
};

// O(m log m). With `enabled` false both lists are the identity, so the solve
// paths stay branch-free over a single representation. Pure function of the
// group — safe for pool workers writing disjoint per-group slots (the
// scratch must then be worker-local).
void PruneGroup(const std::vector<MckpChoice>& group, bool enabled, std::vector<int>& dominant,
                std::vector<int>& hull, PruneCounts& counts, PruneScratch& scratch) {
  counts.choices_total += group.size();
  dominant.clear();
  hull.clear();
  if (!enabled || group.size() <= 2) {
    dominant.resize(group.size());
    std::iota(dominant.begin(), dominant.end(), 0);
    hull = dominant;
    return;
  }
  std::vector<int>& order = scratch.order;
  order.resize(group.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (group[a].weight != group[b].weight) {
      return group[a].weight < group[b].weight;
    }
    if (group[a].cost != group[b].cost) {
      return group[a].cost < group[b].cost;
    }
    return a < b;
  });

  // Dominance sweep in ascending weight: everything already seen is
  // lighter-or-equal, so k survives iff nothing seen is strictly cheaper or
  // equally cheap with a smaller index.
  double best_cost = kInf;
  int best_index = -1;
  for (const int k : order) {
    const double cost = group[k].cost;
    if (cost < best_cost || (cost == best_cost && k < best_index)) {
      best_cost = cost;
      best_index = k;
    }
    // After the update best_cost <= cost; k survives iff it is itself the
    // (cost, index)-lexicographic minimum of everything seen so far.
    if (cost == best_cost && best_index >= k) {
      dominant.push_back(k);
    }
  }
  std::sort(dominant.begin(), dominant.end());

  // Lower convex hull over the distinct-weight minima (the first entry of
  // each weight run in `order` is that weight's cheapest choice). Pops use
  // a strict test so colinear points stay on the hull — they tie the
  // adjacent vertex's efficiency and the unpruned walk may pick them.
  std::vector<PrunePoint>& chain = scratch.chain;
  chain.clear();
  for (const int k : order) {
    const PrunePoint p{group[k].weight, group[k].cost};
    if (!chain.empty() && chain.back().weight == p.weight) {
      continue;  // heavier-cost duplicate weight: strictly above the hull
    }
    while (chain.size() >= 2) {
      const PrunePoint& a = chain[chain.size() - 2];
      const PrunePoint& b = chain.back();
      // b is strictly above segment a->p iff slope(a,b) > slope(b,p).
      if ((b.cost - a.cost) * (p.weight - b.weight) > (p.cost - b.cost) * (b.weight - a.weight)) {
        chain.pop_back();
      } else {
        break;
      }
    }
    chain.push_back(p);
  }
  std::size_t at = 0;
  for (const int k : order) {
    while (at < chain.size() && chain[at].weight < group[k].weight) {
      ++at;
    }
    if (at < chain.size() && chain[at].weight == group[k].weight &&
        chain[at].cost == group[k].cost) {
      hull.push_back(k);
    }
  }
  std::sort(hull.begin(), hull.end());

  counts.dominated += group.size() - dominant.size();
  counts.off_hull += group.size() - hull.size();
}

void FoldCounts(const PruneCounts& counts, MckpSolver::SolveStats& stats) {
  stats.choices_total += counts.choices_total;
  stats.pruned_dominated += counts.dominated;
  stats.pruned_off_hull += counts.off_hull;
}

MckpPruning BuildPruning(const MckpProblem& problem, bool enabled,
                         MckpSolver::SolveStats& stats) {
  MckpPruning pruning;
  pruning.dominant.resize(problem.groups.size());
  pruning.hull.resize(problem.groups.size());
  PruneCounts counts;
  PruneScratch scratch;
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    PruneGroup(problem.groups[g], enabled, pruning.dominant[g], pruning.hull[g], counts, scratch);
  }
  FoldCounts(counts, stats);
  return pruning;
}

// 64-bit digest of a group's choice list (bitwise over the doubles): equal
// rows hash equal, and a changed hotness bucket or pruned choice list flips
// it with collision probability ~2^-64 — the change detector of the warm
// path (DESIGN.md §4e).
std::uint64_t HashGroup(const std::vector<MckpChoice>& group) {
  std::uint64_t h = SplitMix64(group.size());
  for (const MckpChoice& choice : group) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &choice.cost, sizeof(bits));
    h = SplitMix64(h ^ bits);
    std::memcpy(&bits, &choice.weight, sizeof(bits));
    h = SplitMix64(h ^ bits);
  }
  return h;
}

// Starts every group in [lo, hi) at its minimum-cost choice (never
// dominance-pruned: a dominator would have to be at least as cheap with a
// smaller index) and accumulates the range's totals.
void SeedMinCost(const MckpProblem& problem, const MckpPruning& pruning, std::size_t lo,
                 std::size_t hi, std::vector<int>& choice, double& total_weight,
                 double& total_cost) {
  for (std::size_t g = lo; g < hi; ++g) {
    const auto& group = problem.groups[g];
    const std::vector<int>& keep = pruning.dominant[g];
    int best = keep.front();
    for (const int k : keep) {
      if (group[k].cost < group[best].cost) {
        best = k;
      }
    }
    choice[g] = best;
    total_weight += group[best].weight;
    total_cost += group[best].cost;
  }
}

// The smallest weight increase that buys any cost gain from `cur` (+inf when
// no dominant sibling is cheaper). See Impl::min_gain_dw.
double MinGainDw(const std::vector<MckpChoice>& group, const std::vector<int>& dominant,
                 int cur) {
  const MckpChoice& chosen = group[cur];
  double min_dw = kInf;
  for (const int k : dominant) {
    if (group[k].cost < chosen.cost) {
      min_dw = std::min(min_dw, group[k].weight - chosen.weight);
    }
  }
  return min_dw;
}

// A weight-reduction move down the group's hull.
struct Move {
  double efficiency;  // delta cost / delta weight
  std::size_t group;
  int to;
  bool operator>(const Move& other) const { return efficiency > other.efficiency; }
};

// Weight-reduction walk, cheapest marginal cost per unit of weight first
// (the convex-hull walk of the LP relaxation). Groups eligible to move are
// [lo, hi), or exactly `only` when non-null (the warm path's changed set —
// budget slack from unchanged groups is carried over because `total_weight`
// includes their standing contributions). Stops once total_weight fits
// `capacity` or no eligible move remains; `choice` and the running totals
// are updated in place and `moves` counts committed moves. `touched`, when
// non-null, records every group a commit moved (possibly repeated) so the
// warm path can refresh its carry-over for exactly those.
void WalkDown(const MckpProblem& problem, const MckpPruning& pruning, std::size_t lo,
              std::size_t hi, const std::vector<std::size_t>* only, double capacity,
              std::vector<int>& choice, double& total_weight, double& total_cost,
              std::size_t& moves, std::vector<std::size_t>* touched) {
  auto next_move = [&](std::size_t g) -> Move {
    const auto& group = problem.groups[g];
    const auto& cur = group[choice[g]];
    Move best{kInf, g, -1};
    // The walk starts on the hull (min-cost choices are hull points) and
    // stays there, so off-hull choices can never be the efficiency minimum —
    // skipping them reproduces the full scan.
    for (const int k : pruning.hull[g]) {
      const double dw = cur.weight - group[k].weight;
      if (dw <= 1e-12) {
        continue;
      }
      const double dc = group[k].cost - cur.cost;
      const double eff = dc / dw;
      if (eff < best.efficiency) {
        best = Move{eff, g, k};
      }
    }
    return best;
  };

  std::priority_queue<Move, std::vector<Move>, std::greater<Move>> heap;
  auto push_group = [&](std::size_t g) {
    const Move m = next_move(g);
    if (m.to >= 0) {
      heap.push(m);
    }
  };
  if (only != nullptr) {
    for (const std::size_t g : *only) {
      push_group(g);
    }
  } else {
    for (std::size_t g = lo; g < hi; ++g) {
      push_group(g);
    }
  }
  while (total_weight > capacity && !heap.empty()) {
    const Move m = heap.top();
    heap.pop();
    // The stored move may be stale if the group has moved since; recompute.
    const Move fresh = next_move(m.group);
    if (fresh.to < 0) {
      continue;
    }
    if (fresh.to != m.to || std::abs(fresh.efficiency - m.efficiency) > 1e-12) {
      heap.push(fresh);
      continue;
    }
    const auto& group = problem.groups[m.group];
    total_weight -= group[choice[m.group]].weight - group[m.to].weight;
    total_cost += group[m.to].cost - group[choice[m.group]].cost;
    choice[m.group] = m.to;
    ++moves;
    if (touched != nullptr) {
      touched->push_back(m.group);
    }
    const Move again = next_move(m.group);
    if (again.to >= 0) {
      heap.push(again);
    }
  }
}

// Local improvement: spend leftover budget on cost reductions, best gain
// first per group, until a full pass makes no change or `max_rounds` passes
// ran. Returns the number of committed improvement (exchange) moves. The
// warm path bounds this (Options::warm_exchange_rounds) — its incumbent
// already sits near the efficiency frontier, so a short repair reconverges.
std::size_t ImprovementPass(const MckpProblem& problem, const MckpPruning& pruning,
                            std::vector<int>& choice, double& total_weight, double& total_cost,
                            double capacity, int max_rounds, std::vector<double>* min_gain_dw,
                            std::vector<std::size_t>* touched) {
  std::size_t moves = 0;
  // Rounds after the first revisit only the groups that moved last round (a
  // dirty worklist). This is exactly the full re-scan: every committed move
  // strictly *consumes* budget slack (a cheaper no-heavier sibling would
  // dominate the current choice, so any gain candidate is strictly heavier),
  // so a group left untouched at some visit — no feasible gain under the
  // then-larger slack — can never acquire one until its own choice changes.
  //
  // `min_gain_dw` (the warm path's carry, see Impl::min_gain_dw) sharpens the
  // first round the same way: a group whose lightest gain candidate does not
  // fit the current slack is rejected on one array read, no row scan. The
  // caller guarantees it is current for every group; commits keep it so.
  // `touched` records committed groups for the caller's carry refresh.
  std::vector<std::size_t> dirty;
  std::vector<std::size_t> next_dirty;
  for (int round = 0; round < max_rounds; ++round) {
    next_dirty.clear();
    auto visit = [&](std::size_t g) {
      if (min_gain_dw != nullptr &&
          total_weight + (*min_gain_dw)[g] > capacity * (1.0 + 1e-12)) {
        return;
      }
      const auto& group = problem.groups[g];
      const auto& cur = group[choice[g]];
      int best = -1;
      double best_gain = 0.0;
      // Dominated candidates are safe to skip: the dominator fits whenever
      // they do and gains at least as much (hull restriction would NOT be —
      // a budget cutting mid-segment can make an interior point the best
      // feasible gain).
      for (const int k : pruning.dominant[g]) {
        const double dc = cur.cost - group[k].cost;
        const double dw = group[k].weight - cur.weight;
        if (dc > best_gain && total_weight + dw <= capacity * (1.0 + 1e-12)) {
          best = k;
          best_gain = dc;
        }
      }
      if (best >= 0) {
        total_weight += group[best].weight - cur.weight;
        total_cost -= best_gain;
        choice[g] = best;
        if (min_gain_dw != nullptr) {
          (*min_gain_dw)[g] = MinGainDw(group, pruning.dominant[g], best);
        }
        if (touched != nullptr) {
          touched->push_back(g);
        }
        next_dirty.push_back(g);  // ascending: g visits are in ascending order
        ++moves;
      }
    };
    if (round == 0) {
      for (std::size_t g = 0; g < problem.groups.size(); ++g) {
        visit(g);
      }
    } else {
      for (const std::size_t g : dirty) {
        visit(g);
      }
    }
    if (next_dirty.empty()) {
      break;
    }
    dirty.swap(next_dirty);
  }
  return moves;
}

// Recomputes the solution's totals as fresh group-order sums — kills the
// floating-point drift incremental updates would otherwise accumulate across
// warm windows, and makes ValidateSolution's reported-cost check exact.
void FreshTotals(const MckpProblem& problem, MckpSolution& solution) {
  solution.total_cost = 0.0;
  solution.total_weight = 0.0;
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    const auto& choice = problem.groups[g][solution.choice[g]];
    solution.total_cost += choice.cost;
    solution.total_weight += choice.weight;
  }
}

}  // namespace

Status ValidateSolution(const MckpProblem& problem, const MckpSolution& solution) {
  if (solution.choice.size() != problem.groups.size()) {
    return InvalidArgument("mckp: solution size mismatch");
  }
  double weight = 0.0;
  double cost = 0.0;
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    const int k = solution.choice[g];
    if (k < 0 || k >= static_cast<int>(problem.groups[g].size())) {
      return InvalidArgument("mckp: bad choice index");
    }
    weight += problem.groups[g][k].weight;
    cost += problem.groups[g][k].cost;
  }
  if (weight > problem.capacity * (1.0 + 1e-9) + 1e-9) {
    return FailedPrecondition("mckp: solution exceeds capacity");
  }
  if (std::abs(cost - solution.total_cost) > 1e-6 * (1.0 + std::abs(cost))) {
    return FailedPrecondition("mckp: reported cost mismatch");
  }
  return OkStatus();
}

StatusOr<MckpSolution> MckpSolver::Solve(const MckpProblem& problem) {
  // Per-solve stats: reset before anything can fail, so back-to-back windows
  // — including ones whose solve is rejected or times out — never report the
  // previous solve's dp_cells/greedy_moves (MckpSolverTest.StatsResetPerSolve).
  stats_ = SolveStats{};
  // Injected faults fire before any solving work, modeling the solve being
  // abandoned at the window boundary (§8.4) rather than mid-DP.
  if (ShouldInjectFault(fault_, FaultSite::kSolverTimeout)) {
    return DeadlineExceeded("mckp: solve exceeded its window budget (injected)");
  }
  if (ShouldInjectFault(fault_, FaultSite::kSolverInfeasible)) {
    return ResourceExhausted("mckp: no feasible placement (injected)");
  }
  TS_RETURN_IF_ERROR(CheckProblem(problem));
  stats_.groups_total = problem.groups.size();
  return SolveCold(problem, nullptr);
}

StatusOr<MckpSolution> MckpSolver::Solve(const MckpProblem& problem, MckpIncrementalState* state,
                                         const std::vector<std::uint8_t>* changed_hint) {
  stats_ = SolveStats{};
  if (ShouldInjectFault(fault_, FaultSite::kSolverTimeout)) {
    return DeadlineExceeded("mckp: solve exceeded its window budget (injected)");
  }
  if (ShouldInjectFault(fault_, FaultSite::kSolverInfeasible)) {
    return ResourceExhausted("mckp: no feasible placement (injected)");
  }
  stats_.groups_total = problem.groups.size();
  if (state == nullptr) {
    TS_RETURN_IF_ERROR(CheckProblem(problem));
    return SolveCold(problem, nullptr);
  }
  MckpIncrementalState::Impl& carry = *state->impl_;
  const bool compatible = carry.valid && carry.choice.size() == problem.groups.size() &&
                          carry.prune == options_.prune;
  if (compatible) {
    // The full CheckProblem sweep is deferred to the cold path: unchanged
    // groups carry rows a previous checked solve validated, and SolveWarm
    // re-validates the changed groups' rows itself. Any problem it cannot
    // vouch for (bad rows, infeasible budget) aborts into the fallback
    // below, where CheckProblem reports the canonical error. At 10⁶ groups
    // the sweep costs more than a quarter of the whole warm window (§6.4).
    // Capacity must be vetted here: NaN compares false against every running
    // total, so the warm gates alone would wave it through.
    if (!(problem.capacity >= 0.0)) {
      return InvalidArgument("mckp: negative capacity");
    }
    auto warm = SolveWarm(problem, *state, changed_hint);
    if (warm.ok()) {
      return warm;
    }
    // Delta-repair declined (churn, lying hint, or failed validation): run
    // the full solve. Re-reset the work counters the aborted attempt
    // accumulated so the reported stats describe the solve that produced the
    // returned plan, keeping only the churn measurement.
    const std::size_t groups_changed = stats_.groups_changed;
    stats_ = SolveStats{};
    stats_.groups_total = problem.groups.size();
    stats_.groups_changed = groups_changed;
    stats_.warm_fallback = true;
  }
  TS_RETURN_IF_ERROR(CheckProblem(problem));
  MckpPruning pruning;
  auto solution = SolveCold(problem, &pruning);
  if (solution.ok()) {
    RefreshState(problem, *solution, &pruning, *state);
  } else {
    state->Reset();
  }
  return solution;
}

StatusOr<MckpSolution> MckpSolver::SolveCold(const MckpProblem& problem, MckpPruning* keep) {
  std::size_t pairs = 0;
  for (const auto& group : problem.groups) {
    pairs += group.size();
  }
  Strategy strategy = options_.strategy;
  if (strategy == Strategy::kAuto) {
    // Beyond dp_buckets_max the DP's rounding loss grows with group count
    // while its cost grows with buckets; the greedy is both faster and (with
    // its local-improvement pass) more accurate there.
    strategy = pairs * static_cast<std::size_t>(EffectiveBuckets(problem.groups.size())) <=
                       options_.auto_greedy_threshold * 8
                   ? Strategy::kDp
                   : Strategy::kGreedy;
  }
  stats_.used = strategy;
  if (strategy == Strategy::kGreedy && options_.shards > 1) {
    return SolveGreedySharded(problem, keep);
  }
  MckpPruning pruning = BuildPruning(problem, options_.prune, stats_);
  StatusOr<MckpSolution> solution = OkStatus();
  if (strategy == Strategy::kDp) {
    solution = SolveDp(problem, pruning);
    if (!solution.ok() && solution.status().code() == StatusCode::kResourceExhausted) {
      // The DP rounds weights up; an exact-fit budget can become infeasible
      // at the chosen resolution. The greedy path uses exact arithmetic.
      stats_.used = Strategy::kGreedy;
      solution = SolveGreedy(problem, pruning);
    }
  } else {
    solution = SolveGreedy(problem, pruning);
  }
  if (keep != nullptr) {
    *keep = std::move(pruning);
  }
  return solution;
}

int MckpSolver::EffectiveBuckets(std::size_t n_groups) const {
  const std::size_t scaled = 16 * n_groups;
  const auto wanted = std::max<std::size_t>(scaled, options_.dp_buckets);
  return static_cast<int>(std::min<std::size_t>(wanted, options_.dp_buckets_max));
}

StatusOr<MckpSolution> MckpSolver::SolveDp(const MckpProblem& problem,
                                           const MckpPruning& pruning) {
  const std::size_t n_groups = problem.groups.size();
  const int buckets = EffectiveBuckets(n_groups);
  // Bucket width; capacity 0 degenerates to "all weights must be 0".
  const double width =
      problem.capacity > 0.0 ? problem.capacity / static_cast<double>(buckets) : 1.0;
  auto quantize = [&](double weight) -> int {
    if (weight <= 0.0) {
      return 0;
    }
    if (problem.capacity <= 0.0) {
      return buckets + 1;  // any positive weight is over a zero budget
    }
    const double q = std::ceil(weight / width - 1e-12);
    return q > static_cast<double>(buckets) ? buckets + 1 : static_cast<int>(q);
  };

  const auto row = static_cast<std::size_t>(buckets) + 1;
  std::size_t stride = 0;
  for (const auto& group : problem.groups) {
    stride = std::max(stride, group.size());
  }

  // dp[b]: min cost over processed groups with quantized weight <= b.
  std::vector<double>& dp = dp_;
  std::vector<double>& next = dp_next_;
  dp.assign(row, 0.0);
  next.resize(row);
  // pick[g * row + b]: chosen index for group g at budget b.
  std::vector<std::uint8_t>& pick = dp_pick_;
  pick.assign(n_groups * row, 0xff);
  // quantized[g * stride + k]: quantized weight of kept choice k of group g.
  std::vector<int>& quantized = dp_quantized_;
  quantized.resize(n_groups * stride);

  for (std::size_t g = 0; g < n_groups; ++g) {
    const auto& group = problem.groups[g];
    const std::vector<int>& keep = pruning.dominant[g];
    TS_CHECK_LE(group.size(), std::size_t{0xff});
    std::fill(next.begin(), next.end(), kInf);
    // Raw row pointers: a store through pick_g (a byte pointer) may alias any
    // object, so vector members read in the loop would be reloaded per cell.
    const double* const prev = dp.data();
    double* const best = next.data();
    std::uint8_t* const pick_g = pick.data() + g * row;
    // Choice-major: each kept choice sweeps the contiguous span of buckets it
    // fits in (a choice quantized past the budget reaches none). Every bucket
    // still sees its candidates in ascending index order against a running
    // minimum that starts at (+inf, 0xff), and only a strictly smaller
    // candidate replaces it, so the picks and costs are bit-identical to a
    // bucket-by-bucket first-index-tie-break scan (DpKernelTest.* keeps one).
    //
    // Dominated choices are cost-neutral to skip: dp[] is non-increasing in
    // b and quantize() is monotone in weight, so a dominator's candidate is
    // always <= the dominated choice's, and keep-first preserves the
    // first-index tie-break.
    for (const int k : keep) {
      const int wq = quantize(group[k].weight);
      quantized[g * stride + k] = wq;
      const double cost = group[k].cost;
      const auto choice = static_cast<std::uint8_t>(k);
      for (int b = wq; b <= buckets; ++b) {
        const double cand = prev[b - wq] + cost;
        const bool better = cand < best[b];
        best[b] = better ? cand : best[b];
        pick_g[b] = better ? choice : pick_g[b];
      }
    }
    dp.swap(next);
    stats_.dp_cells += row * keep.size();
  }
  if (!std::isfinite(dp[buckets])) {
    return ResourceExhausted("mckp: no feasible assignment at this resolution");
  }

  // Reconstruct choices walking budgets backwards.
  MckpSolution solution;
  solution.choice.assign(n_groups, 0);
  int b = buckets;
  for (std::size_t g = n_groups; g-- > 0;) {
    const std::uint8_t k = pick[g * row + b];
    TS_CHECK(k != 0xff);
    solution.choice[g] = k;
    b -= quantized[g * stride + k];
  }
  FreshTotals(problem, solution);
  solution.optimal = true;
  return solution;
}

StatusOr<MckpSolution> MckpSolver::SolveGreedy(const MckpProblem& problem,
                                               const MckpPruning& pruning) {
  const std::size_t n_groups = problem.groups.size();
  MckpSolution solution;
  solution.choice.assign(n_groups, 0);
  double total_weight = 0.0;
  double total_cost = 0.0;
  SeedMinCost(problem, pruning, 0, n_groups, solution.choice, total_weight, total_cost);
  WalkDown(problem, pruning, 0, n_groups, nullptr, problem.capacity, solution.choice,
           total_weight, total_cost, stats_.greedy_moves, nullptr);
  if (total_weight > problem.capacity * (1.0 + 1e-9)) {
    return ResourceExhausted("mckp: greedy could not meet capacity");
  }
  ImprovementPass(problem, pruning, solution.choice, total_weight, total_cost, problem.capacity,
                  8, nullptr, nullptr);
  solution.total_cost = total_cost;
  solution.total_weight = total_weight;
  solution.optimal = false;
  return solution;
}

StatusOr<MckpSolution> MckpSolver::SolveGreedySharded(const MckpProblem& problem,
                                                      MckpPruning* keep) {
  const std::size_t n_groups = problem.groups.size();
  const std::size_t n_shards =
      std::min<std::size_t>(std::max(options_.shards, 1), n_groups);
  stats_.shards_used = static_cast<int>(n_shards);

  MckpPruning pruning;
  pruning.dominant.resize(n_groups);
  pruning.hull.resize(n_groups);
  MckpSolution solution;
  solution.choice.assign(n_groups, 0);

  // Per-shard slots: workers compute pure results into their own Shard (and
  // into the disjoint [lo, hi) slices of `pruning` and `solution.choice`);
  // every fold into stats_/totals happens below on the submitting thread in
  // ascending shard order (thread_pool.h invariant), so the result is a
  // function of the shard count, never the pool size.
  struct Shard {
    std::size_t lo = 0;
    std::size_t hi = 0;
    PruneCounts counts;
    double min_weight = 0.0;   // sum of per-group minimum weights
    double seed_weight = 0.0;  // totals at the min-cost seed
    double seed_cost = 0.0;
    double weight = 0.0;  // totals after the shard-local walk
    double cost = 0.0;
    std::size_t moves = 0;
  };
  std::vector<Shard> shards(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    shards[i].lo = n_groups * i / n_shards;
    shards[i].hi = n_groups * (i + 1) / n_shards;
  }
  auto for_each_shard = [&](const std::function<void(std::size_t)>& fn) {
    if (options_.pool != nullptr && n_shards > 1) {
      options_.pool->ParallelFor(n_shards, fn);
    } else {
      for (std::size_t i = 0; i < n_shards; ++i) {
        fn(i);
      }
    }
  };

  // Phase 1 (parallel, pure): prune and seed each shard, and collect the
  // terms of the budget split.
  for_each_shard([&](std::size_t i) {
    Shard& shard = shards[i];
    PruneScratch scratch;  // worker-local: PruneGroup stays a pure per-slot computation
    for (std::size_t g = shard.lo; g < shard.hi; ++g) {
      const auto& group = problem.groups[g];
      PruneGroup(group, options_.prune, pruning.dominant[g], pruning.hull[g], shard.counts,
                 scratch);
      double min_weight = kInf;
      for (const auto& choice : group) {
        min_weight = std::min(min_weight, choice.weight);
      }
      shard.min_weight += min_weight;
    }
    SeedMinCost(problem, pruning, shard.lo, shard.hi, solution.choice, shard.seed_weight,
                shard.seed_cost);
  });

  // Top-level budget split (sequential, ascending): every shard keeps its
  // mandatory minimum and receives the global slack in proportion to how
  // much weight its seed could shed — a uniform cut of the LP-relaxation
  // frontier when shards are statistically similar; the global repair below
  // absorbs the imbalance when they are not.
  double min_total = 0.0;
  double span_total = 0.0;
  for (const Shard& shard : shards) {
    FoldCounts(shard.counts, stats_);
    min_total += shard.min_weight;
    span_total += shard.seed_weight - shard.min_weight;
  }
  const double slack = problem.capacity - min_total;
  const double frac = span_total > 0.0 ? std::clamp(slack / span_total, 0.0, 1.0) : 1.0;

  // Phase 2 (parallel, pure): walk each shard down to its budget share.
  for_each_shard([&](std::size_t i) {
    Shard& shard = shards[i];
    shard.weight = shard.seed_weight;
    shard.cost = shard.seed_cost;
    const double sub_capacity = shard.min_weight + frac * (shard.seed_weight - shard.min_weight);
    WalkDown(problem, pruning, shard.lo, shard.hi, nullptr, sub_capacity, solution.choice,
             shard.weight, shard.cost, shard.moves, nullptr);
  });

  // Sequential merge in submission order, then top-level repair: a residual
  // overshoot (float edges of the split) continues the walk globally, and
  // the improvement pass re-spends slack across shard boundaries.
  double total_weight = 0.0;
  double total_cost = 0.0;
  for (const Shard& shard : shards) {
    total_weight += shard.weight;
    total_cost += shard.cost;
    stats_.greedy_moves += shard.moves;
  }
  if (total_weight > problem.capacity) {
    WalkDown(problem, pruning, 0, n_groups, nullptr, problem.capacity, solution.choice,
             total_weight, total_cost, stats_.greedy_moves, nullptr);
  }
  if (total_weight > problem.capacity * (1.0 + 1e-9)) {
    return ResourceExhausted("mckp: sharded greedy could not meet capacity");
  }
  ImprovementPass(problem, pruning, solution.choice, total_weight, total_cost, problem.capacity,
                  8, nullptr, nullptr);
  FreshTotals(problem, solution);
  solution.optimal = false;
  if (keep != nullptr) {
    *keep = std::move(pruning);
  }
  return solution;
}

StatusOr<MckpSolution> MckpSolver::SolveWarm(const MckpProblem& problem,
                                             MckpIncrementalState& state,
                                             const std::vector<std::uint8_t>* changed_hint) {
  MckpIncrementalState::Impl& carry = *state.impl_;
  const std::size_t n_groups = problem.groups.size();

  // Changed-group detection: the caller's bitmap when provided (with a
  // deterministic sampled digest cross-check), per-group digests otherwise.
  std::vector<std::size_t> changed_list;
  const bool hinted = changed_hint != nullptr && changed_hint->size() == n_groups;
  if (hinted) {
    const std::size_t stride = options_.warm_check_stride;
    if (stride > 0) {
      for (std::size_t g = stride - 1; g < n_groups; g += stride) {
        if ((*changed_hint)[g] == 0 && HashGroup(problem.groups[g]) != carry.digest[g]) {
          // The hint claims this group is unchanged but its rows moved:
          // discard the hint entirely (it cannot be trusted for any group)
          // and let the caller's full solve refresh the state.
          return InvalidArgument("mckp: changed-group hint contradicts group digest");
        }
      }
    }
    for (std::size_t g = 0; g < n_groups; ++g) {
      if ((*changed_hint)[g] != 0) {
        changed_list.push_back(g);
      }
    }
  } else {
    for (std::size_t g = 0; g < n_groups; ++g) {
      if (HashGroup(problem.groups[g]) != carry.digest[g]) {
        changed_list.push_back(g);
      }
    }
  }
  stats_.groups_changed = changed_list.size();
  if (static_cast<double>(changed_list.size()) >
      options_.warm_churn_fallback * static_cast<double>(n_groups)) {
    return ResourceExhausted("mckp: churn above warm-start threshold");
  }

  // Delta repair on the incumbent: re-prune and re-seed only the changed
  // groups; unchanged groups keep their plan, pruning, and contributions.
  // Every per-group carry slot is refreshed the moment that group's rows or
  // choice move (and only then): the window's total work — including the
  // carry-over bookkeeping — is proportional to churn, never to n_groups.
  double total_weight = carry.total_weight;
  double total_cost = carry.total_cost;
  std::vector<int> choice = carry.choice;
  PruneCounts counts;
  PruneScratch scratch;
  for (const std::size_t g : changed_list) {
    // Changed rows are new to the solver: apply CheckProblem's per-row
    // validation here (unchanged groups already passed it when the carry-over
    // was built; Solve skips the full sweep on the warm path).
    if (problem.groups[g].empty()) {
      return InvalidArgument("mckp: empty group");
    }
    for (const auto& row : problem.groups[g]) {
      if (row.weight < 0.0 || !std::isfinite(row.cost)) {
        return InvalidArgument("mckp: bad choice");
      }
    }
    PruneGroup(problem.groups[g], options_.prune, carry.pruning.dominant[g],
               carry.pruning.hull[g], counts, scratch);
    carry.digest[g] = HashGroup(problem.groups[g]);
    total_weight -= carry.chosen_weight[g];
    total_cost -= carry.chosen_cost[g];
    SeedMinCost(problem, carry.pruning, g, g + 1, choice, total_weight, total_cost);
  }
  FoldCounts(counts, stats_);

  // Hull walk over the changed set first (unchanged groups' budget slack is
  // carried over in the running totals); only if that cannot reach the new
  // capacity — shrunk budget, heavy churn — are unchanged groups mobilized.
  std::vector<std::size_t> walked;
  if (total_weight > problem.capacity) {
    WalkDown(problem, carry.pruning, 0, n_groups, &changed_list, problem.capacity, choice,
             total_weight, total_cost, stats_.greedy_moves, &walked);
  }
  if (total_weight > problem.capacity) {
    WalkDown(problem, carry.pruning, 0, n_groups, nullptr, problem.capacity, choice,
             total_weight, total_cost, stats_.greedy_moves, &walked);
  }
  if (total_weight > problem.capacity * (1.0 + 1e-9)) {
    return ResourceExhausted("mckp: warm repair could not meet capacity");
  }

  // Refresh the carry slots of everything the seed/walk moved before the
  // exchange pass reads min_gain_dw (ImprovementPass requires it current).
  for (const std::size_t g : changed_list) {
    const auto& chosen = problem.groups[g][choice[g]];
    carry.chosen_cost[g] = chosen.cost;
    carry.chosen_weight[g] = chosen.weight;
    carry.min_gain_dw[g] = MinGainDw(problem.groups[g], carry.pruning.dominant[g], choice[g]);
  }
  for (const std::size_t g : walked) {
    const auto& chosen = problem.groups[g][choice[g]];
    carry.chosen_cost[g] = chosen.cost;
    carry.chosen_weight[g] = chosen.weight;
    carry.min_gain_dw[g] = MinGainDw(problem.groups[g], carry.pruning.dominant[g], choice[g]);
  }

  // Bounded exchange repair restores the efficiency frontier across the
  // changed/unchanged boundary and spends any slack the churn freed.
  std::vector<std::size_t> improved;
  stats_.exchange_moves = ImprovementPass(problem, carry.pruning, choice, total_weight,
                                          total_cost, problem.capacity,
                                          options_.warm_exchange_rounds, &carry.min_gain_dw,
                                          &improved);
  for (const std::size_t g : improved) {
    const auto& chosen = problem.groups[g][choice[g]];
    carry.chosen_cost[g] = chosen.cost;
    carry.chosen_weight[g] = chosen.weight;
  }

  // The running totals ARE the solution totals: every update above was a
  // paired subtract/add of exact row values, so their drift off the fresh
  // ascending-order sum is ~machine-epsilon × ops — orders of magnitude
  // inside ValidateSolution's reported-cost tolerance (IncrementalSolveTest
  // cross-checks every warm window with the public ValidateSolution). The
  // capacity gate below is ValidateSolution's, inlined; choice indices come
  // from the pruned lists so the bounds check is structural. An O(n)
  // re-validation sweep here would cost more than the whole repair.
  MckpSolution solution;
  solution.choice = std::move(choice);
  solution.total_cost = total_cost;
  solution.total_weight = total_weight;
  solution.optimal = false;
  if (solution.total_weight > problem.capacity * (1.0 + 1e-9) + 1e-9) {
    // Caller falls back to the full solve, which rebuilds the carry-over.
    return FailedPrecondition("mckp: warm repair exceeds capacity");
  }
  stats_.used = Strategy::kGreedy;
  stats_.warm = true;

  // Digests, pruning, and per-group slots for the moved groups were updated
  // in place above.
  carry.choice = solution.choice;
  carry.total_cost = solution.total_cost;
  carry.total_weight = solution.total_weight;
  carry.capacity = problem.capacity;
  return solution;
}

void MckpSolver::RefreshState(const MckpProblem& problem, const MckpSolution& solution,
                              MckpPruning* pruning, MckpIncrementalState& state) {
  MckpIncrementalState::Impl& carry = *state.impl_;
  const std::size_t n_groups = problem.groups.size();
  carry.pruning = std::move(*pruning);
  carry.digest.resize(n_groups);
  carry.chosen_cost.resize(n_groups);
  carry.chosen_weight.resize(n_groups);
  carry.min_gain_dw.resize(n_groups);
  carry.choice = solution.choice;
  for (std::size_t g = 0; g < n_groups; ++g) {
    carry.digest[g] = HashGroup(problem.groups[g]);
    const auto& chosen = problem.groups[g][solution.choice[g]];
    carry.chosen_cost[g] = chosen.cost;
    carry.chosen_weight[g] = chosen.weight;
    carry.min_gain_dw[g] = MinGainDw(problem.groups[g], carry.pruning.dominant[g], solution.choice[g]);
  }
  carry.total_cost = solution.total_cost;
  carry.total_weight = solution.total_weight;
  carry.capacity = problem.capacity;
  carry.prune = options_.prune;
  carry.valid = true;
}

}  // namespace tierscape
