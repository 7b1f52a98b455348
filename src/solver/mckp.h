// Multiple-choice knapsack (MCKP) solver — the "ILP" of §6.4.
//
// TierScape's analytical model (Eq. 2) is, structurally, an MCKP: every 2 MiB
// region (a *group*) must be assigned to exactly one tier (a *choice*), each
// choice carrying a performance-overhead cost (Eq. 7) and a TCO weight
// (Eq. 10); total weight is capped by the knob-scaled TCO budget. The paper
// solves it with Google OR-Tools; this module is the offline-built
// equivalent, with two strategies:
//
//  * kDp     — dynamic program over a discretized weight budget. Rounds each
//              weight *up* to the next bucket, so solutions never violate the
//              budget; with the default resolution the cost error is
//              negligible and the result is reported as optimal.
//  * kGreedy — convex-hull incremental-efficiency greedy (the classic MCKP
//              LP-relaxation walk) plus a local improvement pass; O(n log n),
//              used for very large instances.
//
// Both strategies first prune each group's choice list (Options::prune):
// dominance pruning drops any choice beaten on both cost and weight by an
// earlier-or-cheaper sibling, and the greedy efficiency walk additionally
// restricts its move targets to the group's lower convex hull. Each rule is
// applied only where it provably cannot change the solved total_cost — see
// the notes in mckp.cc; MckpSolverTest.PruningPreservesTotalCost guards the
// equivalence on randomized instances.
//
// Production-scale paths (DESIGN.md §4e):
//
//  * Warm-start incremental solving — `Solve(problem, &state)` keeps the
//    previous window's plan, pruning, and per-group digests in an
//    MckpIncrementalState, re-solves only the groups whose choice lists
//    changed since the last window (delta-repair on the greedy hull walk),
//    and falls back to a full solve when churn exceeds
//    Options::warm_churn_fallback or the repaired plan fails
//    ValidateSolution. Between consecutive windows most regions keep their
//    hotness bucket, so the per-window cost tracks churn, not instance size.
//  * Sharded hierarchical solving — Options::{shards, pool} partitions the
//    groups into contiguous shards solved concurrently on the ThreadPool
//    (workers compute pure per-shard results into disjoint slots), with a
//    proportional top-level budget split repaired sequentially in
//    submission order; results are byte-identical for every pool size.
//
// The paper reports its ILP consumes <0.3% of a CPU and ~480 MB (§8.4);
// bench/micro_solver reproduces the equivalent measurement for this solver
// and extends it into a 10³→10⁶-region cold/warm/sharded scaling curve, plus
// cold DP cells at the analytical policy's per-window shapes.
#ifndef SRC_SOLVER_MCKP_H_
#define SRC_SOLVER_MCKP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"

namespace tierscape {

class FaultInjector;
class ThreadPool;

struct MckpChoice {
  double cost = 0.0;    // objective contribution (minimized)
  double weight = 0.0;  // budgeted resource contribution
};

struct MckpProblem {
  // groups[g][k] is the k-th choice of group g; each group picks exactly one.
  std::vector<std::vector<MckpChoice>> groups;
  double capacity = 0.0;  // maximum total weight
};

// Per-group pruned choice-index sets; built in mckp.cc (opaque here).
struct MckpPruning;

struct MckpSolution {
  std::vector<int> choice;  // chosen index per group
  double total_cost = 0.0;
  double total_weight = 0.0;
  bool optimal = false;  // true when produced by the DP at full resolution
};

// Carry-over state for warm-start solves (DESIGN.md §4e): the previous
// window's plan (the incumbent), its per-group pruned choice lists, chosen
// cost/weight contributions, and a 64-bit digest per group for change
// detection. Owned by the caller (one per solver client, e.g. per
// AnalyticalPolicy); a solver fills it on every Solve(problem, &state) call —
// cold or warm — so the next window can delta-repair from it.
class MckpIncrementalState {
 public:
  MckpIncrementalState();
  ~MckpIncrementalState();

  MckpIncrementalState(const MckpIncrementalState&) = delete;
  MckpIncrementalState& operator=(const MckpIncrementalState&) = delete;

  // True once a solve has populated the state (warm starts are possible).
  bool valid() const;
  // Drops the incumbent; the next Solve(problem, &state) runs cold.
  void Reset();

 private:
  friend class MckpSolver;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class MckpSolver {
 public:
  enum class Strategy { kAuto, kDp, kGreedy };

  struct Options {
    Strategy strategy = Strategy::kAuto;
    // Minimum weight-budget discretization for the DP. Each group's weight
    // rounds up by at most one bucket, so the effective resolution scales
    // with the group count (16 buckets per group, capped at dp_buckets_max)
    // to keep the cumulative rounding loss below ~3% of the budget.
    int dp_buckets = 2048;
    int dp_buckets_max = 16384;
    // kAuto switches to greedy above this many group-choice pairs. The
    // decision uses the *unpruned* pair count so pruning never flips the
    // chosen strategy (the two strategies return different costs).
    std::size_t auto_greedy_threshold = 4'000'000;
    // Per-group dominance/convex-hull pruning. Cost-neutral by construction;
    // off only for A/B measurement (bench/micro_solver) and the equivalence
    // test.
    bool prune = true;

    // --- Warm-start incremental solving (DESIGN.md §4e) ---
    // Full re-solve when more than this fraction of groups changed since the
    // incumbent: above it the delta-repair bookkeeping costs more than a
    // cold greedy solve and its quality bound degrades.
    double warm_churn_fallback = 0.5;
    // Bounded frontier-repair budget: after the delta walk, at most this
    // many local-improvement rounds restore the efficiency frontier (the
    // cold greedy path uses 8; warm windows start near the frontier so fewer
    // rounds reach the same fixpoint).
    int warm_exchange_rounds = 2;
    // When the caller supplies a changed-group hint, every stride-th
    // unflagged group is digest-checked anyway; a mismatch invalidates the
    // hint and forces the cold path. 0 disables the cross-check.
    std::size_t warm_check_stride = 64;

    // --- Sharded hierarchical solving (DESIGN.md §4e) ---
    // Greedy-path sharding: groups are split into `shards` contiguous ranges
    // solved independently (on `pool` when set, serially otherwise) under a
    // proportional budget split, then merged and frontier-repaired
    // sequentially. Shard count — not pool size — determines the result, so
    // output is byte-identical across thread counts. The DP path ignores
    // sharding (it is only selected at small scale).
    int shards = 1;
    ThreadPool* pool = nullptr;  // borrowed; may be null even when shards > 1
  };

  struct SolveStats {
    std::size_t dp_cells = 0;
    std::size_t greedy_moves = 0;
    // Pruning effectiveness: total choices across groups, how many were
    // dominance-pruned (skipped by the DP and the greedy improvement pass),
    // and how many the greedy efficiency walk excludes as off-hull (the two
    // counts overlap: a dominated choice is usually also off the hull).
    std::size_t choices_total = 0;
    std::size_t pruned_dominated = 0;
    std::size_t pruned_off_hull = 0;
    Strategy used = Strategy::kDp;
    // Warm-start path (DESIGN.md §4e).
    std::size_t groups_total = 0;
    std::size_t groups_changed = 0;   // re-solved groups (= churn this window)
    std::size_t exchange_moves = 0;   // frontier-repair improvement moves
    bool warm = false;                // delta-repair produced the solution
    bool warm_fallback = false;       // state present but a full solve ran
    int shards_used = 1;
  };

  MckpSolver() : options_(Options()) {}
  explicit MckpSolver(Options options) : options_(options) {}

  // Fault injection (DESIGN.md §4d): checked once at Solve entry; injects
  // kDeadlineExceeded (solve blew its window budget, §8.4) or
  // kResourceExhausted (spurious infeasibility).
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

  // Re-points the sharded path (daemon wiring happens after policy
  // construction). Pool is borrowed and must outlive the solver's solves.
  void set_shards(int shards, ThreadPool* pool) {
    options_.shards = shards;
    options_.pool = pool;
  }

  // Fails with kInvalidArgument for malformed problems, kResourceExhausted
  // when even the minimum-weight assignment exceeds the capacity, and
  // kDeadlineExceeded on an injected solver timeout.
  StatusOr<MckpSolution> Solve(const MckpProblem& problem);

  // Warm-start solve. With a valid `state` holding the previous window's
  // incumbent, re-solves only the changed groups (delta-repair); otherwise
  // (first window, shape change, churn above Options::warm_churn_fallback,
  // or a repair that fails validation) runs the full solve. Either way the
  // state is refreshed for the next window.
  //
  // `changed_hint` (optional, same length as problem.groups) marks the
  // groups whose choices may differ from the previous window — e.g. the
  // telemetry changed-bucket bitmap (HotnessTable::ChangedBitmap). Contract:
  // an unflagged group's choices must be bitwise-identical to the previous
  // window's; the solver digest-checks a deterministic sample
  // (Options::warm_check_stride) and discards a hint caught lying. Without a
  // hint the changed set is computed from per-group digests.
  StatusOr<MckpSolution> Solve(const MckpProblem& problem, MckpIncrementalState* state,
                               const std::vector<std::uint8_t>* changed_hint = nullptr);

  const SolveStats& stats() const { return stats_; }
  const Options& options() const { return options_; }

 private:
  // `keep`, when non-null, receives the pruning built during the solve so a
  // warm-start state can cache it without rebuilding.
  StatusOr<MckpSolution> SolveCold(const MckpProblem& problem, MckpPruning* keep);
  StatusOr<MckpSolution> SolveDp(const MckpProblem& problem, const MckpPruning& pruning);
  int EffectiveBuckets(std::size_t n_groups) const;
  StatusOr<MckpSolution> SolveGreedy(const MckpProblem& problem, const MckpPruning& pruning);
  StatusOr<MckpSolution> SolveGreedySharded(const MckpProblem& problem, MckpPruning* keep);
  StatusOr<MckpSolution> SolveWarm(const MckpProblem& problem, MckpIncrementalState& state,
                                   const std::vector<std::uint8_t>* changed_hint);
  // Refreshes `state` from a completed solve (consuming `pruning`) so the
  // next window can warm-start.
  void RefreshState(const MckpProblem& problem, const MckpSolution& solution,
                    MckpPruning* pruning, MckpIncrementalState& state);

  Options options_;
  SolveStats stats_;
  FaultInjector* fault_ = nullptr;
  // SolveDp scratch, reused across solves: a per-window caller solves the
  // same shape every window. dp_/dp_next_ are the recurrence's two rows,
  // dp_pick_ the per-(group, bucket) choice, and dp_quantized_ the quantized
  // weight of every kept choice (group-major, one stride per group).
  std::vector<double> dp_;
  std::vector<double> dp_next_;
  std::vector<std::uint8_t> dp_pick_;
  std::vector<int> dp_quantized_;
};

// Checks that a solution is well-formed and within capacity.
Status ValidateSolution(const MckpProblem& problem, const MckpSolution& solution);

}  // namespace tierscape

#endif  // SRC_SOLVER_MCKP_H_
