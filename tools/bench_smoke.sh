#!/usr/bin/env sh
# CI bench smoke (EXPERIMENTS.md "CI smoke"): run every grid-runner bench at
# tiny scale (TIERSCAPE_BENCH_SMOKE=1), once serial and once with a 4-thread
# grid, and diff everything deterministic between the two runs — stdout
# tables, merged metrics artifacts, merged traces. The grid thread count is a
# wall-clock-only knob (bench/experiment_grid.h), so any divergence is a
# determinism regression. The serial run's cells keep their host-sized push
# pools while the 4-thread grid caps them at 1, so the diff also compares
# parallel migration against serial migration.
#
# Excluded from the diff by construction:
#   - BENCH_grid.json            per-cell wall-time records
#   - micro_migration.stdout     prints wall-clock speedups by design
#   - micro_grid.stdout          prints wall-clock speedups by design
# (their artifacts ARE still compared). micro_solver keeps its wall-clock
# speedups on stderr, so its stdout table IS part of the diff. The gbench
# pair (micro_compress/micro_zpool) reports wall time only and is not a grid
# bench, so it is out of scope here.
#
# Usage: tools/bench_smoke.sh [BUILD_DIR] [OUT_DIR]
set -eu

BUILD_DIR=${1:-build}
OUT=${2:-bench_smoke}

GRID_BENCHES="fig01_motivation fig02_characterization tab01_tier_space \
fig07_standard_mix fig08_waterfall_trace fig09_am_tco_trace fig10_knob_sweep \
fig11_tail_latency fig12_spectrum_placement fig13_spectrum fig14_daemon_tax \
fig15_resilience fig16_colocation \
ablation_cxl_backing ablation_filter ablation_tier_sets micro_access \
micro_migration micro_grid micro_solver"

rm -rf "$OUT"
for threads in 1 4; do
  dir="$OUT/t$threads"
  mkdir -p "$dir"
  for b in $GRID_BENCHES; do
    echo "[bench_smoke] $b (threads=$threads)"
    TIERSCAPE_BENCH_SMOKE=1 TIERSCAPE_BENCH_THREADS=$threads TIERSCAPE_TRACE=1 \
      TIERSCAPE_OBS_DIR="$dir" TIERSCAPE_BENCH_JSON="$dir/BENCH_grid.json" \
      "$BUILD_DIR/bench/$b" >"$dir/$b.stdout"
    test -s "$dir/$b.stdout"
  done
done

echo "[bench_smoke] diffing deterministic outputs (serial vs 4 grid threads)"
diff -r \
  -x BENCH_grid.json \
  -x micro_migration.stdout \
  -x micro_grid.stdout \
  "$OUT/t1" "$OUT/t4"

# Wall-time records must exist and carry one entry per run (content differs).
test -s "$OUT/t1/BENCH_grid.json"
test -s "$OUT/t4/BENCH_grid.json"

# The colocation sweep must emit a wall record for every (policy, tenants)
# cell — the serial run also flexes the MultiTenantDaemon's own 4-thread pool,
# so a missing record means a cell silently died (DESIGN.md §4f).
for threads in 1 4; do
  grep -q '"bench":"fig16_colocation","cell":"utility@16","wall_ms"' \
    "$OUT/t$threads/BENCH_grid.json"
  grep -q '"bench":"fig16_colocation","cell":"static@2","wall_ms"' \
    "$OUT/t$threads/BENCH_grid.json"
done

# The sub-window fast-path cells (fig11b, DESIGN.md §4h) must emit wall
# records for the flash-crowd pair and at least one policy pair — a missing
# record means the fast-path daemon config silently failed to run.
for threads in 1 4; do
  grep -q '"bench":"fig11_tail_latency","cell":"fastpath/flash-crowd","wall_ms"' \
    "$OUT/t$threads/BENCH_grid.json"
  grep -q '"bench":"fig11_tail_latency","cell":"fastpath/GSwap\*","wall_ms"' \
    "$OUT/t$threads/BENCH_grid.json"
done

# The solver scaling curve and both cold DP cells must emit a per-cell
# wall/solver/solve_ms record (the across-PR perf trajectory, EXPERIMENTS.md
# "Solver scaling curve").
for threads in 1 4; do
  grep -q '"bench":"micro_solver","cell":"cold/n1000","metric":"wall/solver/solve_ms"' \
    "$OUT/t$threads/BENCH_grid.json"
  grep -q '"bench":"micro_solver","cell":"warm/n1000","metric":"wall/solver/warm_ms"' \
    "$OUT/t$threads/BENCH_grid.json"
  for cell in dp/26x4 dp/256x6; do
    grep -q '"bench":"micro_solver","cell":"'$cell'","metric":"wall/solver/solve_ms"' \
      "$OUT/t$threads/BENCH_grid.json"
  done
done

# The MPMC access-path bench must emit a per-cell wall/access/churn_ms record
# for every caller count (EXPERIMENTS.md "MPMC access path"); its stdout and
# artifacts are part of the byte-diff above, so caller-count divergence fails
# the smoke run twice over.
for threads in 1 4; do
  for cell in c1 c2 c4 c8; do
    grep -q '"bench":"micro_access","cell":"'$cell'","metric":"wall/access/churn_ms"' \
      "$OUT/t$threads/BENCH_grid.json"
  done
done

echo "[bench_smoke] OK: all grid benches byte-identical across thread counts"

# tslint incremental/full identity (DESIGN.md §4c): a full serial run, a
# parallel run, and an incremental run over the just-primed cache must produce
# byte-identical findings. The repo tree is clean, so also assert rc=0 and
# compare the JSONL artifacts of an explicit full vs incremental pair.
echo "[bench_smoke] tslint: full vs parallel vs incremental identity"
TSLINT="$BUILD_DIR/tools/tslint"
mkdir -p "$OUT/tslint"
"$TSLINT" --root . --self --quiet \
  --jsonl "$OUT/tslint/full.jsonl" --sarif "$OUT/tslint/full.sarif"
"$TSLINT" --root . --self --quiet --jobs 4 \
  --jsonl "$OUT/tslint/parallel.jsonl"
"$TSLINT" --root . --self --quiet --cache "$OUT/tslint/cache.txt" \
  --jsonl "$OUT/tslint/prime.jsonl"
"$TSLINT" --root . --self --quiet --cache "$OUT/tslint/cache.txt" --incremental \
  --jsonl "$OUT/tslint/incremental.jsonl"
cmp "$OUT/tslint/full.jsonl" "$OUT/tslint/parallel.jsonl"
cmp "$OUT/tslint/full.jsonl" "$OUT/tslint/prime.jsonl"
cmp "$OUT/tslint/full.jsonl" "$OUT/tslint/incremental.jsonl"
# --bench repeats the identity checks internally (TS_CHECK) and additionally
# asserts the incremental run on the unchanged tree analyzes zero files.
"$TSLINT" --root . --self --bench --quiet --cache "$OUT/tslint/bench_cache.txt" \
  2>"$OUT/tslint/bench_wall.jsonl"
grep -q '"metric":"wall/tslint/incremental_ms"' "$OUT/tslint/bench_wall.jsonl"

echo "[bench_smoke] OK: tslint findings identical across serial/parallel/incremental"
