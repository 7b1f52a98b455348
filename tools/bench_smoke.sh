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
# solve times on stderr, so its stdout table IS part of the diff. The gbench
# pair (micro_compress/micro_zpool) reports wall time only and is not a grid
# bench, so it is out of scope here.
#
# Every bench runs and every check below runs even after an earlier failure,
# so one run names everything broken: a bench that exits non-zero or leaves
# empty stdout, the diff, or a missing wall record. The script then exits 1
# listing the failures.
#
# Usage: tools/bench_smoke.sh [BUILD_DIR] [OUT_DIR]
set -eu

BUILD_DIR=${1:-build}
OUT=${2:-bench_smoke}

GRID_BENCHES="fig01_motivation fig02_characterization tab01_tier_space \
fig07_standard_mix fig08_waterfall_trace fig09_am_tco_trace fig10_knob_sweep \
fig11_tail_latency fig12_spectrum_placement fig13_spectrum fig14_daemon_tax \
fig15_resilience fig16_colocation \
ablation_cxl_backing ablation_filter ablation_tier_sets micro_migration \
micro_grid micro_solver"

failed=""
fail() {
  echo "[bench_smoke] FAILED: $1"
  failed="$failed $1"
}

# Fails unless the THREADS run's BENCH_grid.json has a line matching PATTERN.
require_record() {
  grep -q "$2" "$OUT/t$1/BENCH_grid.json" || fail "record $2 (threads=$1)"
}

rm -rf "$OUT"
for threads in 1 4; do
  dir="$OUT/t$threads"
  mkdir -p "$dir"
  for b in $GRID_BENCHES; do
    echo "[bench_smoke] $b (threads=$threads)"
    if ! TIERSCAPE_BENCH_SMOKE=1 TIERSCAPE_BENCH_THREADS=$threads TIERSCAPE_TRACE=1 \
        TIERSCAPE_OBS_DIR="$dir" TIERSCAPE_BENCH_JSON="$dir/BENCH_grid.json" \
        "$BUILD_DIR/bench/$b" >"$dir/$b.stdout" || ! test -s "$dir/$b.stdout"; then
      fail "$b(threads=$threads)"
    fi
  done
done

echo "[bench_smoke] diffing deterministic outputs (serial vs 4 grid threads)"
diff -r \
  -x BENCH_grid.json \
  -x micro_migration.stdout \
  -x micro_grid.stdout \
  "$OUT/t1" "$OUT/t4" || fail "diff(serial vs 4 threads)"

# Wall-time records must exist and carry one entry per run (content differs).
for threads in 1 4; do
  test -s "$OUT/t$threads/BENCH_grid.json" || fail "BENCH_grid.json(threads=$threads)"
done

# The colocation sweep must emit a wall record for every (policy, tenants)
# cell — the serial run also flexes the MultiTenantDaemon's own 4-thread pool,
# so a missing record means a cell silently died (DESIGN.md §4f).
for threads in 1 4; do
  require_record $threads '"bench":"fig16_colocation","cell":"utility@16","wall_ms"'
  require_record $threads '"bench":"fig16_colocation","cell":"static@2","wall_ms"'
done

# The sub-window fast-path cells (fig11b, DESIGN.md §4h) must emit wall
# records for the flash-crowd pair and at least one policy pair — a missing
# record means the fast-path daemon config silently failed to run.
for threads in 1 4; do
  require_record $threads '"bench":"fig11_tail_latency","cell":"fastpath/flash-crowd","wall_ms"'
  require_record $threads '"bench":"fig11_tail_latency","cell":"fastpath/GSwap\*","wall_ms"'
done

# The solver's greedy curve and both DP cells must emit a per-cell
# wall/solver/solve_ms record (the across-PR perf trajectory, EXPERIMENTS.md
# "micro_solver").
for threads in 1 4; do
  for cell in greedy/n1000 dp/26x4 dp/256x6; do
    require_record $threads '"bench":"micro_solver","cell":"'$cell'","metric":"wall/solver/solve_ms"'
  done
done

if [ -n "$failed" ]; then
  echo "[bench_smoke] FAILED:$failed"
  exit 1
fi
echo "[bench_smoke] OK: all grid benches byte-identical across thread counts"
