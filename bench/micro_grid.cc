// Micro-benchmark: the experiment-grid runner itself. Runs the identical
// 8-cell policy grid twice — once serial, once with 4 grid threads — and
// TS_CHECKs that every deterministic output is byte-identical: per-cell
// results (rendered to a table), the merged metrics artifact, and the merged
// trace. Then reports the wall-clock speedup.
//
// Expected shape: near-linear scaling while cores last — at least 3x at 4
// threads on a 4-core machine (the assertion is gated on
// hardware_concurrency, so a 1-core CI runner still checks determinism).
// Per-cell and total wall times land in $TIERSCAPE_BENCH_JSON.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/experiment_grid.h"
#include "src/common/logging.h"

using namespace tierscape;
using namespace tierscape::bench;

namespace {

void AddCells(ExperimentGrid& grid) {
  const char* workloads[] = {"memcached-ycsb", "redis-ycsb"};
  const PolicySpec policies[] = {HememSpec(), TmoSpec(), WaterfallSpec(),
                                 AmSpec("AM-TCO", 0.3)};
  for (const char* workload : workloads) {
    const std::size_t footprint = WorkloadFootprint(workload);
    for (const PolicySpec& policy : policies) {
      CellSpec cell;
      cell.label = std::string(workload) + "/" + policy.label;
      cell.make_system =
          SystemFactory(StandardMixConfig(footprint + footprint / 2, 3 * footprint));
      cell.workload = workload;
      cell.policy = policy;
      cell.config.ops = 60'000;
      // Serial push pools in both runs, so the speedup measures grid scaling
      // alone: a serial grid would otherwise give each cell a host-sized pool
      // while the 4-thread grid caps it at 1.
      cell.config.engine.migrate_threads = 1;
      grid.Add(std::move(cell));
    }
  }
}

std::string ResultsTable(const std::vector<ExperimentResult>& results) {
  TablePrinter table({"cell", "slowdown %", "TCO savings %", "faults", "migrated pages"});
  for (const ExperimentResult& r : results) {
    table.AddRow({r.workload + "/" + r.policy, TablePrinter::Fmt(r.perf_overhead_pct),
                  TablePrinter::Fmt(r.mean_tco_savings * 100.0),
                  std::to_string(r.total_faults), std::to_string(r.migrated_pages)});
  }
  return table.ToString();
}

struct GridRun {
  std::string table;
  std::string metrics;
  std::string trace;
  double wall_ms = 0.0;
};

GridRun RunAt(const char* name, int threads) {
  ExperimentGrid grid(name);
  grid.SetThreads(threads);
  AddCells(grid);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<ExperimentResult> results = grid.Run();
  GridRun run;
  run.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  run.table = ResultsTable(results);
  run.metrics = grid.MergedMetricsJsonl();
  run.trace = grid.MergedTraceJson();
  return run;
}

}  // namespace

int main() {
  const GridRun serial = RunAt("micro_grid.t1", 1);
  const GridRun parallel = RunAt("micro_grid.t4", 4);

  // Hard invariant: the grid thread count is a wall-clock-only knob. Every
  // deterministic output must match byte-for-byte.
  TS_CHECK(serial.table == parallel.table) << "grid results diverged across thread counts";
  TS_CHECK(serial.metrics == parallel.metrics)
      << "merged metrics artifact diverged across thread counts";
  TS_CHECK(serial.trace == parallel.trace)
      << "merged trace artifact diverged across thread counts";

  std::printf("Micro: experiment-grid runner (8 cells; outputs byte-identical)\n\n");
  std::printf("%s\n", serial.table.c_str());
  std::printf("grid wall-clock: serial %.1f ms, 4 threads %.1f ms (%.2fx speedup)\n",
              serial.wall_ms, parallel.wall_ms, serial.wall_ms / parallel.wall_ms);

  if (std::thread::hardware_concurrency() >= 4) {
    TS_CHECK_GT(serial.wall_ms / parallel.wall_ms, 3.0)
        << "grid speedup below 3x at 4 threads on a >=4-core machine";
  } else {
    std::printf("(speedup assertion skipped: only %u hardware threads)\n",
                std::thread::hardware_concurrency());
  }
  return 0;
}
