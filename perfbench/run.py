#!/usr/bin/env python3
"""Host-time benchmark of the TierScape simulator (see perfbench/DESIGN.md).

Driver form, one workload in its own process:

    python3 perfbench/run.py --workload kv-waterfall --seed 42 --seconds 10 --trace 0

builds perfbench/tsbench from this checkout's sources into .bench_build/,
runs it, checks every simulated run's result digest, and prints as its last
line {"correct", "attempted", "failed", "metrics"}: BENCHMARK.json's
end_to_end metrics with --trace 0, its per_layer metrics with --trace 1.

Other modes:

    python3 perfbench/run.py --all [--seconds S]   every workload, both modes, as tables
    python3 perfbench/run.py --selfcheck           tiny runs: names, units, repeatable counts
    python3 perfbench/run.py --record-digests      rewrite perfbench/digests.json
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPEC_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = HERE / "digests.json"

# A tsbench process that takes longer than 2x --seconds plus this is hung. A
# traced process takes about --seconds plus the probe.
RUN_TIMEOUT_BASE_S = 60
# Least share of the traced runs' measured phases, less the stamps' own
# cost, inside timed Op and Observe calls; traced runs below it fail.
MIN_COVERAGE_PCT = 95.0
# Pure functions of the simulation: equal in every run of one seed.
DETERMINISTIC_COUNTS = [
    "tiering.faults",
    "core.migrated_pages",
    "telemetry.samples",
    "zswap.stores",
    "zswap.loads",
    "zswap.rejects",
    "compress.real_compressions",
    "compress.cache_hits",
    "compress.cache_misses",
]
SELFCHECK_WINDOWS = 4


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not (ROOT / "src" / "workloads" / "driver.h").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    commands = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        commands.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", str(BUILD_DIR), "-j", str(min(4, os.cpu_count() or 1))])
    for command in commands:
        sys.stderr.flush()
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(command))
    return BUILD_DIR / "tsbench"


def run_tsbench(binary, workload, seed, seconds, trace, extra=()):
    """One tsbench process; seed None means the workload's default seed."""
    command = [str(binary), "--workload", workload, "--seconds", str(seconds),
               "--trace", str(trace), *extra]
    if seed is not None:
        command += ["--seed", str(seed)]
    timeout = 2 * seconds + RUN_TIMEOUT_BASE_S
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload}: no result within {timeout:g} s") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: tsbench exited with status {done.returncode}")
    return json.loads(lines[-1])


def committed_digests(report):
    """The committed digests by seed index, if the report is at its recorded
    seed and run length."""
    if not DIGESTS_PATH.is_file():
        return None
    entry = json.loads(DIGESTS_PATH.read_text()).get(report["workload"])
    if entry and entry["seed"] == report["seed"] and entry["run_ops"] == report["run_ops"]:
        return entry["digests"]
    return None


def check(report):
    """Returns (attempted, failed) simulated runs.

    A run fails when its result digest differs from the reference for its
    seed: the committed digest at the default seed, otherwise the first run
    of that seed in the process, since every run of one seed simulates
    exactly the same thing. Every traced run fails when the timed Op and
    Observe calls cover less than MIN_COVERAGE_PCT of the traced measured
    phases together (trace.coverage_pct): a single run's share moves with
    the host's load during its teardown. A byte mismatch in the
    codec/checksum/pool probe fails the traced run it sampled.
    """
    references = committed_digests(report) or {}
    references = dict(enumerate(references))
    coverage = report["metrics"].get("trace.coverage_pct", {"value": 100.0})["value"]
    failed = 0
    for run in report["runs"]:
        reference = references.setdefault(run["seed_index"], run["digest"])
        low_coverage = run["kind"] == "traced" and coverage < MIN_COVERAGE_PCT
        failed += run["digest"] != reference or low_coverage
    last = report["runs"][-1]
    if (report["check_failures"] > 0 and last["digest"] == references[last["seed_index"]]
            and coverage >= MIN_COVERAGE_PCT):
        failed += 1
    return len(report["runs"]), failed


def select_metrics(report, declared):
    """The declared metrics by name, checked against their declared units."""
    produced = report["metrics"]
    metrics = {}
    for metric in declared:
        value = produced.get(metric["name"])
        if value is None:
            raise BenchError(f"{report['workload']}: metric {metric['name']} missing")
        if value["unit"] != metric["unit"] or not math.isfinite(value["value"]):
            raise BenchError(f"{report['workload']}: metric {metric['name']} reads {value}")
        metrics[metric["name"]] = value
    return metrics


def declared_for(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def result_line(binary, spec, workload, seed, seconds, trace):
    report = run_tsbench(binary, workload, seed, seconds, trace)
    attempted, failed = check(report)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": select_metrics(report, declared_for(spec, trace))}


def print_metrics(metrics, samples):
    for name, value in metrics.items():
        base = name.rsplit(".", 1)[0]
        count = f"  (n={samples[base]})" if base in samples else ""
        print(f"    {name:<38} {value['value']:>16.6g} {value['unit']}{count}")


def run_all(binary, spec, seconds):
    """Every workload at its default seed, end to end and then traced."""
    all_correct = True
    for workload in spec["workloads"]:
        name = workload["name"]
        print(f"== {name} ==\n  {workload['why']}")
        for trace in (0, 1):
            report = run_tsbench(binary, name, None, seconds, trace)
            attempted, failed = check(report)
            all_correct = all_correct and failed == 0
            reference = ("the committed digests" if committed_digests(report)
                         else "each seed's first run (no committed digests at this seed)")
            print(f"  {'traced' if trace else 'end to end'} (seed {report['seed']}): {attempted} "
                  f"runs checked against {reference}, {failed} failed")
            print_metrics(select_metrics(report, declared_for(spec, trace)), report["samples"])
        print(flush=True)
    return all_correct


def selfcheck(binary, spec):
    """Tiny runs of every workload: names, units, digests and repeatable counts.

    Coverage is not checked here: teardown is a large share of a tiny run.
    check() enforces it on full-length runs.
    """
    tiny = ["--windows", str(SELFCHECK_WINDOWS)]
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        reports = [run_tsbench(binary, name, None, 0, trace, tiny)
                   for trace in (0, 1, 1)]
        for index in range(reports[0]["seeds_per_cycle"]):
            digests = {run["digest"] for report in reports for run in report["runs"]
                       if run["seed_index"] == index}
            if len(digests) != 1:
                problems.append(f"{name}: seed {index} has {len(digests)} result digests")
        for report in reports:
            if report["check_failures"]:
                problems.append(f"{name}: {report['check_failures']} probe byte mismatches")
            extra = set(report["metrics"]) - declared
            if extra:
                problems.append(f"{name}: metrics not in BENCHMARK.json: {sorted(extra)}")
        try:
            end_to_end = select_metrics(reports[0], spec["end_to_end"])
            layers = [select_metrics(report, spec["per_layer"]) for report in reports[1:]]
        except BenchError as error:
            problems.append(str(error))
            continue
        for count in DETERMINISTIC_COUNTS:
            values = [layer[count]["value"] for layer in layers]
            if len(set(values)) != 1:
                problems.append(f"{name}: {count} differs between runs: {values}")
        print(f"== {name} ==")
        print_metrics({**end_to_end, **layers[0]}, reports[1]["samples"])
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return not problems


def record_digests(binary, spec):
    digests = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        report = run_tsbench(binary, name, None, 0, 0)
        digests[name] = {"seed": report["seed"], "run_ops": report["run_ops"],
                         "digests": [run["digest"] for run in report["runs"]]}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {DIGESTS_PATH}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--selfcheck", action="store_true")
    mode.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (args.all or args.selfcheck or args.record_digests) and args.workload is None:
        parser.error("--workload is required")
    try:
        spec = json.loads(SPEC_PATH.read_text())
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload is not None and args.workload not in {
                workload["name"] for workload in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload}")
        binary = build()
        if args.all:
            return 0 if run_all(binary, spec, seconds) else 1
        if args.selfcheck:
            return 0 if selfcheck(binary, spec) else 1
        if args.record_digests:
            record_digests(binary, spec)
            return 0
        seed = args.seed % 2**64 if args.seed is not None else None
        line = result_line(binary, spec, args.workload, seed, seconds, args.trace)
        print(json.dumps(line), flush=True)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"error: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
