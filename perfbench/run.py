#!/usr/bin/env python3
"""Benchmark of the papd simulator: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 10 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset.  With --trace 0 the workload's set-up is
repeated in fresh processes and one more process measures the end-to-end
metrics; with --trace 1 one process runs the workload untraced and then
traced, and reports the per-layer metrics.  The last line of standard
output is the result object; progress and the simulated-output digests go
to standard error.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_figures", "fleet_diurnal", "cluster_hold")
# A --trace 0 invocation measures at least this many runs of the workload,
# each in a fresh process (so every run pays its own first-touch page
# faults), until --seconds are used.  Each end-to-end metric in
# RUN_METRICS is the median over the runs' own figures: one that a run
# produced.
MIN_RUNS = 5
RUN_METRICS = ("core_ticks_per_s", "step_ms_p50", "step_ms_p90", "peak_rss_mb")
# Set-up-only processes after each measuring process.  setup_s is the
# median over every set-up of the invocation, the measuring processes' own
# included; paper_figures and fleet_diurnal set-ups are long enough
# without extra ones.
EXTRA_SETUPS = {"paper_figures": 0, "fleet_diurnal": 0, "cluster_hold": 2}
# Per-layer metrics each workload's traced run measures.  The others are
# reported as 0: that layer does no work in that workload.
MEASURED_LAYERS = {
    "paper_figures": {
        "cpusim.tick_ns_per_core_tick", "specsim.process_ns_per_core_tick",
        "specsim.websearch_ns_per_core_tick", "specsim.busy_pct", "specsim.arrivals",
        "specsim.completed", "msr.sample_us", "policy.daemon_step_us",
        "policy.redistribute_us_p50", "policy.pstate_writes", "experiments.standalone_ms",
        "obs.trace_overhead_pct", "obs.events_per_sim_s", "bench.unattributed_pct",
        "bench.trace_overhead_pct"},
    "fleet_diurnal": {
        "cpusim.tick_ns_per_core_tick", "specsim.websearch_ns_per_core_tick",
        "specsim.busy_pct", "specsim.arrivals", "specsim.completed", "msr.sample_us",
        "policy.daemon_step_us", "policy.redistribute_us_p50", "policy.pstate_writes",
        "cluster.leaf_period_ms", "cluster.arbitrate_us", "cluster.arbitrate_ns_per_node",
        "cluster.fleet_collect_ms", "cluster.live_leaves", "cluster.slo_violation_pct",
        "bench.unattributed_pct", "bench.trace_overhead_pct"},
    "cluster_hold": {
        "cluster.leaf_period_ms", "cpusim.c0_pct", "policy.pstate_writes",
        "cluster.arbitrate_us", "cluster.arbitrate_ns_per_node", "cluster.live_leaves",
        "cluster.replica_hit_rate", "cluster.daemon_steps_skipped_pct", "cluster.hold_resyncs",
        "bench.unattributed_pct", "bench.trace_overhead_pct"},
}
DEADLINE_S = 170.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def build(build_dir, deadline):
    """Configures (once) and builds the benchmark binary; returns the binary's path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, deadline)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", build_dir, "--target", "papd_perfbench", "-j", jobs],
                deadline)
    return os.path.join(build_dir, "papd_perfbench")


def run_checked(cmd, deadline):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def run_phase(binary, args, phase, deadline):
    cmd = [binary, "--workload", args.workload, "--phase", phase, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--quick"] if args.quick else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no report from: {' '.join(cmd)}")
    return json.loads(lines[-1])


def percentile(values, p):
    """Linear-interpolated percentile, p in [0, 100], as papd::Percentile."""
    v = sorted(values)
    rank = p / 100.0 * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def measure(binary, args, deadline):
    """Runs the measuring and set-up processes; returns the merged report."""
    runs, setups = [], []
    measured = 0.0
    min_runs = 2 if args.quick else MIN_RUNS
    while len(runs) < min_runs or measured < args.seconds:
        t0 = time.monotonic()
        runs.append(run_phase(binary, args, "measure", deadline))
        measured += time.monotonic() - t0
        setups += [run_phase(binary, args, "setup", deadline)
                   for _ in range(EXTRA_SETUPS[args.workload])]
    first = runs[0]
    merged = {
        "digest": first["digest"],
        "setup_digest": first["setup_digest"],
        "digests_agree": all(r["digests_agree"] and r["digest"] == first["digest"]
                             for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": sorted({e for r in runs for e in r["errors"]}),
        "metrics": {},
    }
    if len({r["setup_digest"] for r in runs + setups}) != 1:
        merged["errors"].append("set-up digests differ between processes")
    m = merged["metrics"]
    for name in RUN_METRICS:
        values = [r["metrics"].get(name) for r in runs]
        if all(valid(v) for v in values):  # Otherwise reported as missing.
            m[name] = statistics.median(values)
            # The range, for standard error.
            m[f"raw.min_{name}"] = min(values)
            m[f"raw.max_{name}"] = max(values)
    m["setup_s"] = statistics.median(s for r in runs + setups for s in r["setup_s"])
    # Every step at its fastest run: a figure no single run reached, kept
    # only as a diagnostic.
    fastest = [min(steps) for steps in zip(*(r["step_ms"] for r in runs))]
    m["raw.fastest_steps_ms_p50"] = percentile(fastest, 50.0)
    m["raw.fastest_steps_ms_p90"] = percentile(fastest, 90.0)
    m["raw.runs"] = len(runs)
    return merged


def valid(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def main():
    start = time.monotonic()
    deadline = start + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="tiny configurations, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no program sources next to perfbench/; nothing to build")
    build_dir = os.path.join(os.getcwd(), os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir, deadline)

    errors = []
    if args.trace == 0:
        wanted = spec["end_to_end"]
        main_report = measure(binary, args, deadline)
    else:
        wanted = spec["per_layer"]
        main_report = run_phase(binary, args, "trace", deadline)
        for m in wanted:
            if m["name"] not in MEASURED_LAYERS[args.workload]:
                main_report["metrics"].setdefault(m["name"], 0.0)
    errors += main_report["errors"]
    if main_report["attempted"] < 1:
        errors.append("the workload attempted no operation")
    if not main_report["digests_agree"]:
        errors.append("simulated-output digests differ between runs of this invocation")

    metrics = {}
    for m in wanted:
        value = main_report["metrics"].get(m["name"])
        if not valid(value):
            errors.append(f"metric {m['name']} missing or not finite")
            continue
        if args.trace == 0 and value <= 0:
            errors.append(f"metric {m['name']} is {value}, expected > 0")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for name, value in sorted(main_report["metrics"].items()):
        log(f"  {name} = {value}")
    log(f"digest {main_report['digest']} setup_digest {main_report['setup_digest']} "
        f"({time.monotonic() - start:.1f} s)")
    for e in errors:
        log(f"ERROR: {e}")

    print(json.dumps({
        "correct": not errors,
        "attempted": max(1, int(main_report["attempted"])),  # >= 1 by contract; 0 is an error above
        "failed": int(main_report["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
