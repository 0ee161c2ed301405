#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `perfbench` binary (a
package of its own in this directory), runs it with every environment
knob the simulator reads set here, so the caller's environment cannot
change a workload, and prints one line per metric followed by a final
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off; `--trace 1` reports the per-layer metrics from one
traced serial pass. Both check the correctness gate (see `gate`) and
exit 1 when it fails. The run record (knobs, machine, digests) and the
traced run's spans are written under `perfbench/out/`.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Workload name -> MOON_QUICK. The grids themselves live in
# src/workload.rs; this table only sets the environment they need.
WORKLOADS = {"paper-sweep": False, "fleet-stream": True, "churn-stream": True}

# The sweep pool: two workers, or fewer on a smaller machine.
POOL_WIDTH = max(1, min(2, len(os.sched_getaffinity(0))))

# Cells whose outcome is a contained failure rather than a simulated one.
FAILED_OUTCOMES = {"event-limit", "deadline", "crashed"}

CHILD_TIMEOUT_S = 170

# `Experiment` prints one of these per run when MOON_PERF_LOG is set.
PERF_LINE = re.compile(r"^MOON_PERF (\S+) w=.* p=(\S+) seed=(\d+): (\d+) events in ([0-9.]+)s ")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def binary_path():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def build():
    """Build the benchmark binary from source; cargo's output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return binary_path()


def child_env(workload):
    """The caller's environment minus every knob the simulator reads,
    then those knobs set for this workload."""
    env = {k: v for k, v in os.environ.items()
           if not (k.startswith("MOON_") or k.startswith("RAYON_"))}
    env.update({
        "MOON_QUICK": "1" if WORKLOADS[workload] else "0",
        "MOON_SEEDS": "1",
        "MOON_THREADS": str(POOL_WIDTH),
        "RAYON_NUM_THREADS": str(POOL_WIDTH),
        # Each pool cell prints its own host time; the cell metrics
        # are read from those lines.
        "MOON_PERF_LOG": "1",
    })
    return env


def measure(binary, workload, seed, seconds, trace, spans_out=None):
    """Run the binary once; return its raw document and the host
    seconds of every pool cell, one list per timed sweep."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(cmd, env=child_env(workload), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: measuring {workload} failed ({proc.returncode})")
    return json.loads(proc.stdout), sweep_cell_walls(proc.stderr)


def sweep_cell_walls(stderr):
    """Per-sweep lists of `[label, p, seed, events, host_s]`, one per
    pool cell, from the MOON_PERF lines between the binary's sweep
    markers (expansion's calibration runs print outside them)."""
    sweeps, current = [], None
    for line in stderr.splitlines():
        if line == "PERFBENCH sweep-begin":
            current = []
        elif line == "PERFBENCH sweep-end":
            sweeps.append(current)
            current = None
        elif current is not None:
            m = PERF_LINE.match(line)
            if m:
                label, p, seed, events, wall = m.groups()
                current.append([label, float(p), int(seed), int(events), float(wall)])
    return sweeps


def cell_host_s(doc, sweep):
    """Host seconds of every cell in grid order, matching each MOON_PERF
    line to its cell by label, rate, seed and event count. Raises
    KeyError or IndexError when a cell has no line."""
    lines = {}
    for label, p, seed, events, wall in sweep:
        lines.setdefault((label, float(p), int(seed), int(events)), []).append(wall)
    times = [lines[(c["label"], float(c["p"]), c["seed"], c["events"])].pop()
             for c in doc["cells"]]
    if any(lines.values()):
        raise IndexError("MOON_PERF lines left over")
    return times


def gate(doc, sweeps):
    """Reasons the run's outputs are wrong; empty when they pass."""
    reasons = []
    for k, c in enumerate(doc["cells"]):
        where = f"cell {k} ({c['label']} p={c['p']} seed={c['seed']})"
        if c["outcome"] in FAILED_OUTCOMES:
            reasons.append(f"{where} ended {c['outcome']}")
        if c["audit"]:
            reasons.append(f"{where} failed its audit: {c['audit'][0]}")
        expected = c["jobs_expected"]
        if expected is not None and c["outcome"] == "completed" \
                and c["jobs_committed"] != expected:
            reasons.append(f"{where}: {expected - c['jobs_committed']} stream jobs "
                           "neither committed nor counted as a DNF")
    digests = {r["digest"] for r in doc["reps"]}
    if len(digests) != 1:
        reasons.append(f"repeated pool sweeps disagree: digests {sorted(digests)}")
    traced = doc.get("traced")
    if traced and traced["digest"] != doc["reps"][0]["digest"]:
        reasons.append(f"traced serial digest {traced['digest']} != "
                       f"pool digest {doc['reps'][0]['digest']}")
    try:
        if len(sweeps) != len(doc["reps"]):
            raise IndexError
        for sweep in sweeps:
            cell_host_s(doc, sweep)
    except (KeyError, IndexError):
        reasons.append("cell host times do not match the cells: expected one "
                       "MOON_PERF line per cell in every sweep")
    return reasons


def counted_failures(doc):
    return sum(1 for c in doc["cells"] if c["outcome"] in FAILED_OUTCOMES or c["audit"])


def sim_hours(doc):
    return [c["sim_end_s"] / 3600.0 for c in doc["cells"]]


def end_to_end(doc, sweeps):
    """The declared end-to-end metrics. A sweep's cell host time is
    divided by the simulated hours its cells covered: a seed's inputs
    decide how long each simulated run lasts, so raw host time swings
    with the seed while host time per simulated hour tracks the
    simulator's speed. The ratio is of the sweep's totals, not a mean of
    per-cell ratios: a short cell's ratio is mostly its fixed build and
    init cost over a seed-dependent simulated length, and weighing it
    like a long one moved the figure by 20 % from seed to seed on
    paper-sweep, against 5 % for the totals (see README.md)."""
    hours = sum(sim_hours(doc))
    return {
        "setup_s": (statistics.median(doc["setup_samples_s"]), "s"),
        "cell_s_per_sim_h": (statistics.median(sum(cell_host_s(doc, s)) / hours for s in sweeps), "s/h"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def summary(doc, sweeps):
    """Outputs printed and recorded with every run but not declared as
    metrics: sweep wall times also carry the pool's straggler tail and
    swing more across runs than the bounds allow (see README.md), the
    simulated results swing with the seed's inputs (a speed-only change
    must leave them, and `sim_digest`, identical), and the failure ratio
    is 0 whenever the gate passes."""
    cells = doc["cells"]
    done = [c["job_time_s"] for c in cells if c["outcome"] == "completed"]
    out = {
        "fail_ratio": (counted_failures(doc) / len(cells), "ratio"),
        "sim_makespan_s_p50": (statistics.median(done) if done else None, "s"),
        "sim_dnf_ratio": (sum(c["outcome"] == "horizon" for c in cells) / len(cells), "ratio"),
        "sim_dup_tasks": (statistics.mean(c["dup_tasks"] for c in cells), "count"),
        "sim_hours": (sum(sim_hours(doc)), "h"),
        "cells": (len(cells), "count"),
    }
    try:
        walls = [cell_host_s(doc, s) for s in sweeps]
        wall_s = statistics.median(r["wall_s"] for r in doc["reps"])
        out.update({
            "wall_s": (wall_s, "s"),
            "wall_s_per_sim_h": (wall_s / sum(sim_hours(doc)), "s/h"),
            "cell_s_p50": (statistics.median(statistics.median(w) for w in walls), "s"),
            "cell_s_max": (statistics.median(max(w) for w in walls), "s"),
        })
    except (KeyError, IndexError):
        pass
    return out


def per_layer(doc, sweeps):
    t = doc["traced"]
    loop_s = t["loop_s"]
    busy = sum(cell_host_s(doc, sweeps[0]))
    sweep_s = doc["reps"][0]["sweep_s"]
    pool = doc["pool_width"]
    return {
        "scenarios.expand_s": (t["expand_s"], "s"),
        "scenarios.render_s": (t["render_s"], "s"),
        "moon.build_s": (t["build_s"], "s"),
        "moon.init_s": (t["init_s"], "s"),
        "moon.extract_s": (t["extract_s"], "s"),
        "moon.idle_steps": (t["idle_steps"], "count"),
        "moon.idle_steps_s": (t["idle_steps_s"], "s"),
        "moon.other_steps_s": (t["other_steps_s"], "s"),
        "moon.fetch_failures": (t["fetch_failures"], "count"),
        "moon.stale_fetches": (t["stale_fetches"], "count"),
        "simkit.events": (t["events"], "count"),
        "simkit.loop_s": (loop_s, "s"),
        "simkit.step_ns_p50": (t["step_ns_p50"], "ns"),
        "simkit.step_ns_p99": (t["step_ns_p99"], "ns"),
        "simkit.queue_peak": (t["queue_peak"], "count"),
        "simkit.events_per_s": (t["events"] / loop_s, "1/s"),
        "netsim.reshares": (t["reshares"], "count"),
        "netsim.flow_visits": (t["flow_visits"], "count"),
        "netsim.mean_component": (t["flow_visits"] / max(t["reshares"], 1), "flows"),
        "netsim.peak_flows": (t["peak_flows"], "flows"),
        "netsim.net_steps": (t["net_steps"], "count"),
        "netsim.net_steps_s": (t["net_steps_s"], "s"),
        "dfs.repl_steps": (t["repl_steps"], "count"),
        "dfs.repl_steps_s": (t["repl_steps_s"], "s"),
        "dfs.repl_queue_peak": (t["repl_queue_peak"], "count"),
        "dfs.place_us": (t["place_us"], "us"),
        "dfs.place_us_stock": (t["place_us_stock"], "us"),
        "mapred.killed_maps": (t["killed_maps"], "count"),
        "mapred.killed_reduces": (t["killed_reduces"], "count"),
        "mapred.map_relaunches": (t["map_relaunches"], "count"),
        "mapred.preempted": (t["preempted"], "count"),
        "mapred.useful_ratio": (t["completed_tasks"] / max(t["completed_tasks"] + t["duplicated_tasks"], 1), "ratio"),
        "mapred.idle_hb_ns": (t["idle_hb_ns"], "ns"),
        "bench.pool_busy_frac": (busy / (pool * sweep_s), "ratio"),
        "bench.straggler_s": (sweep_s - busy / pool, "s"),
        "trace_overhead_pct": ((t["loop_span_s"] / t["untraced_loop_s"] - 1.0) * 100.0, "%"),
    }


def first_line(cmd, env=None):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else "unknown"
    except OSError:
        return "unknown"


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    # Stop git at the repository root, so a checkout that is not a git
    # repository reports "unknown" instead of an enclosing one's commit.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": first_line(["rustc", "--version"]),
        "git_rev": first_line(["git", "-C", ROOT, "rev-parse", "HEAD"], git_env),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    doc, sweeps = measure(binary, args.workload, args.seed, args.seconds, args.trace,
                          spans_out=stem + "-spans.json" if args.trace else None)

    reasons = gate(doc, sweeps)
    try:
        metrics = per_layer(doc, sweeps) if args.trace else end_to_end(doc, sweeps)
    except (KeyError, IndexError, ValueError, ZeroDivisionError):
        metrics = {}
    shown = dict(metrics, **summary(doc, sweeps))
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value} {unit}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "sweep_seeds": doc["sweep_seeds"],
        "quick": doc["quick"],
        "pool_width": doc["pool_width"],
        "event_budget": doc["event_budget"],
        "sweeps": len(doc["reps"]),
        "cells": len(doc["cells"]),
        "sim_digest": doc["reps"][0]["digest"],
        "machine": machine(),
        "gate": reasons,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "raw": doc,
        "cell_walls": sweeps,
    }
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    print(f"{args.workload} sim_digest = {record['sim_digest']}")
    print("record: " + json.dumps({k: v for k, v in record.items() if k not in ("metrics", "raw")}))
    for r in reasons:
        log(f"GATE FAILED: {r}")
    print(json.dumps({
        "correct": not reasons,
        "attempted": len(doc["cells"]),
        "failed": counted_failures(doc),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not reasons else 1


if __name__ == "__main__":
    sys.exit(main())
