#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the repro WCET analyzer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
runs a separate traced pass and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report.  The exit code is 0 only when every op's output
matched its reference.  See perfbench/README.md for the workloads, the
metric definitions and the layer table.

Each measurement runs in a child process started by this one, so that
``setup_s`` covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")

WORKLOADS = ("paper-cold", "paper-warm", "fleet", "serve")
LOOPS = {
    "paper-cold": "closed loop, 1 thread",
    "paper-warm": "closed loop, 1 thread",
    "fleet": "closed loop, 1 thread",
    "serve": "closed loop, 2 client threads against serve --jobs 2",
}
END_TO_END_UNITS = {
    "throughput_ops": "ops/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Set-ups per run: one before the measured child, its own, one after it.
#: setup_s is the fastest: the host slows for seconds to minutes at a time.
SETUP_SAMPLES = 3
#: Work counters that repeat exactly between runs at one seed (in-process
#: workloads) and are printed with every untraced run.
EXACT_COUNTERS = (
    "analysis.blocks_interpreted", "analysis.fixpoint_iterations",
    "analysis.fixpoint_joins", "analysis.fixpoint_widens",
    "analysis.kernel_compiles", "cache.file_reads", "cache.file_writes",
    "cache.puts", "cache.tier1_hits", "cache.tier1_misses", "cache.tier2_hits",
    "cache.tier2_misses", "cfg.blocks", "ir.steps", "wcet.ilp_nodes",
    "wcet.simplex_pivots", "server.dedup_joins", "server.rejections",
    "server.retries", "server.worker_restarts",
)
#: A run must end within 180 s; children get what is left of that budget.
RUN_BUDGET = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--role", choices=("main", "setup", "measure", "trace"), default="main",
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# Parent: spawn the measuring children and report
# --------------------------------------------------------------------------- #
def run_child(role: str, args, workdir: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    child_dir = tempfile.mkdtemp(prefix=f"{role}-", dir=workdir)
    argv = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--role", role, "--workdir", child_dir,
    ]
    spawned_at = time.monotonic()
    argv += ["--spawned-at", repr(spawned_at)]
    # Its own process group: a child that overruns is killed together with
    # the server and workers it started.
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{role} child exceeded the run's time budget") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.decode(errors="replace").strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{role} child exited with code {process.returncode}")
    return json.loads(lines[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_end_to_end(args, measured, setups) -> dict:
    metrics = {name: measured[name] for name in END_TO_END_UNITS}
    metrics["setup_s"] = min(setups)
    print(f"perfbench {args.workload} seed={args.seed} seconds={_fmt(args.seconds)} "
          f"({LOOPS[args.workload]})")
    attempted, failed = measured["attempted"], measured["failed"]
    print(f"  ops {attempted} failed {failed} error_rate {_fmt(failed / max(attempted, 1))}"
          f" over {_fmt(measured['wall'])} s")
    print(f"  whole run {_fmt(measured['run_throughput_ops'])} ops/s, p50 "
          f"{_fmt(measured['run_latency_p50_ms'])} ms; throughput_ops and latency_p50_ms "
          f"over the {measured['fast_slices']} of {measured['slices']} slices run at full speed")
    print("  setup_s samples " + ", ".join(_fmt(value) for value in setups))
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<16} {_fmt(metrics[name]):>12} {unit}")
    tail = measured["p99_above"]
    print(f"  latency_p99_ms   {_fmt(measured['latency_p99_ms']):>12} ms "
          f"({tail} ops above it{'' if tail >= 10 else '; fewer than 10, indicative only'})")
    for message in measured["failures"]:
        print(f"  FAILED: {message}")
    counters = {name: value for name, value in measured["counts"].items()
                if name in EXACT_COUNTERS}
    print("  counters " + json.dumps(counters, sort_keys=True))
    return metrics


def report_layers(args, traced) -> dict:
    metrics = traced["metrics"]
    print(f"perfbench {args.workload} seed={args.seed} traced pass "
          f"({LOOPS[args.workload]}; {traced['attempted']} ops)")
    print(f"  op time {_fmt(metrics['obs.op_ms'])} ms/op traced, trace overhead "
          f"{_fmt(100 * metrics['obs.trace_overhead'])}%, unattributed "
          f"{_fmt(metrics['obs.unattributed_ms'])} ms/op")
    print(f"  {'layer':<9} {'self ms/op':>12} {'share':>8}  metrics")
    for layer in traced["layers"]:
        members = [name for name in metrics if name.startswith(layer + ".")
                   and not name.endswith((".self_ms", ".share"))]
        detail = ", ".join(f"{name.split('.', 1)[1]}={_fmt(metrics[name])}" for name in members)
        print(f"  {layer:<9} {_fmt(metrics[layer + '.self_ms']):>12} "
              f"{100 * metrics[layer + '.share']:>7.2f}%  {detail}")
    for message in traced["failures"]:
        print(f"  FAILED: {message}")
    return metrics


def main(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        if args.trace:
            traced = run_child("trace", args, workdir, deadline)
            metrics = report_layers(args, traced)
            units = traced["units"]
            attempted, failed = traced["attempted"], traced["failed"]
        else:
            setups = [run_child("setup", args, workdir, deadline)["setup_s"]]
            measured = run_child("measure", args, workdir, deadline)
            setups.append(measured["setup_s"])
            while len(setups) < SETUP_SAMPLES:
                setups.append(run_child("setup", args, workdir, deadline)["setup_s"])
            metrics = report_end_to_end(args, measured, setups)
            units = END_TO_END_UNITS
            attempted, failed = measured["attempted"], measured["failed"]
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no other run is using it
        except OSError:
            pass
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


# --------------------------------------------------------------------------- #
# Child: one set-up, measured run or traced run
# --------------------------------------------------------------------------- #
def child(args) -> dict:
    import workloads

    workload = workloads.create(args.workload, args.seed, args.workdir, args.seconds)
    try:
        if args.role == "trace":
            return workloads.traced_run(workload)
        workload.setup()
        setup_s = time.monotonic() - args.spawned_at
        if args.role == "setup":
            return {"setup_s": setup_s}
        outcome = workload.measure(args.seconds)
        latencies_ms = [1e3 * seconds for seconds in outcome.latencies]
        p99 = workloads.percentile(latencies_ms, 0.99)
        throughput, p50, fast = outcome.at_full_speed(workload.fast_margin)
        return {
            "setup_s": setup_s,
            "attempted": outcome.attempted,
            "failed": len(outcome.failures),
            "failures": outcome.failures[:20],
            "wall": outcome.wall,
            "throughput_ops": throughput,
            "latency_p50_ms": 1e3 * p50,
            "run_throughput_ops": outcome.attempted / outcome.wall,
            "run_latency_p50_ms": statistics.median(latencies_ms),
            "slices": len(outcome.slices),
            "fast_slices": fast,
            "latency_p99_ms": p99,
            "p99_above": sum(1 for value in latencies_ms if value > p99),
            "peak_rss_mb": workload.peak_rss_mb(),
            "counts": outcome.counts,
        }
    finally:
        workload.teardown()


if __name__ == "__main__":
    arguments = parse_args(sys.argv[1:])
    if arguments.role == "main":
        sys.exit(main(arguments))
    print(json.dumps(child(arguments)))
