"""Tests of the benchmark itself (not collected by the repository's test run).

Run with::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests/check_perfbench.py
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.wcet.ipet import IPETBuilder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
IN_PROCESS = ("paper-cold", "paper-warm", "fleet")


def run_bench(workload: str, seed: int, seconds: float, trace: int = 0):
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = completed.stdout.strip().splitlines()
    assert lines, completed.stderr
    return completed.returncode, lines, json.loads(lines[-1])


def counters_line(lines):
    (line,) = [line for line in lines if line.strip().startswith("counters ")]
    return json.loads(line.strip()[len("counters "):])


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_exact_counters_repeat_at_one_seed(workload):
    first = counters_line(run_bench(workload, 3, 1)[1])
    second = counters_line(run_bench(workload, 3, 1)[1])
    assert first["analysis.fixpoint_iterations"] > 0
    assert first == second


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_traced_counts_repeat_and_cover_every_layer_metric(workload):
    runs = [run_bench(workload, 3, 1, trace=1) for _ in range(2)]
    for code, _, result in runs:
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {entry["name"] for entry in SPEC["per_layer"]}
    first, second = (
        {name: runs[i][2]["metrics"][name]["value"] for name in layers.COUNT_METRICS}
        for i in range(2)
    )
    assert first == second


@pytest.mark.parametrize("workload", ("paper-cold", "paper-warm", "fleet", "serve"))
def test_second_seed_passes_every_check(workload):
    code, lines, result = run_bench(workload, 7, 2)
    assert code == 0, "\n".join(lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {entry["name"] for entry in SPEC["end_to_end"]}
    assert any("seed=7" in line for line in lines)


def test_decoded_blocks_count_once_per_all_modes_result():
    request = workloads.PaperRequest("flight-control", "simple", all_modes=True)
    project = request.spec().to_project(cache="off")
    result = workloads.AnalysisService(project).analyze(request.request())
    assert len(result.reports) > 1
    all_modes, single = {}, {}
    layers.report_counts(result.reports.values(), all_modes)
    layers.report_counts([result.reports[None]], single)
    assert all_modes["cfg.blocks"] == single["cfg.blocks"] > 0


def test_full_speed_slices_leave_out_slow_spells():
    # The second slice of ten ops ran while the host was slow.
    latencies = [0.1] * 10 + [0.19] * 10 + [0.11] * 10 + [0.1] * 10
    outcome = workloads.Outcome(latencies=latencies, ends=list(itertools.accumulate(latencies)))
    outcome.cut(10)
    assert [piece.seconds for piece in outcome.slices] == pytest.approx([1.0, 1.9, 1.1, 1.0])
    throughput, p50, used = outcome.at_full_speed(1.2)
    assert used == 3
    assert throughput == pytest.approx(30 / 3.1)
    assert p50 == pytest.approx(0.1)


def test_full_speed_falls_back_to_the_fastest_quarter():
    seconds = [2.0, 2.1, 1.0, 2.2, 1.5, 2.3, 2.4, 2.5]
    outcome = workloads.Outcome(latencies=list(seconds))
    outcome.slices = [workloads.Slice(i, 1, value) for i, value in enumerate(seconds)]
    assert [piece.first for piece in outcome.fast_slices(1.2)] == [2, 4]


def test_fleet_rounds_deal_every_program_once_before_repeating():
    pool = workloads.load_pool()
    slots = workloads.fleet_slots()
    stream = workloads.rounds(pool, slots, random.Random(5))
    size = min(len(seeds) for seeds in pool.values())
    dealt = [next(stream) for _ in range(size * len(slots))]
    assert [(preset, processor) for _, preset, processor in dealt[:len(slots)]] == slots
    assert len({(seed, preset.name, processor) for seed, preset, processor in dealt}) == len(dealt)


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


# --------------------------------------------------------------------------- #
# An injected slowdown is charged to its layer
# --------------------------------------------------------------------------- #
DELAY = 0.001


@pytest.fixture
def slowed_solve_pair(monkeypatch):
    """Busy-wait DELAY seconds in every IPETBuilder.solve_pair call."""
    original = IPETBuilder.solve_pair
    calls = [0]

    def slowed(self, *args, **kwargs):
        calls[0] += 1
        until = time.perf_counter() + DELAY
        while time.perf_counter() < until:
            pass
        return original(self, *args, **kwargs)

    def install(on: bool) -> None:
        monkeypatch.setattr(IPETBuilder, "solve_pair", slowed if on else original)

    install.calls = calls
    return install


def best_throughputs(workload, items, install):
    """Ops per second over a fixed list, best of five, plain and slowed;
    the two kinds of pass alternate so drift hits both alike."""
    best = {False: 0.0, True: 0.0}
    for _ in range(5):
        for slow in (False, True):
            install(slow)
            started = time.perf_counter()
            outcome = workload.run_items(items, traced=False)
            best[slow] = max(best[slow], len(items) / (time.perf_counter() - started))
            assert not outcome.failures
    install(False)
    return best[False], best[True]


def traced_metrics(workload, items):
    with layers.TracedPass() as traced_pass:
        workload.run_items(items, traced=True)
    latencies, exclusive, inclusive = layers.attribute(traced_pass.spans)
    return layers.layer_metrics(latencies, exclusive, inclusive, traced_pass.counts, 0.0)


def test_injected_slowdown_lands_on_its_layer(slowed_solve_pair, tmp_path):
    cold = workloads.PaperCold(1, str(tmp_path / "cold"))
    cold.setup()
    items = cold.fixed_items()

    # Plain, slowed, slowed, plain: drift between passes cancels.
    cold.run_items(items, traced=False)
    runs = {False: [], True: []}
    for slow in (False, True, True, False):
        slowed_solve_pair(slow)
        runs[slow].append(traced_metrics(cold, items))
    slowed_solve_pair(False)
    expected = slowed_solve_pair.calls[0] * DELAY * 1e3 / (2 * len(items))
    assert expected > 0.3

    def moved(name):
        return sum(run[name] for run in runs[True]) / 2 - sum(run[name] for run in runs[False]) / 2

    assert moved("wcet.path_ms") > 0.7 * expected, (moved("wcet.path_ms"), expected)
    for name in ("cfg.decode_ms", "cache.store_read_ms", "cache.replay_ms", "cache.store_flush_ms"):
        assert abs(moved(name)) < 0.1 * expected, name

    cold_plain, cold_slowed = best_throughputs(cold, items, slowed_solve_pair)
    warm = workloads.PaperWarm(1, str(tmp_path / "warm"))
    warm.setup()
    warm_items = warm.fixed_items()[: 5 * len(items)]
    warm_plain, warm_slowed = best_throughputs(warm, warm_items, slowed_solve_pair)
    cold_drop = 1 - cold_slowed / cold_plain
    warm_drop = 1 - warm_slowed / warm_plain
    assert cold_drop > 0.15, (cold_plain, cold_slowed)
    # paper-warm still solves the ILPs of recursion-cycle members (they are
    # never cached): 4 calls per 96 ops against paper-cold's 168.
    assert warm_drop < 0.5 * cold_drop, (warm_plain, warm_slowed, cold_drop)
