"""The supervised worker pool (repro.pool) behind every fan-out.

``analyze_iter``/``analyze_many`` and ``run_sweep`` map their batches over
the same supervised pool as the analysis server: a worker that dies or hangs
costs its task a retry, never the batch.  Every batch here runs in a helper
thread that is joined with a timeout, so a regression into a hang fails the
test instead of stalling the suite.
"""

import io
import json
import os
import signal
import threading
import time

import pytest

from repro import pool as pool_module
from repro.api import AnalysisRequest, AnalysisService, Project
from repro.api.service import RequestError
from repro.obs import logs as obs_logs
from repro.pool import SupervisedPool, WorkerCrashed, resolve_jobs
from repro.testing import faults, run_sweep
from repro.testing.fuzz import report_identity
from repro.testing.oracle import OracleConfig
from repro.wcet.analyzer import AnalysisOptions


@pytest.fixture(autouse=True)
def disarm():
    faults.clear()
    yield
    faults.clear()


def _children():
    """``{pid: state}`` of this process's live (non-zombie) children."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == os.getpid() and fields[0] != "Z":
            children[int(entry)] = fields[0]
    return children


def _within(seconds, function):
    """Run ``function()`` in a thread; fail if it is still running after
    ``seconds``.  Returns its value or raises its exception."""
    box = {}

    def target():
        try:
            box["value"] = function()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds}s: a hang"
    if "error" in box:
        raise box["error"]
    return box["value"]


class _Killer(threading.Thread):
    """SIGKILLs one worker of a batch while it runs a task.

    Waits for the first new child, gives it ``settle`` seconds to get past
    its setup, then kills a child it sees running (state ``R``).
    """

    def __init__(self, settle):
        super().__init__(daemon=True)
        self.before = set(_children())
        self.settle = settle
        self.killed = None
        self._halt = threading.Event()

    def run(self):
        first_seen = None
        while not self._halt.is_set() and self.killed is None:
            fresh = {
                pid: state
                for pid, state in _children().items()
                if pid not in self.before
            }
            if fresh and first_seen is None:
                first_seen = time.monotonic()
            settled = (
                first_seen is not None
                and time.monotonic() - first_seen >= self.settle
            )
            if settled:
                for pid, state in fresh.items():
                    if state != "R":
                        continue
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        continue  # it exited since the scan
                    self.killed = pid
                    break
            time.sleep(0.002)

    def stop(self):
        self._halt.set()
        self.join(5)


@pytest.fixture()
def spawns():
    """Counts the pool's ``worker_spawn`` log events during a test."""
    previous = obs_logs.get().stream
    stream = io.StringIO()
    obs_logs.configure(stream)
    yield lambda: sum(
        json.loads(line)["event"] == "worker_spawn"
        for line in stream.getvalue().splitlines()
    )
    obs_logs.configure(previous)


def _sweep_identity(sweep):
    return [
        (r.case_name, r.wcet_cycles, r.bcet_cycles, r.ok, len(r.runs))
        for r in sweep.results
    ]


# Each context cap is its own summary-cache key, so no request is a warm
# replay of another and the batch lasts long enough to kill a worker in.
FLIGHT_REQUESTS = [
    AnalysisRequest(
        all_modes=True,
        options=AnalysisOptions(max_contexts_per_function=cap),
        label=f"cap{cap}",
    )
    for cap in range(1, 41)
]
SWEEP_SEEDS = list(range(1, 21))
SWEEP_CONFIG = OracleConfig(max_input_vectors=2)


@pytest.fixture(scope="module")
def service():
    return AnalysisService(Project.from_workload("flight-control", cache="off"))


@pytest.fixture(scope="module")
def serial_results(service):
    return [report_identity(r) for r in service.analyze_many(FLIGHT_REQUESTS, jobs=1)]


@pytest.fixture(scope="module")
def serial_sweep():
    return _sweep_identity(run_sweep(SWEEP_SEEDS, SWEEP_CONFIG, jobs=1))


# --------------------------------------------------------------------------- #
class TestResolveJobs:
    def test_serial_and_explicit(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3

    def test_zero_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(pool_module.os, "sched_getaffinity", lambda pid: {0})
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-1) == 1
        monkeypatch.setattr(
            pool_module.os, "sched_getaffinity", lambda pid: {0, 2, 5}
        )
        assert resolve_jobs(0) == 3


# --------------------------------------------------------------------------- #
def _square(task):
    return task * task


def _raise_and_count(path):
    with open(path, "a") as handle:
        handle.write("call\n")
    raise ValueError(f"deterministic failure for {os.path.basename(path)}")


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


class TestSupervisedPool:
    def test_run_returns_the_function_value(self):
        pool = SupervisedPool(lambda: _square, 2)
        try:
            assert pool.run(7) == 49
            assert len(pool.pids()) == 1
        finally:
            pool.close()
        assert pool.pids() == []

    def test_task_error_is_reraised_once_without_retry(self, tmp_path):
        path = str(tmp_path / "calls")
        faulted = []
        pool = SupervisedPool(lambda: _raise_and_count, 2)
        try:
            with pytest.raises(ValueError, match="deterministic failure"):
                pool.run(path, on_fault=lambda *args: faulted.append(args))
        finally:
            pool.close()
        with open(path) as handle:
            assert handle.read() == "call\n"
        assert faulted == []

    def test_imap_unordered_yields_every_index(self):
        pool = SupervisedPool(lambda: _square, 2)
        got = _within(60, lambda: dict(pool.imap_unordered(range(10))))
        assert got == {index: index * index for index in range(10)}
        assert pool.pids() == []

    def test_leaving_imap_early_leaves_no_live_child(self):
        before = set(_children())

        def leave_early():
            pool = SupervisedPool(lambda: _sleep, 2)
            stream = pool.imap_unordered([0.0, 30.0, 30.0])
            first = next(stream)
            stream.close()
            return first

        assert _within(30, leave_early) == (0, 0.0)
        assert set(_children()) - before == set()

    def test_closed_pool_refuses_work(self):
        pool = SupervisedPool(lambda: _square, 1)
        pool.close()
        with pytest.raises(WorkerCrashed, match="closed"):
            pool.run(2)

    def test_deadline_kills_and_raises_typed_timeout(self):
        faulted = []
        pool = SupervisedPool(lambda: _sleep, 1, timeout_retries=0)
        started = time.monotonic()
        try:
            with pytest.raises(pool_module.JobTimeout, match=r"after 1 attempt\(s\)"):
                pool.run(30.0, timeout=0.5, on_fault=lambda *a: faulted.append(a))
        finally:
            pool.close()
        assert time.monotonic() - started < 10
        assert [(type(f).__name__, n, r) for f, n, r in faulted] == [
            ("JobTimeout", 0, False)
        ]


# --------------------------------------------------------------------------- #
# No job lost: analyze_iter / analyze_many
# --------------------------------------------------------------------------- #
class TestAnalyzeIterUnderFaults:
    def test_sigkill_mid_batch_still_returns_every_result(
        self, service, serial_results
    ):
        killer = _Killer(settle=0.05)
        killer.start()
        try:
            results = _within(
                120, lambda: service.analyze_many(FLIGHT_REQUESTS, jobs=2)
            )
        finally:
            killer.stop()
        assert killer.killed, "no worker was killed"
        assert [report_identity(r) for r in results] == serial_results

    def test_kill_every_first_attempt_matches_serial(
        self, service, serial_results, spawns
    ):
        requests = FLIGHT_REQUESTS[:10]
        faults.install(faults.FaultPlan(seed=11, kill_rate=1.0))
        results = _within(120, lambda: service.analyze_many(requests, jobs=2))
        assert [report_identity(r) for r in results] == serial_results[:10]
        # Every request killed its first worker: one respawn per request.
        assert spawns() >= len(requests)

    def test_kill_every_attempt_raises_worker_crashed(self, service):
        before = set(_children())
        faults.install(
            faults.FaultPlan(seed=11, kill_rate=1.0, first_attempt_only=False)
        )
        started = time.monotonic()
        with pytest.raises(WorkerCrashed, match=r"after 3 attempt\(s\)"):
            _within(30, lambda: service.analyze_many(FLIGHT_REQUESTS, jobs=2))
        assert time.monotonic() - started < 30
        assert set(_children()) - before == set()

    def test_request_error_is_raised_as_serially_and_not_retried(self, service):
        bad = AnalysisRequest(all_modes=True, mode="air")
        requests = [AnalysisRequest(), bad, AnalysisRequest(mode="air")]
        with pytest.raises(RequestError) as serial:
            service.analyze_many(requests, jobs=1)
        with pytest.raises(RequestError) as pooled:
            _within(60, lambda: service.analyze_many(requests, jobs=2))
        assert str(pooled.value) == str(serial.value)

    def test_leaving_analyze_iter_early_leaves_no_live_child(self, service):
        before = set(_children())

        def leave_early():
            stream = service.analyze_iter(FLIGHT_REQUESTS, jobs=2)
            index, _result = next(stream)
            stream.close()
            return index

        _within(60, leave_early)
        assert set(_children()) - before == set()


# --------------------------------------------------------------------------- #
# No job lost: run_sweep
# --------------------------------------------------------------------------- #
class TestRunSweepUnderFaults:
    def test_sigkill_mid_sweep_still_returns_every_result(self, serial_sweep):
        killer = _Killer(settle=0.1)
        killer.start()
        try:
            sweep = _within(
                120, lambda: run_sweep(SWEEP_SEEDS, SWEEP_CONFIG, jobs=2)
            )
        finally:
            killer.stop()
        assert killer.killed, "no worker was killed"
        assert _sweep_identity(sweep) == serial_sweep

    def test_kill_every_first_attempt_matches_serial(self, serial_sweep, spawns):
        seeds = SWEEP_SEEDS[:10]
        faults.install(faults.FaultPlan(seed=5, kill_rate=1.0))
        sweep = _within(120, lambda: run_sweep(seeds, SWEEP_CONFIG, jobs=2))
        assert _sweep_identity(sweep) == serial_sweep[:10]
        assert spawns() >= len(seeds)

    def test_kill_every_attempt_raises_worker_crashed(self):
        before = set(_children())
        faults.install(
            faults.FaultPlan(seed=5, kill_rate=1.0, first_attempt_only=False)
        )
        started = time.monotonic()
        with pytest.raises(WorkerCrashed, match=r"after 3 attempt\(s\)"):
            _within(30, lambda: run_sweep(SWEEP_SEEDS, SWEEP_CONFIG, jobs=2))
        assert time.monotonic() - started < 30
        assert set(_children()) - before == set()
