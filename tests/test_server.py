"""The analysis server: wire schema, scheduler, worker pool, HTTP, client.

The acceptance bar for everything here is *bit-identical results*: a job
served over HTTP must reproduce a direct :class:`AnalysisService` call field
for field (wall-clock phase timings excluded — they are measurements, not
results), including the pinned flight-control per-mode bounds.
"""

import errno
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest

from repro.api import (
    AnalysisRequest,
    AnalysisService,
    Project,
    SchemaError,
    from_json,
    to_json,
)
from repro.api import serialize
from repro.api.cli import main as cli_main
from repro.api.serialize import encode
from repro.api.service import AnalysisResult
from repro.server import (
    AnalysisServer,
    JobFailed,
    ProjectSpec,
    QueueFull,
    RemoteError,
    ResultNotReady,
    Scheduler,
    ServerClient,
    ServerError,
    ServerEvent,
    ServerJobStatus,
    ServerStats,
    ServerSubmit,
    ServerSubmitReply,
    WorkerPool,
    request_digest,
)
from repro.cache import store as store_module
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.server import http as server_http
from repro.server import queue as queue_module
from repro.server.client import ClientError, JobCancelled
from repro.server.wire import DEDUPED_HEADER, JOB_ID_HEADER
from repro.testing import faults as fault_injection
from repro.wcet.analyzer import AnalysisOptions

MINI_C = "int main(void) { int x = 3; return x + 4; }"


def result_identity(result):
    """Everything in a result's JSON except wall-clock measurements."""

    def strip(node):
        if isinstance(node, dict):
            return {
                key: strip(value)
                for key, value in node.items()
                if key not in ("phases", "seconds", "cache_stats")
            }
        if isinstance(node, list):
            return [strip(value) for value in node]
        return node

    return strip(to_json(result))


# --------------------------------------------------------------------------- #
# Wire messages: exact schema-1 round-trips
# --------------------------------------------------------------------------- #
class TestWireRoundTrips:
    MESSAGES = [
        ProjectSpec(workload="flight-control", processor="leon2", entry="main"),
        ProjectSpec(source=MINI_C, annotations="recursion f 4\n", name="t.c"),
        ProjectSpec(assembly=".func main\n    halt", processor="hcs12x"),
        AnalysisOptions(),
        AnalysisOptions(compute_bcet=False, max_contexts_per_function=3),
        AnalysisRequest(),
        AnalysisRequest(entry="task", mode="air", error_scenario="single_fault",
                        options=AnalysisOptions(strict_indirect=False),
                        check_guidelines=True, label="wire"),
        ServerSubmit(project=ProjectSpec(workload="message-handler"),
                     request=AnalysisRequest(all_modes=True), lane="batch"),
        ServerSubmit(project=ProjectSpec(workload="message-handler"),
                     request=AnalysisRequest(), timeout=45.5),
        ServerSubmitReply(job_id="j000001", state="queued", lane="interactive",
                          deduped=True, position=2),
        ServerError(error="AnalysisError", message="unbounded loop", job_id="j1"),
        ServerError(error="QueueFull", message="lane at capacity",
                    retry_after=12.0),
        ServerJobStatus(job_id="j000002", state="failed", lane="batch",
                        label="x", deduped=False, submitted=1.5, started=2.5,
                        finished=3.5, seconds=1.0, position=-1,
                        error=ServerError(error="E", message="m")),
        ServerJobStatus(job_id="j000003", state="queued", lane="interactive",
                        position=0),
        ServerEvent(job_id="j000004", seq=3, event="done", state="done",
                    detail="", ts=12.25),
        ServerStats(uptime_seconds=5.0, workers=4,
                    jobs={"queued": 1, "done": 2},
                    queue_depth={"interactive": 1, "batch": 0},
                    dedup_hits=3, submitted=6, executed=2,
                    cache={"tier1_hits": 9}, phase_seconds={"ipet": 0.25},
                    faults={"worker_restarts": 2, "rejections": 1},
                    queue_limit=8),
    ]

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_exact_round_trip_through_json_text(self, message):
        payload = json.loads(json.dumps(to_json(message)))
        assert payload["schema"] == 1
        assert from_json(payload, type(message)) == message
        # And a second serialisation is byte-stable.
        assert to_json(from_json(payload)) == payload

    def test_unknown_schema_version_rejected(self):
        payload = to_json(ServerError(error="E", message="m"))
        payload["schema"] = 99
        with pytest.raises(SchemaError, match="unsupported schema version"):
            from_json(payload)

    def test_kind_mismatch_rejected(self):
        payload = to_json(ServerError(error="E", message="m"))
        with pytest.raises(SchemaError, match="expected a serialised"):
            from_json(payload, ServerStats)

    def test_missing_field_rejected(self):
        payload = to_json(ServerSubmitReply(job_id="j", state="queued", lane="batch"))
        del payload["position"]
        with pytest.raises(SchemaError, match="missing field"):
            from_json(payload)

    def test_unknown_options_knob_rejected(self):
        payload = to_json(AnalysisOptions())
        payload["warp_speed"] = True
        with pytest.raises(SchemaError, match="malformed"):
            from_json(payload)

    def test_retired_engine_knob_dropped(self):
        """Envelopes from clients that still send the removed engine field
        load, and equal the same options without it."""
        options = AnalysisOptions(max_contexts_per_function=4)
        payload = to_json(options)
        payload["engine"] = "reference"
        assert from_json(payload) == options
        payload["warp_speed"] = True
        with pytest.raises(SchemaError, match="malformed"):
            from_json(payload)

    @pytest.mark.parametrize("value", ["auto", "scipy", 5])
    def test_retired_ilp_backend_knob_dropped(self, value):
        """Every envelope an older client sends carries ``ilp_backend``
        (the codec writes every field); it loads, whatever the value's type,
        and equals the same options without it."""
        options = AnalysisOptions(compute_bcet=False)
        payload = to_json(options)
        payload["ilp_backend"] = value
        assert from_json(payload) == options
        assert "ilp_backend" not in to_json(from_json(payload))

    def test_result_payload_is_plain_analysis_result(self):
        """A finished job's payload is the existing AnalysisResult kind."""
        result = AnalysisService(
            Project.from_workload("message-handler", cache="off")
        ).analyze(AnalysisRequest(label="wire-check"))
        payload = json.loads(json.dumps(to_json(result)))
        assert payload["kind"] == "AnalysisResult"
        assert from_json(payload, AnalysisResult).wcet_cycles == result.wcet_cycles


class TestRequestDigest:
    SPEC = ProjectSpec(workload="flight-control")

    def test_label_excluded_from_identity(self):
        a = request_digest(self.SPEC, AnalysisRequest(label="a"))
        b = request_digest(self.SPEC, AnalysisRequest(label="b"))
        assert a == b

    def test_every_other_knob_is_identity(self):
        base = request_digest(self.SPEC, AnalysisRequest())
        assert request_digest(self.SPEC, AnalysisRequest(mode="air")) != base
        assert request_digest(self.SPEC, AnalysisRequest(all_modes=True)) != base
        assert request_digest(self.SPEC, AnalysisRequest(check_guidelines=True)) != base
        assert (
            request_digest(
                self.SPEC,
                AnalysisRequest(options=AnalysisOptions(compute_bcet=False)),
            )
            != base
        )
        other = ProjectSpec(workload="message-handler")
        assert request_digest(other, AnalysisRequest()) != base


    def test_every_request_and_options_field_is_identity(self):
        """The key covers every AnalysisRequest field but the label, and
        every AnalysisOptions knob, including ones added later."""
        changed = {
            "entry": "task",
            "mode": "air",
            "all_modes": True,
            "error_scenario": "single_fault",
            "options": AnalysisOptions(),
            "check_guidelines": True,
        }
        assert set(changed) == {f.name for f in fields(AnalysisRequest)} - {"label"}
        base = request_digest(self.SPEC, AnalysisRequest())
        for name, value in changed.items():
            request = replace(AnalysisRequest(), **{name: value})
            assert request_digest(self.SPEC, request) != base, name
        base = request_digest(self.SPEC, AnalysisRequest(options=AnalysisOptions()))
        flip = {bool: lambda v: not v, int: lambda v: v + 1, str: lambda v: v + "-x"}
        for knob in fields(AnalysisOptions):
            options = replace(
                AnalysisOptions(), **{knob.name: flip[type(knob.default)](knob.default)}
            )
            request = AnalysisRequest(options=options)
            assert request_digest(self.SPEC, request) != base, knob.name


# --------------------------------------------------------------------------- #
# Scheduler semantics (no workers: jobs stay queued until popped)
# --------------------------------------------------------------------------- #
def _fake_result(label="x"):
    """An encoded result, as a worker hands it to the scheduler."""
    return encode(AnalysisResult(label=label, entry="main", processor="simple"))


def _served(job):
    """A scheduler job's delivered result, decoded (``None`` without one)."""
    encoded = job.result_bytes()
    return None if encoded is None else from_json(json.loads(encoded))


def _until(condition, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _http_count(server, method, status) -> float:
    return server.scheduler.metrics.value(
        "repro_http_requests_total", method=method, status=status
    )


class TestScheduler:
    def test_identical_submissions_share_one_execution(self):
        scheduler = Scheduler()
        spec = ProjectSpec(workload="flight-control")
        first = scheduler.submit(spec, AnalysisRequest(label="first"))
        second = scheduler.submit(spec, AnalysisRequest(label="second"))
        assert not first.deduped and second.deduped
        assert first.execution is second.execution
        assert scheduler.metrics.value("repro_dedup_joins_total") == 1

        execution = scheduler.pop(timeout=1)
        assert execution is first.execution
        assert scheduler.pop(timeout=0.05) is None  # only ONE execution queued

        # A worker's result carries the creator's label.
        encoded = _fake_result("first")
        scheduler.complete(execution, result=encoded)
        # Both subscribers got the result, each under its own label; the
        # creator gets the worker's bytes as they are.
        assert _served(first).label == "first"
        assert _served(second).label == "second"
        assert first.result_bytes() is encoded
        assert first.state == second.state == "done"

    def test_invalid_lane_rejected_before_touching_state(self):
        scheduler = Scheduler()
        spec = ProjectSpec(workload="flight-control")
        with pytest.raises(ValueError, match="lane"):
            scheduler.submit(spec, AnalysisRequest(), lane="warp")
        # No zombie execution was left behind to poison dedup.
        job = scheduler.submit(spec, AnalysisRequest())
        assert not job.deduped
        assert scheduler.pop(timeout=1) is job.execution

    def test_priority_lanes_and_fifo_within_lane(self):
        scheduler = Scheduler()
        spec = ProjectSpec(workload="flight-control")
        batch1 = scheduler.submit(spec, AnalysisRequest(mode="air"), lane="batch")
        batch2 = scheduler.submit(spec, AnalysisRequest(mode="ground"), lane="batch")
        urgent = scheduler.submit(spec, AnalysisRequest(all_modes=True))
        assert scheduler.queue_depth() == {"interactive": 1, "batch": 2}
        popped = [scheduler.pop(timeout=1) for _ in range(3)]
        assert popped == [urgent.execution, batch1.execution, batch2.execution]

    def test_interactive_join_promotes_batch_execution(self):
        scheduler = Scheduler()
        spec = ProjectSpec(workload="flight-control")
        early_batch = scheduler.submit(spec, AnalysisRequest(mode="air"), lane="batch")
        slow = scheduler.submit(spec, AnalysisRequest(mode="ground"), lane="batch")
        # An interactive subscriber joins the *second* batch execution...
        joiner = scheduler.submit(spec, AnalysisRequest(mode="ground", label="hi"))
        assert joiner.deduped and joiner.execution is slow.execution
        # ...which therefore overtakes the earlier batch-only execution.
        assert scheduler.pop(timeout=1) is slow.execution
        assert scheduler.pop(timeout=1) is early_batch.execution

    def test_cancel_follower_leaves_execution_running(self):
        scheduler = Scheduler()
        spec = ProjectSpec(workload="flight-control")
        keeper = scheduler.submit(spec, AnalysisRequest())
        follower = scheduler.submit(spec, AnalysisRequest(label="f"))
        scheduler.cancel(follower.id)
        assert follower.state == "cancelled"
        execution = scheduler.pop(timeout=1)
        scheduler.complete(execution, result=_fake_result())
        assert keeper.state == "done" and _served(keeper) is not None
        assert follower.state == "cancelled" and _served(follower) is None

    def test_cancelling_every_subscriber_drops_queued_execution(self):
        scheduler = Scheduler()
        spec = ProjectSpec(workload="flight-control")
        only = scheduler.submit(spec, AnalysisRequest())
        scheduler.cancel(only.id)
        assert scheduler.pop(timeout=0.05) is None
        # The dedup slot is freed: a re-submission queues a NEW execution.
        again = scheduler.submit(spec, AnalysisRequest())
        assert not again.deduped

    def test_failed_execution_fans_error_to_subscribers(self):
        scheduler = Scheduler()
        spec = ProjectSpec(workload="flight-control")
        job = scheduler.submit(spec, AnalysisRequest())
        execution = scheduler.pop(timeout=1)
        scheduler.complete(
            execution, error=ServerError(error="AnalysisError", message="boom")
        )
        assert job.state == "failed"
        assert job.error.message == "boom"
        events = [event.event for event in job.events]
        assert events == ["queued", "started", "failed"]

    def test_events_sequence_for_happy_path(self):
        scheduler = Scheduler()
        job = scheduler.submit(ProjectSpec(workload="flight-control"), AnalysisRequest())
        scheduler.complete(scheduler.pop(timeout=1), result=_fake_result())
        assert [event.event for event in job.events] == ["queued", "started", "done"]
        assert [event.seq for event in job.events] == [1, 2, 3]

    def test_admission_control_rejects_over_limit_but_admits_joins(self):
        scheduler = Scheduler(max_queue=1)
        spec = ProjectSpec(workload="flight-control")
        scheduler.submit(spec, AnalysisRequest())
        with pytest.raises(QueueFull) as excinfo:
            scheduler.submit(spec, AnalysisRequest(mode="air"))
        assert excinfo.value.retry_after >= 1.0
        assert excinfo.value.limit == 1
        assert scheduler.metrics.value("repro_faults_total", kind="rejections") == 1
        # A dedup join adds no work, so it bypasses admission control...
        joiner = scheduler.submit(spec, AnalysisRequest(label="join"))
        assert joiner.deduped
        # ...and a rejected submission left no state behind: once the queue
        # drains, the same request is admitted as a NEW execution.
        assert scheduler.pop(timeout=1) is not None
        again = scheduler.submit(spec, AnalysisRequest(mode="air"))
        assert not again.deduped

    def test_admission_limit_validated(self):
        with pytest.raises(ValueError, match="max_queue"):
            Scheduler(max_queue=0)

    def test_dedup_join_can_only_tighten_the_deadline(self):
        scheduler = Scheduler()
        spec = ProjectSpec(workload="flight-control")
        first = scheduler.submit(spec, AnalysisRequest(), timeout=60.0)
        assert first.execution.timeout == 60.0
        scheduler.submit(spec, AnalysisRequest(label="b"), timeout=10.0)
        assert first.execution.timeout == 10.0
        scheduler.submit(spec, AnalysisRequest(label="c"), timeout=120.0)
        assert first.execution.timeout == 10.0  # joins never loosen

    def test_finished_jobs_are_evicted_oldest_first(self, monkeypatch):
        monkeypatch.setattr(queue_module, "MAX_FINISHED_JOBS", 2)
        scheduler = Scheduler()
        spec = ProjectSpec(workload="flight-control")
        keeper = scheduler.submit(spec, AnalysisRequest(label="keeper"))
        joiner = scheduler.submit(spec, AnalysisRequest(label="joiner"))
        assert joiner.deduped
        running = scheduler.pop(timeout=1)
        finished = []
        for processor in ("simple", "leon2", "mpc5554", "hcs12x"):
            other = ProjectSpec(workload="message-handler", processor=processor)
            finished.append(scheduler.submit(other, AnalysisRequest()).id)
            scheduler.complete(scheduler.pop(timeout=1), result=_fake_result())
        # The two newest finished jobs stay; the running execution keeps
        # both its subscribers, the deduped one included.
        assert set(scheduler._jobs) == {keeper.id, joiner.id, *finished[2:]}
        assert scheduler.job(finished[0]) is None
        assert scheduler.job_counts()["running"] == 2
        assert running.jobs == [keeper, joiner]
        scheduler.complete(running, result=_fake_result())
        assert set(scheduler._jobs) == {keeper.id, joiner.id}
        assert _served(scheduler.job(joiner.id)).label == "joiner"

    @pytest.mark.parametrize("outcome", ["done", "failed"])
    def test_eviction_during_fan_out_skips_no_subscriber(self, monkeypatch, outcome):
        """A live subscriber's terminal event can evict a cancelled
        subscriber of the same execution; every live one still finishes."""
        monkeypatch.setattr(queue_module, "MAX_FINISHED_JOBS", 1)
        scheduler = Scheduler()
        spec = ProjectSpec(workload="flight-control")
        creator = scheduler.submit(spec, AnalysisRequest(label="creator"))
        joiners = [
            scheduler.submit(spec, AnalysisRequest(label=label))
            for label in ("b", "c")
        ]
        assert all(joiner.deduped for joiner in joiners)
        scheduler.cancel(creator.id)
        execution = scheduler.pop(timeout=1)
        if outcome == "done":
            scheduler.complete(execution, result=_fake_result())
        else:
            scheduler.complete(execution, error=ServerError(error="Boom", message="x"))
        for joiner in joiners:
            assert joiner.state == outcome
            assert joiner.events[-1].event == outcome
            if outcome == "done":
                assert _served(joiner).label == joiner.label
        assert scheduler.job(creator.id) is None
        assert set(scheduler._jobs) == {joiners[1].id}

    def test_late_outcome_after_terminal_state_is_ignored(self):
        """A straggling attempt's result must not resurrect a resolved job."""
        scheduler = Scheduler()
        job = scheduler.submit(ProjectSpec(workload="flight-control"), AnalysisRequest())
        execution = scheduler.pop(timeout=1)
        scheduler.complete(
            execution, error=ServerError(error="JobTimeout", message="deadline")
        )
        assert job.state == "failed"
        executed = scheduler.metrics.value("repro_jobs_executed_total")
        scheduler.complete(execution, result=_fake_result())  # straggler
        assert job.state == "failed" and _served(job) is None
        assert scheduler.metrics.value("repro_jobs_executed_total") == executed


# --------------------------------------------------------------------------- #
# Worker pool (no HTTP): results equal the direct facade
# --------------------------------------------------------------------------- #
class TestWorkerPool:
    def test_one_worker_pool_serves_bit_identical_results(self):
        scheduler = Scheduler()
        pool = WorkerPool(scheduler, jobs=1)
        pool.start()
        try:
            spec = ProjectSpec(source=MINI_C, name="t.c")
            job = scheduler.submit(spec, AnalysisRequest(label="served"))
            for _ in range(400):
                if job.state in ("done", "failed"):
                    break
                import time

                time.sleep(0.025)
            assert job.state == "done", job.error and job.error.message
            direct = AnalysisService(
                spec.to_project(cache="off")
            ).analyze(AnalysisRequest(label="served"))
            assert result_identity(_served(job)) == result_identity(direct)
            # The job ran in the one supervised worker, not in this process.
            assert len(pool.worker_pids()) == 1
        finally:
            scheduler.close()
            pool.shutdown()

    def test_process_pool_shares_store_and_matches_direct(self, tmp_path):
        """jobs=2: two worker processes share one on-disk summary store,
        and results stay bit-identical to direct calls."""
        import time

        scheduler = Scheduler()
        pool = WorkerPool(scheduler, jobs=2, cache_dir=str(tmp_path))
        pool.start()
        try:
            specs = [
                ProjectSpec(source=MINI_C, name="t.c"),
                ProjectSpec(workload="message-handler"),
            ]
            jobs = [
                scheduler.submit(spec, AnalysisRequest(label=f"p{index}"))
                for index, spec in enumerate(specs)
            ]
            deadline = time.monotonic() + 60
            while any(job.state not in ("done", "failed") for job in jobs):
                assert time.monotonic() < deadline, "process pool stalled"
                time.sleep(0.05)
            for index, (spec, job) in enumerate(zip(specs, jobs)):
                assert job.state == "done", job.error and job.error.message
                direct = AnalysisService(spec.to_project(cache="off")).analyze(
                    AnalysisRequest(label=f"p{index}")
                )
                assert result_identity(_served(job)) == result_identity(direct)
            # The workers flushed their summaries into the shared store.
            assert list(tmp_path.glob("*.pkl")), "workers did not share the store"
        finally:
            scheduler.close()
            pool.shutdown()

    def test_worker_failure_travels_back_as_server_error(self):
        scheduler = Scheduler()
        pool = WorkerPool(scheduler, jobs=1)
        pool.start()
        try:
            job = scheduler.submit(
                ProjectSpec(workload="no-such-workload"), AnalysisRequest()
            )
            for _ in range(200):
                if job.state in ("done", "failed"):
                    break
                import time

                time.sleep(0.025)
            assert job.state == "failed"
            assert "no-such-workload" in job.error.message
        finally:
            scheduler.close()
            pool.shutdown()


# --------------------------------------------------------------------------- #
# Supervised pool: crash/deadline fault tolerance at every jobs value
# --------------------------------------------------------------------------- #
class TestSupervisedPool:
    @staticmethod
    def _wait(jobs, seconds=120):
        deadline = time.monotonic() + seconds
        while any(job.state not in ("done", "failed") for job in jobs):
            assert time.monotonic() < deadline, "supervised pool stalled"
            time.sleep(0.05)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_killed_mid_job_is_respawned_and_job_retried(self, tmp_path, jobs):
        """SIGKILL a pool worker mid-job: the supervisor must observe the
        death, respawn the worker, retry the job, and still serve the
        bit-identical result."""
        # A certain hang holds the job mid-flight long enough to kill the
        # worker under it deterministically; the deadline is far away, so the
        # only fault in play is the kill.
        fault_injection.install(
            fault_injection.FaultPlan(seed=3, hang_rate=1.0, hang_seconds=60.0)
        )
        scheduler = Scheduler()
        pool = WorkerPool(scheduler, jobs=jobs, cache_dir=str(tmp_path), job_timeout=120.0)
        pool.start()
        try:
            spec = ProjectSpec(source=MINI_C, name="t.c")
            job = scheduler.submit(spec, AnalysisRequest(label="survivor"))
            deadline = time.monotonic() + 30
            while job.state != "running" or not pool.worker_pids():
                assert time.monotonic() < deadline, "job never reached a worker"
                time.sleep(0.05)
            time.sleep(0.3)  # let the worker settle into the injected hang
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            self._wait([job])
            assert job.state == "done", job.error and job.error.message
            direct = AnalysisService(spec.to_project(cache="off")).analyze(
                AnalysisRequest(label="survivor")
            )
            assert result_identity(_served(job)) == result_identity(direct)
            assert scheduler.metrics.value("repro_faults_total", kind="worker_restarts") >= 1
            assert scheduler.metrics.value("repro_faults_total", kind="job_retries") >= 1
            assert any(
                event.event == "retrying" for event in job.events
            ), [event.event for event in job.events]
        finally:
            fault_injection.clear()
            scheduler.close()
            pool.shutdown()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deadline_expiry_surfaces_typed_job_timeout(self, tmp_path, jobs):
        """A job hanging past its per-job deadline is killed and — with the
        retry budget exhausted — fails with a typed JobTimeout envelope."""
        fault_injection.install(
            fault_injection.FaultPlan(seed=5, hang_rate=1.0, hang_seconds=30.0)
        )
        scheduler = Scheduler()
        pool = WorkerPool(
            scheduler,
            jobs=jobs,
            cache_dir=str(tmp_path),
            job_timeout=120.0,
            timeout_retries=0,
        )
        pool.start()
        try:
            # The per-submission deadline overrides the pool default.
            job = scheduler.submit(
                ProjectSpec(source=MINI_C, name="t.c"),
                AnalysisRequest(),
                timeout=1.5,
            )
            self._wait([job], seconds=60)
            assert job.state == "failed"
            assert job.error.error == "JobTimeout"
            assert "deadline" in job.error.message
            assert "attempt(s)" in job.error.message
            assert scheduler.metrics.value("repro_faults_total", kind="job_timeouts") >= 1
        finally:
            fault_injection.clear()
            scheduler.close()
            pool.shutdown()

    @staticmethod
    def _wait_running(pool, jobs, workers):
        deadline = time.monotonic() + 30
        while any(job.state != "running" for job in jobs) or (
            len(pool.worker_pids()) < workers
        ):
            assert time.monotonic() < deadline, "jobs never reached the workers"
            time.sleep(0.02)
        time.sleep(0.3)  # let the workers settle into the injected hangs

    def test_kill_of_a_fresh_sibling_worker_reads_as_a_crash(self, tmp_path):
        """Two first jobs spawn two workers at once.  Neither may inherit
        the other's pipe end, or a kill of one would only surface as a
        deadline hit.  Every kill must count as a crash long before the
        deadline."""
        fault_injection.install(
            fault_injection.FaultPlan(seed=3, hang_rate=1.0, hang_seconds=60.0)
        )
        try:
            for trial in range(5):
                scheduler = Scheduler()
                pool = WorkerPool(scheduler, jobs=2, cache_dir=str(tmp_path))
                pool.start()
                try:
                    jobs = [
                        scheduler.submit(
                            ProjectSpec(source=MINI_C.replace("3", str(trial * 2 + i))),
                            AnalysisRequest(),
                            timeout=8.0,
                        )
                        for i in range(2)
                    ]
                    self._wait_running(pool, jobs, workers=2)
                    os.kill(pool.worker_pids()[trial % 2], signal.SIGKILL)
                    killed_at = time.monotonic()
                    while not scheduler.metrics.value(
                        "repro_faults_total", kind="worker_restarts"
                    ):
                        assert time.monotonic() - killed_at < 4.0, (
                            f"trial {trial}: the kill was not seen as a crash"
                        )
                        time.sleep(0.01)
                    assert not scheduler.metrics.value(
                        "repro_faults_total", kind="job_timeouts"
                    )
                finally:
                    scheduler.close()
                    pool.shutdown(wait=False)
        finally:
            fault_injection.clear()

    def test_shutdown_fails_a_running_job_instead_of_orphaning_it(self, tmp_path):
        """Closing kills the busy worker; its dispatcher, not the closer,
        fails the job with a typed error, retries nothing, and survives."""
        fault_injection.install(
            fault_injection.FaultPlan(seed=5, hang_rate=1.0, hang_seconds=60.0)
        )
        uncaught = []
        previous_hook = threading.excepthook
        threading.excepthook = uncaught.append
        try:
            for trial in range(3):
                scheduler = Scheduler()
                pool = WorkerPool(scheduler, jobs=2, cache_dir=str(tmp_path))
                pool.start()
                try:
                    job = scheduler.submit(
                        ProjectSpec(source=MINI_C.replace("3", str(trial))),
                        AnalysisRequest(),
                    )
                    self._wait_running(pool, [job], workers=1)
                    scheduler.close()
                    closed_at = time.monotonic()
                    pool.shutdown(wait=False)
                    self._wait([job], seconds=15)
                    # A busy worker is killed at once, not given a grace
                    # period to stop a job it is still running.
                    assert time.monotonic() - closed_at < 3.0
                    assert job.state == "failed"
                    assert job.error.error == "WorkerCrashed"
                    assert "attempt(s)" in job.error.message
                    deadline = time.monotonic() + 10
                    while pool.alive_dispatchers():
                        assert time.monotonic() < deadline, "a dispatcher never exited"
                        time.sleep(0.02)
                    assert uncaught == []
                    assert not scheduler.metrics.value(
                        "repro_faults_total", kind="job_retries"
                    )
                    assert pool.worker_pids() == []
                finally:
                    scheduler.close()
                    pool.shutdown(wait=False)
        finally:
            threading.excepthook = previous_hook
            fault_injection.clear()

    def test_deterministic_failure_is_not_retried(self, tmp_path):
        """A ReproError travels back typed and burns no retry budget."""
        scheduler = Scheduler()
        pool = WorkerPool(scheduler, jobs=2, cache_dir=str(tmp_path))
        pool.start()
        try:
            job = scheduler.submit(
                ProjectSpec(workload="no-such-workload"), AnalysisRequest()
            )
            self._wait([job], seconds=60)
            assert job.state == "failed"
            assert "no-such-workload" in job.error.message
            assert scheduler.metrics.value("repro_faults_total", kind="job_retries") == 0
            assert job.execution.attempts == 0
        finally:
            scheduler.close()
            pool.shutdown()


# --------------------------------------------------------------------------- #
# HTTP end to end
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def server():
    with AnalysisServer(port=0, jobs=1) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return ServerClient(server.url, timeout=60)


#: The repo-wide acceptance pins (see tests/test_api.py and ISSUE 5).
FLIGHT_CONTROL_PINS = {None: (2514, 87), "air": (2514, 284), "ground": (161, 87)}


class TestHTTPEndToEnd:
    def test_flight_control_pins_and_bit_identity(self, client):
        remote = client.analyze(
            ProjectSpec(workload="flight-control"),
            AnalysisRequest(all_modes=True, label="remote"),
            timeout=120,
        )
        assert {
            mode: (r.wcet_cycles, r.bcet_cycles) for mode, r in remote.reports.items()
        } == FLIGHT_CONTROL_PINS
        direct = AnalysisService(
            Project.from_workload("flight-control", cache="off")
        ).analyze(AnalysisRequest(all_modes=True, label="remote"))
        assert result_identity(remote) == result_identity(direct)

    def test_dedup_over_http_and_healthz_accounting(self, client):
        spec = ProjectSpec(workload="message-handler")
        request = AnalysisRequest(mode=None, label="dedup-a")
        job_a = client.submit(spec, request)
        job_b = client.submit(spec, AnalysisRequest(mode=None, label="dedup-b"))
        result_a = job_a.result(timeout=120)
        result_b = job_b.result(timeout=120)
        assert job_b.deduped or job_a.deduped is False and job_b.deduped is False
        # Labels stay per-subscriber even when the execution was shared...
        assert result_a.label == "dedup-a"
        assert result_b.label == "dedup-b"
        # ...but the analysis payload is the same shared computation.
        assert result_identity(result_a)["reports"] == result_identity(result_b)["reports"]
        stats = client.healthz()
        assert isinstance(stats, ServerStats)
        assert stats.submitted >= 2
        assert stats.executed >= 1
        assert stats.jobs.get("done", 0) >= 2
        # A program no other test analyses is a cold run: it misses tier 1
        # and puts its summary.
        client.analyze(
            ProjectSpec(source="int main(void) { int y = 6; return y * 7; }", name="cold.c"),
            AnalysisRequest(label="cold"),
        )
        after = client.healthz()
        assert after.cache["puts"] >= stats.cache["puts"] + 1
        assert after.cache["tier1_misses"] >= stats.cache["tier1_misses"] + 1

    def test_events_stream_ends_with_terminal_event(self, client):
        job = client.submit(
            ProjectSpec(workload="message-handler"),
            AnalysisRequest(label="events"),
        )
        events = list(job.events())
        assert [event.event for event in events][-1] in ("done", "failed")
        assert [event.event for event in events][0] == "queued"
        assert all(isinstance(event, ServerEvent) for event in events)
        # Resuming past the end yields nothing new and terminates.
        assert list(job.events(since=events[-1].seq)) == []

    def test_status_envelope_fields(self, client):
        job = client.submit(
            ProjectSpec(workload="message-handler"), AnalysisRequest(label="st")
        )
        job.result(timeout=120)
        status = job.status()
        assert isinstance(status, ServerJobStatus)
        assert status.state == "done"
        assert status.label == "st"
        assert status.finished >= status.started >= status.submitted > 0
        assert status.seconds > 0

    def test_unknown_job_is_404(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.status("j999999")
        assert excinfo.value.status == 404
        assert excinfo.value.error.error == "UnknownJob"

    def test_malformed_submit_is_400(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client._call("POST", "/v1/jobs", {"schema": 1, "kind": "ServerSubmit"})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("use_data_cache", "false"),
            ("compute_bcet", 0),
            ("strict_indirect", "no"),
            ("max_contexts_per_function", "x"),
        ],
    )
    def test_wrong_typed_option_is_400(self, client, knob, value):
        """A partial options envelope is valid (every knob is optional), but
        a knob of the wrong type is refused, never analysed: the string
        "false" would otherwise switch the data cache *on*."""
        payload = to_json(ServerSubmit(project=ProjectSpec(workload="message-handler")))
        payload["request"]["options"] = {
            "schema": 1,
            "kind": "AnalysisOptions",
            knob: value,
        }
        with pytest.raises(RemoteError) as excinfo:
            client._call("POST", "/v1/jobs", payload)
        assert excinfo.value.status == 400
        assert excinfo.value.error.error == "SchemaError"
        assert knob in excinfo.value.error.message

    def test_submit_rejects_unknown_lane_and_processor(self, client):
        with pytest.raises(RemoteError, match="lane"):
            client.submit(
                ProjectSpec(workload="message-handler"),
                AnalysisRequest(),
                lane="warp",
            )
        with pytest.raises(RemoteError, match="processor"):
            client.submit(
                ProjectSpec(workload="message-handler", processor="z80"),
                AnalysisRequest(),
            )

    def test_failing_analysis_surfaces_as_job_failed(self, client):
        job = client.submit(ProjectSpec(workload="no-such-workload"), AnalysisRequest())
        with pytest.raises(JobFailed) as excinfo:
            job.result(timeout=60)
        assert excinfo.value.status == 500
        assert "no-such-workload" in excinfo.value.error.message

    def test_deep_nesting_fails_the_job_with_a_typed_error(self, client):
        source = "int main(void) { return " + "(" * 100 + "1" + ")" * 100 + "; }"
        job = client.submit(ProjectSpec(source=source), AnalysisRequest())
        with pytest.raises(JobFailed) as excinfo:
            job.result(timeout=60)
        assert excinfo.value.error.error == "ParseError"
        assert "nesting deeper than" in excinfo.value.error.message
        assert "Traceback" not in excinfo.value.error.message

    def test_bad_assembly_literal_fails_the_job_with_a_typed_error(self, client):
        job = client.submit(
            ProjectSpec(assembly=".func main\n    mov r4, 08\n    halt\n"),
            AnalysisRequest(),
        )
        with pytest.raises(JobFailed) as excinfo:
            job.result(timeout=60)
        assert excinfo.value.error.error == "AssemblyError"
        assert excinfo.value.error.message == "line 2: bad number '08'"

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client._call("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_cli_analyze_remote_matches_pins(self, client, capsys):
        status = cli_main(
            ["analyze", "--workload", "flight-control", "--all-modes",
             "--remote", client.url, "--json"]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "AnalysisResult"
        assert {
            entry["mode"]: (
                entry["report"]["wcet_cycles"],
                entry["report"]["bcet_cycles"],
            )
            for entry in payload["reports"]
        } == {
            str(mode) if mode else None: bounds
            for mode, bounds in FLIGHT_CONTROL_PINS.items()
        }


# --------------------------------------------------------------------------- #
# Queue-state HTTP semantics (server with NO workers: jobs stay queued)
# --------------------------------------------------------------------------- #
@pytest.fixture()
def idle_server():
    server = AnalysisServer(port=0, jobs=1)
    # Start ONLY the listener — no worker pool, so jobs never leave the
    # queue unless a test pops them, and the not-ready/cancel paths are
    # deterministic.
    thread = threading.Thread(target=server._httpd.serve_forever, daemon=True)
    thread.start()
    yield server
    server.scheduler.close()
    server._httpd.shutdown()
    server._httpd.server_close()


class TestQueuedJobHTTP:
    def test_result_before_completion_is_409_then_410_after_cancel(self, idle_server):
        client = ServerClient(idle_server.url, timeout=10)
        job = client.submit(ProjectSpec(workload="message-handler"), AnalysisRequest())
        with pytest.raises(ResultNotReady) as excinfo:
            client.result(job.id)
        assert excinfo.value.status == 409
        status = client.cancel(job.id)
        assert status.state == "cancelled"
        with pytest.raises(JobCancelled) as excinfo:
            client.result(job.id)
        assert excinfo.value.status == 410

    def test_queue_position_reported_while_queued(self, idle_server):
        client = ServerClient(idle_server.url, timeout=10)
        first = client.submit(ProjectSpec(workload="message-handler"), AnalysisRequest())
        second = client.submit(
            ProjectSpec(workload="flight-control"), AnalysisRequest()
        )
        assert client.status(first.id).position == 0
        assert client.status(second.id).position == 1
        assert client.healthz().queue_depth == {"interactive": 2, "batch": 0}

    def test_an_evicted_finished_job_is_404(self, idle_server, monkeypatch):
        monkeypatch.setattr(queue_module, "MAX_FINISHED_JOBS", 1)
        client = ServerClient(idle_server.url, timeout=10)
        scheduler = idle_server.scheduler
        ids = []
        for processor in ("simple", "leon2"):
            spec = ProjectSpec(workload="message-handler", processor=processor)
            ids.append(client.submit(spec, AnalysisRequest()).id)
            scheduler.complete(scheduler.pop(timeout=1), result=_fake_result())
        assert client.status(ids[1]).state == "done"
        with pytest.raises(RemoteError) as excinfo:
            client.status(ids[0])
        assert excinfo.value.status == 404
        assert excinfo.value.error.error == "UnknownJob"
        assert client.healthz().jobs["done"] == 1


# --------------------------------------------------------------------------- #
# Admission control over HTTP (bounded queue, no workers)
# --------------------------------------------------------------------------- #
class TestAdmissionControlHTTP:
    @pytest.fixture()
    def bounded_idle_server(self):
        server = AnalysisServer(port=0, jobs=1, max_queue=1)
        # Listener only — no workers — so the queue stays full deterministically.
        thread = threading.Thread(target=server._httpd.serve_forever, daemon=True)
        thread.start()
        yield server
        server.scheduler.close()
        server._httpd.shutdown()
        server._httpd.server_close()

    def test_queue_full_is_429_envelope_with_retry_after(self, bounded_idle_server):
        client = ServerClient(bounded_idle_server.url, timeout=10)
        client.submit(ProjectSpec(workload="message-handler"), AnalysisRequest())
        with pytest.raises(RemoteError) as excinfo:
            client.submit(
                ProjectSpec(workload="flight-control"), AnalysisRequest(), retries=0
            )
        assert excinfo.value.status == 429
        assert excinfo.value.error.error == "QueueFull"
        # The hint arrives both as a Retry-After header and in the envelope.
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after >= 1
        assert excinfo.value.error.retry_after >= 1
        stats = client.healthz()
        assert stats.faults.get("rejections", 0) >= 1
        assert stats.queue_limit == 1

    def test_dedup_join_admitted_while_lane_full(self, bounded_idle_server):
        client = ServerClient(bounded_idle_server.url, timeout=10)
        client.submit(ProjectSpec(workload="message-handler"), AnalysisRequest())
        joiner = client.submit(
            ProjectSpec(workload="message-handler"),
            AnalysisRequest(label="join"),
            retries=0,
        )
        assert joiner.deduped

    def test_submit_retries_sleep_on_the_hint_then_surface_429(
        self, bounded_idle_server
    ):
        client = ServerClient(bounded_idle_server.url, timeout=10)
        client.submit(ProjectSpec(workload="message-handler"), AnalysisRequest())
        started = time.monotonic()
        with pytest.raises(RemoteError) as excinfo:
            client.submit(
                ProjectSpec(workload="flight-control"), AnalysisRequest(), retries=2
            )
        elapsed = time.monotonic() - started
        assert excinfo.value.status == 429
        # 1 initial + 2 retried attempts, each rejected and counted...
        assert client.healthz().faults.get("rejections", 0) >= 3
        # ...with a jittered sleep (>= hint/2 each) between attempts.
        assert elapsed >= 1.0

    def test_waited_submit_retries_a_429_then_is_held(self, bounded_idle_server):
        scheduler = bounded_idle_server.scheduler
        client = ServerClient(bounded_idle_server.url, timeout=10)
        client.submit(ProjectSpec(workload="message-handler"), AnalysisRequest())

        def drain():
            # The lane empties while the rejected submit sleeps on its hint.
            _until(
                lambda: scheduler.metrics.value("repro_faults_total", kind="rejections")
            )
            scheduler.pop(timeout=1)

        thread = threading.Thread(target=drain)
        thread.start()
        job = client.submit(
            ProjectSpec(workload="flight-control"), AnalysisRequest(), wait=0.3
        )
        thread.join(timeout=10)
        assert scheduler.metrics.value("repro_faults_total", kind="rejections") == 1
        assert _http_count(bounded_idle_server, "POST", "429") == 1
        assert _http_count(bounded_idle_server, "POST", "202") == 2
        assert client.status(job.id).state == "queued"

    def test_job_timeout_travels_to_the_execution(self, bounded_idle_server):
        client = ServerClient(bounded_idle_server.url, timeout=10)
        job = client.submit(
            ProjectSpec(workload="message-handler"),
            AnalysisRequest(),
            job_timeout=2.5,
        )
        execution = bounded_idle_server.scheduler.job(job.id).execution
        assert execution.timeout == 2.5


# --------------------------------------------------------------------------- #
# Counters: /healthz and /metrics read one source
# --------------------------------------------------------------------------- #
def _scrape(server) -> dict:
    with urllib.request.urlopen(server.url + "/metrics", timeout=30) as reply:
        return obs_metrics.parse_exposition(reply.read().decode())


def _series_total(series: dict, family: str) -> float:
    return sum(value for name, value in series.items() if name.startswith(family + "{"))


class TestOneCounterSource:
    def test_healthz_counts_equal_their_metrics_series(self):
        server = AnalysisServer(port=0, jobs=1, max_queue=1)
        # Listener only at first: with no worker the queue holds, so the
        # dedup join and the 429 are deterministic; the pool starts after.
        threading.Thread(target=server._httpd.serve_forever, daemon=True).start()
        try:
            client = ServerClient(server.url, timeout=60)
            spec = ProjectSpec(source=MINI_C, name="t.c")
            first = client.submit(spec, AnalysisRequest(label="first"))
            assert client.submit(spec, AnalysisRequest(label="join"), retries=0).deduped
            with pytest.raises(RemoteError) as excinfo:
                client.submit(
                    ProjectSpec(workload="message-handler"), AnalysisRequest(), retries=0
                )
            assert excinfo.value.status == 429
            server.pool.start()
            first.result(timeout=60)
            failing = client.submit(ProjectSpec(workload="no-such-workload"), AnalysisRequest())
            with pytest.raises(JobFailed):
                failing.result(timeout=60)
            stats = client.healthz()
            client.close()
            series = _scrape(server)
        finally:
            server.shutdown()
        assert (stats.submitted, stats.dedup_hits, stats.executed) == (3, 1, 2)
        assert stats.submitted == _series_total(series, "repro_jobs_submitted_total")
        assert stats.dedup_hits == series["repro_dedup_joins_total"]
        assert stats.executed == series["repro_jobs_executed_total"]
        assert stats.faults["rejections"] == 1
        assert set(stats.faults) == {
            "worker_restarts", "job_timeouts", "job_retries", "rejections"
        }
        for kind, count in stats.faults.items():
            assert series[f'repro_faults_total{{kind="{kind}"}}'] == count, kind
        for lane, depth in stats.queue_depth.items():
            assert series[f'repro_queue_depth{{lane="{lane}"}}'] == depth, lane
        assert stats.workers == series["repro_workers"]
        assert stats.phase_seconds and all(
            seconds == pytest.approx(
                series[f'repro_phase_seconds_total{{phase="{phase}"}}'], abs=1e-6
            )
            for phase, seconds in stats.phase_seconds.items()
        )
        assert set(stats.cache) == set(server_http.CACHE_SERIES)
        for key, (family, labels) in server_http.CACHE_SERIES.items():
            name = family + (
                "{" + ",".join(f'{k}="{v}"' for k, v in labels.items()) + "}"
                if labels
                else ""
            )
            assert stats.cache[key] == series.get(name, 0.0), key

    def test_two_servers_in_one_process_keep_separate_series(self):
        with AnalysisServer(port=0, jobs=1) as first, AnalysisServer(port=0, jobs=1) as second:
            client = ServerClient(first.url, timeout=60)
            for index in range(3):
                client.analyze(
                    ProjectSpec(source=MINI_C, name="t.c"),
                    AnalysisRequest(label=f"a{index}"),
                )
            client.close()
            first_series = _scrape(first)
            second_series = _scrape(second)
            client = ServerClient(second.url, timeout=60)
            stats = client.healthz()
            client.close()
        assert first_series['repro_jobs_submitted_total{lane="interactive"}'] == 3
        assert first_series["repro_jobs_executed_total"] == 3
        assert second_series['repro_jobs_submitted_total{lane="interactive"}'] == 0
        assert second_series["repro_jobs_executed_total"] == 0
        assert stats.submitted == _series_total(stats.metrics, "repro_jobs_submitted_total") == 0
        assert stats.workers == stats.metrics["repro_workers"]
        assert stats.uptime_seconds == stats.metrics["repro_uptime_seconds"]


class TestFullDisk:
    def test_failed_store_writes_cost_warmth_not_the_bound(self, tmp_path, monkeypatch):
        """With every store write failing (ENOSPC), the facade and a served
        job still return the bound; the failure is counted, and the staged
        bucket is written by the first flush that succeeds."""
        spec = ProjectSpec(workload="message-handler")
        expected = result_identity(
            AnalysisService(spec.to_project(cache="off")).analyze(AnalysisRequest())
        )

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(store_module, "tempfile", SimpleNamespace(mkstemp=no_space))
        facade_dir = tmp_path / "facade"
        service = AnalysisService(spec.to_project(cache=str(facade_dir)))
        assert result_identity(service.analyze(AnalysisRequest())) == expected
        with AnalysisServer(port=0, jobs=1, cache_dir=str(tmp_path / "served")) as server:
            client = ServerClient(server.url, timeout=60)
            assert result_identity(client.analyze(spec, AnalysisRequest())) == expected
            stats = client.healthz()
            client.close()
        assert stats.cache["flush_errors"] >= 1
        assert not list(facade_dir.glob("*.pkl"))

        monkeypatch.undo()
        service.summary_cache.flush()
        assert len(list(facade_dir.glob("*.pkl"))) == 1
        reread = AnalysisService(spec.to_project(cache=str(facade_dir))).analyze(
            AnalysisRequest()
        )
        assert reread.cache_stats["tier2_hits"] > 0
        assert reread.cache_stats["puts"] == 0


# --------------------------------------------------------------------------- #
# Graceful shutdown via the protocol
# --------------------------------------------------------------------------- #
class TestShutdown:
    def test_http_shutdown_drains_and_stops_listening(self):
        server = AnalysisServer(port=0, jobs=1).start()
        client = ServerClient(server.url, timeout=60)
        result = client.analyze(
            ProjectSpec(source=MINI_C, name="t.c"), AnalysisRequest(), timeout=60
        )
        assert result.wcet_cycles > 0
        client.shutdown()
        for _ in range(100):
            if server.closing and server._serve_thread and not server._serve_thread.is_alive():
                break
            import time

            time.sleep(0.05)
        from repro.server.client import ClientError

        with pytest.raises((ClientError, RemoteError)):
            client.healthz()

    def test_serve_process_exits_after_http_shutdown(self):
        """``repro serve`` must exit 0 when a client asks it to shut down,
        not only on a signal."""
        env = dict(os.environ)
        src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"listening on (\S+)", line)
            assert match, line
            ServerClient(match.group(1), timeout=30).shutdown()
            assert process.wait(timeout=30) == 0
            assert "done" in process.stdout.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()


# --------------------------------------------------------------------------- #
# Connections: one kept-alive connection per client thread
# --------------------------------------------------------------------------- #
def _http_requests(server) -> float:
    return sum(
        value
        for series, value in server.scheduler.metrics.flat_counters().items()
        if series.startswith("repro_http_requests_total")
    )


@pytest.fixture()
def counted_server(monkeypatch):
    """A fresh server that records every TCP connection it accepts."""
    accepted = []
    setup = server_http._Handler.setup

    def counting_setup(handler):
        accepted.append(handler.client_address)
        setup(handler)

    monkeypatch.setattr(server_http._Handler, "setup", counting_setup)
    with AnalysisServer(port=0, jobs=1) as server:
        server.accepted = accepted
        yield server


class TestKeepAlive:
    def test_analyze_calls_share_one_connection_one_request_each(self, counted_server):
        client = ServerClient(counted_server.url, timeout=60)
        spec = ProjectSpec(source=MINI_C, name="t.c")
        client.analyze(spec, AnalysisRequest(label="cold"), timeout=60)
        before = _http_requests(counted_server)
        for index in range(5):
            result = client.analyze(spec, AnalysisRequest(label=f"warm-{index}"), timeout=60)
            assert result.label == f"warm-{index}"
        assert _http_requests(counted_server) - before == 5
        assert len(counted_server.accepted) == 1

    def test_idle_closed_connection_is_reopened_transparently(
        self, monkeypatch, counted_server
    ):
        monkeypatch.setattr(server_http._Handler, "timeout", 0.2)
        client = ServerClient(counted_server.url, timeout=10)
        client.healthz()  # this connection's handler now idles out at 0.2 s
        time.sleep(0.6)
        assert isinstance(client.healthz(), ServerStats)
        assert len(counted_server.accepted) == 2

    def test_close_drops_the_calling_threads_connection(self, counted_server):
        client = ServerClient(counted_server.url, timeout=10)
        client.healthz()
        client.close()
        assert client._local.connection.sock is None
        client.healthz()
        assert len(counted_server.accepted) == 2

    def test_reused_connection_failure_is_resent_once(self):
        """A request lost on a reused connection is resent on a fresh one,
        but a fresh connection that fails too is an error, not a loop."""
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def read_request(conn):
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = conn.recv(65536)
                if not chunk:
                    return False
                data += chunk
            return True

        def serve():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                accepted.append(conn)
                with conn:
                    # The first connection answers one request, then closes
                    # on the next; every later one closes without answering.
                    if len(accepted) == 1 and read_request(conn):
                        conn.sendall(
                            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                            b"Content-Length: 2\r\n\r\n{}"
                        )
                    read_request(conn)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            client = ServerClient(
                f"http://127.0.0.1:{listener.getsockname()[1]}", timeout=10
            )
            assert client._call("GET", "/x") == {}
            with pytest.raises(ClientError):
                client._call("GET", "/x")
            assert len(accepted) == 2
        finally:
            listener.close()

    @pytest.mark.parametrize(
        "header, body, half_close, message",
        [
            (("Content-Length", "100"), b"{}", True, "truncated"),
            (("Content-Length", "100"), b"{}", False, "timed out"),
            (("Transfer-Encoding", "chunked"), b"2\r\n{}\r\n0\r\n\r\n", False, "chunked"),
        ],
        ids=["short-body", "stalled-body", "chunked-body"],
    )
    def test_unreadable_body_closes_the_connection(
        self, monkeypatch, counted_server, header, body, half_close, message
    ):
        monkeypatch.setattr(server_http._Handler, "timeout", 0.3)
        connection = http.client.HTTPConnection(
            counted_server.host, counted_server.port, timeout=10
        )
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader(*header)
            connection.endheaders()
            connection.send(body)
            if half_close:
                connection.sock.shutdown(socket.SHUT_WR)
            response = connection.getresponse()
            reply = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert response.getheader("Connection") == "close"
        assert message in reply["message"]

    def test_threads_sharing_a_client_get_their_own_results(self, client):
        """More threads than cores share one client under a short switch
        interval: a socket shared between threads would hand one thread's
        reply to another."""
        sources = {
            f"t{index}": f"int main(void) {{ int x = {index}; "
            f"for (int i = 0; i < {index + 2}; i++) {{ x = x + i; }} return x; }}"
            for index in range(8)
        }
        direct = {
            name: AnalysisService(
                ProjectSpec(source=text, name=f"{name}.c").to_project(cache="off")
            ).analyze(AnalysisRequest(label=name)).wcet_cycles
            for name, text in sources.items()
        }
        results, connections, errors = {}, [], []

        def work(names):
            try:
                for name in names:
                    result = client.analyze(
                        ProjectSpec(source=sources[name], name=f"{name}.c"),
                        AnalysisRequest(label=name),
                        timeout=120,
                    )
                    results[name] = (result.label, result.wcet_cycles)
                connections.append(client._local.connection)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(names,))
            for names in (["t0", "t1"], ["t2", "t3"], ["t4", "t5"], ["t6", "t7"])
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert results == {name: (name, direct[name]) for name in sources}
        assert len({id(connection) for connection in connections}) == len(threads)


# --------------------------------------------------------------------------- #
# Long-poll: ?wait= on job status and result
# --------------------------------------------------------------------------- #
class TestLongPoll:
    @pytest.fixture()
    def idle_server(self):
        server = AnalysisServer(port=0, jobs=1)
        # Listener only: jobs stay queued until the test ends them.
        thread = threading.Thread(target=server._httpd.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()

    def _queued(self, server):
        client = ServerClient(server.url, timeout=10)
        job = client.submit(ProjectSpec(workload="message-handler"), AnalysisRequest())
        return client, job

    def test_wait_returns_as_soon_as_the_job_is_terminal(self, idle_server):
        client, job = self._queued(idle_server)
        timer = threading.Timer(0.3, idle_server.scheduler.cancel, args=(job.id,))
        timer.start()
        started = time.monotonic()
        status = client.status(job.id, wait=20)
        assert status.state == "cancelled"
        assert time.monotonic() - started < 10
        started = time.monotonic()
        with pytest.raises(JobCancelled):
            client.result(job.id, wait=20)
        assert time.monotonic() - started < 1

    def test_wait_holds_a_running_job_for_the_given_time(self, idle_server):
        client, job = self._queued(idle_server)
        started = time.monotonic()
        assert client.status(job.id, wait=0.3).state == "queued"
        with pytest.raises(ResultNotReady):
            client.result(job.id, wait=0.3)
        assert time.monotonic() - started >= 0.6

    def test_wait_ends_when_the_server_closes(self, idle_server):
        _, job = self._queued(idle_server)
        threading.Timer(0.3, idle_server.shutdown).start()
        connection = http.client.HTTPConnection(
            idle_server.host, idle_server.port, timeout=30
        )
        started = time.monotonic()
        try:
            connection.request("GET", f"/v1/jobs/{job.id}?wait=20")
            response = connection.getresponse()
            status = from_json(json.loads(response.read()))
        finally:
            connection.close()
        assert time.monotonic() - started < 10
        assert status.state == "queued"
        # Once shutdown starts, replies end their connection.
        assert response.getheader("Connection") == "close"

    @pytest.mark.parametrize("value", ["abc", "nan", "-1", "inf"])
    def test_bad_wait_is_a_400(self, idle_server, value):
        client, job = self._queued(idle_server)
        for path in (f"/v1/jobs/{job.id}", f"/v1/jobs/{job.id}/result"):
            with pytest.raises(RemoteError) as excinfo:
                client._call("GET", f"{path}?wait={value}")
            assert excinfo.value.status == 400
            assert excinfo.value.error.error == "BadQuery"
        # A submit with a bad wait is refused before its job is queued.
        submitted = client.healthz().submitted
        body = to_json(ServerSubmit(project=ProjectSpec(source=MINI_C, name="t.c")))
        with pytest.raises(RemoteError) as excinfo:
            client._call("POST", f"/v1/jobs?wait={value}", body)
        assert excinfo.value.status == 400
        assert excinfo.value.error.error == "BadQuery"
        assert client.healthz().submitted == submitted


# --------------------------------------------------------------------------- #
# One round trip: POST /v1/jobs?wait=S answers with the result
# --------------------------------------------------------------------------- #
class TestSubmitWait:
    """A submit held as a long-poll carries the result of a job done in time:
    the bytes its worker encoded, under the submitter's label."""

    SPEC = ProjectSpec(source=MINI_C, name="t.c")

    def _direct(self, label):
        return AnalysisService(self.SPEC.to_project(cache="off")).analyze(
            AnalysisRequest(label=label)
        )

    def test_submit_reply_and_result_get_send_the_same_bytes(self, client):
        body = to_json(
            ServerSubmit(project=self.SPEC, request=AnalysisRequest(label="b"))
        )
        status, headers, posted = client._request("POST", "/v1/jobs?wait=30", body)
        assert status == 200
        job_id = headers[JOB_ID_HEADER]
        assert headers[DEDUPED_HEADER] == "false"
        _, _, fetched = client._request("GET", f"/v1/jobs/{job_id}/result")
        assert posted == fetched
        assert posted == json.dumps(to_json(from_json(json.loads(posted)))).encode()
        assert from_json(json.loads(posted)).label == "b"

    def test_each_subscriber_gets_its_own_label(self, idle_server):
        """Joiners held on one execution get its bytes under their own label
        (quotes, backslashes and non-ASCII included), or the creator's when
        they bring none."""
        scheduler = idle_server.scheduler
        direct = self._direct("creator")
        client = ServerClient(idle_server.url, timeout=30)
        creator = client.submit(self.SPEC, AnalysisRequest(label="creator"))
        labels = ['say "h\u00e9" \\ \u2708', ""]
        joined = {}

        def join(label):
            joined[label] = ServerClient(idle_server.url, timeout=30).submit(
                self.SPEC, AnalysisRequest(label=label), wait=20
            )

        threads = [threading.Thread(target=join, args=(label,)) for label in labels]
        for thread in threads:
            thread.start()
        _until(lambda: scheduler.metrics.value("repro_dedup_joins_total") == 2)
        scheduler.complete(scheduler.pop(timeout=1), result=encode(direct))
        for thread in threads:
            thread.join(timeout=30)
        for label, expected in ((labels[0], labels[0]), ("", "creator")):
            job = joined[label]
            assert job.deduped
            assert job.result(wait=False) == replace(direct, label=expected)
            _, _, raw = client._request("GET", f"/v1/jobs/{job.id}/result")
            assert raw == encode(replace(direct, label=expected))
        assert client.result(creator.id) == direct
        # Both joiners were answered by their submit.
        assert _http_count(idle_server, "POST", "200") == 2

    def test_a_job_still_running_at_the_deadline_answers_202(self, idle_server):
        client = ServerClient(idle_server.url, timeout=30)
        started = time.monotonic()
        job = client.submit(self.SPEC, AnalysisRequest(), wait=0.3)
        assert time.monotonic() - started >= 0.3
        assert _http_count(idle_server, "POST", "202") == 1
        assert client.status(job.id).state == "queued"
        with pytest.raises(ResultNotReady):
            job.result(wait=False)

    def test_analyze_long_polls_after_a_202(self, idle_server, monkeypatch):
        monkeypatch.setattr(ServerClient, "POLL_WAIT", 0.3)
        scheduler = idle_server.scheduler
        direct = self._direct("slow")
        results = []
        client = ServerClient(idle_server.url, timeout=30)
        thread = threading.Thread(
            target=lambda: results.append(
                client.analyze(self.SPEC, AnalysisRequest(label="slow"), timeout=30)
            )
        )
        thread.start()
        _until(lambda: _http_count(idle_server, "POST", "202") == 1)
        scheduler.complete(scheduler.pop(timeout=1), result=encode(direct))
        thread.join(timeout=30)
        assert results == [direct]
        assert _http_count(idle_server, "GET", "200") == 1

    def test_a_job_failing_within_the_wait_raises_job_failed(self, client):
        spec = ProjectSpec(workload="no-such-workload")
        with pytest.raises(JobFailed) as waited:
            client.analyze(spec, AnalysisRequest(label="waited"), timeout=60)
        with pytest.raises(JobFailed) as polled:
            client.submit(spec, AnalysisRequest(label="polled")).result(timeout=60)
        assert waited.value.status == polled.value.status == 500
        assert waited.value.error.message == polled.value.error.message
        assert "no-such-workload" in waited.value.error.message

    def test_a_job_cancelled_during_the_wait_raises_job_cancelled(self, idle_server):
        scheduler = idle_server.scheduler
        client = ServerClient(idle_server.url, timeout=30)
        errors = []

        def analyze():
            try:
                client.analyze(self.SPEC, AnalysisRequest(), timeout=30)
            except Exception as exc:  # noqa: BLE001 - checked below
                errors.append(exc)

        thread = threading.Thread(target=analyze)
        thread.start()
        _until(lambda: scheduler.job("j000001") is not None)
        scheduler.cancel("j000001")
        thread.join(timeout=30)
        assert [type(error) for error in errors] == [JobCancelled]
        assert errors[0].status == 410
        assert _http_count(idle_server, "POST", "202") == 1

    def test_shutdown_during_the_hold_answers_202_and_closes(self, idle_server):
        threading.Timer(0.3, idle_server.shutdown).start()
        body = json.dumps(to_json(ServerSubmit(project=self.SPEC))).encode()
        connection = http.client.HTTPConnection(
            idle_server.host, idle_server.port, timeout=30
        )
        started = time.monotonic()
        try:
            connection.request(
                "POST", "/v1/jobs?wait=20", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            reply = from_json(json.loads(response.read()), ServerSubmitReply)
        finally:
            connection.close()
        assert time.monotonic() - started < 10
        assert response.status == 202
        assert reply.state == "queued"
        assert response.getheader("Connection") == "close"

    def test_a_traced_analyze_is_one_trace(self):
        tracer = obs_trace.Tracer()
        previous = obs_trace.install(tracer)
        try:
            with AnalysisServer(port=0, jobs=1) as server:
                client = ServerClient(server.url, timeout=60)
                client.analyze(self.SPEC, AnalysisRequest(label="traced"), timeout=60)
                client.close()
        finally:
            obs_trace.install(previous)
        spans = tracer.drain()
        (submit,) = [span for span in spans if span.name == "client-submit"]
        assert submit.attrs["job_id"] == "j000001"
        names = {span.name for span in spans if span.trace_id == submit.trace_id}
        assert {
            "client-submit", "queue-wait", "dispatch", "worker-execute", "analyze"
        } <= names

    def test_the_server_process_neither_decodes_nor_encodes_a_result(
        self, monkeypatch
    ):
        """With the server in this process, one warm analyze builds one
        AnalysisResult here (the client's decode) and encodes none: the
        worker encodes, and the server sends its bytes."""
        built, encoded = [], []
        init, dump = AnalysisResult.__init__, serialize.to_json

        def counting_init(result, *args, **kwargs):
            built.append(threading.current_thread().name)
            init(result, *args, **kwargs)

        def counting_dump(obj):
            if isinstance(obj, AnalysisResult):
                encoded.append(threading.current_thread().name)
            return dump(obj)

        with AnalysisServer(port=0, jobs=1) as server:
            client = ServerClient(server.url, timeout=60)
            client.analyze(self.SPEC, AnalysisRequest(label="warm-up"), timeout=60)
            monkeypatch.setattr(AnalysisResult, "__init__", counting_init)
            monkeypatch.setattr(serialize, "to_json", counting_dump)
            result = client.analyze(
                self.SPEC, AnalysisRequest(label="counted"), timeout=60
            )
            client.close()
        assert result.label == "counted"
        assert built == [threading.current_thread().name]
        assert encoded == []


# --------------------------------------------------------------------------- #
# CLI --version (part of the subcommand exit-code contract)
# --------------------------------------------------------------------------- #
class TestCliVersion:
    def test_version_on_main_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_version_on_subcommands(self, capsys):
        for command in ("analyze", "check", "sweep", "fuzz", "report", "serve"):
            with pytest.raises(SystemExit) as excinfo:
                cli_main([command, "--version"])
            assert excinfo.value.code == 0
            assert "repro" in capsys.readouterr().out
