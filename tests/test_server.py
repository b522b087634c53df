"""The analysis server: wire schema, scheduler, worker pool, HTTP, client.

The acceptance bar for everything here is *bit-identical results*: a job
served over HTTP must reproduce a direct :class:`AnalysisService` call field
for field (wall-clock phase timings excluded — they are measurements, not
results), including the pinned flight-control per-mode bounds.
"""

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
from dataclasses import fields, replace

import pytest

from repro.api import (
    AnalysisRequest,
    AnalysisService,
    Project,
    SchemaError,
    from_json,
    to_json,
)
from repro.api.cli import main as cli_main
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
from repro.obs import metrics as obs_metrics
from repro.server import http as server_http
from repro.server.client import ClientError, JobCancelled
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
        AnalysisOptions(ilp_backend="simplex", compute_bcet=False,
                        max_contexts_per_function=3),
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
    return AnalysisResult(label=label, entry="main", processor="simple")


class TestScheduler:
    def test_identical_submissions_share_one_execution(self):
        scheduler = Scheduler()
        spec = ProjectSpec(workload="flight-control")
        first = scheduler.submit(spec, AnalysisRequest(label="first"))
        second = scheduler.submit(spec, AnalysisRequest(label="second"))
        assert not first.deduped and second.deduped
        assert first.execution is second.execution
        assert scheduler.dedup_hits == 1

        execution = scheduler.pop(timeout=1)
        assert execution is first.execution
        assert scheduler.pop(timeout=0.05) is None  # only ONE execution queued

        scheduler.complete(execution, result=_fake_result("computed"))
        # Both subscribers got the result, each under its own label.
        assert first.result.label == "first"
        assert second.result.label == "second"
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
        assert keeper.state == "done" and keeper.result is not None
        assert follower.state == "cancelled" and follower.result is None

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
        assert scheduler.faults["rejections"] == 1
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

    def test_late_outcome_after_terminal_state_is_ignored(self):
        """A straggling attempt's result must not resurrect a resolved job."""
        scheduler = Scheduler()
        job = scheduler.submit(ProjectSpec(workload="flight-control"), AnalysisRequest())
        execution = scheduler.pop(timeout=1)
        scheduler.complete(
            execution, error=ServerError(error="JobTimeout", message="deadline")
        )
        assert job.state == "failed"
        executed = scheduler.executed
        scheduler.complete(execution, result=_fake_result())  # straggler
        assert job.state == "failed" and job.result is None
        assert scheduler.executed == executed


# --------------------------------------------------------------------------- #
# Worker pool (inline mode, no HTTP): results equal the direct facade
# --------------------------------------------------------------------------- #
class TestWorkerPool:
    def test_inline_pool_serves_bit_identical_results(self):
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
            assert result_identity(job.result) == result_identity(direct)
        finally:
            scheduler.close()
            pool.shutdown()

    def test_process_pool_shares_store_and_matches_direct(self, tmp_path):
        """jobs>1: analyses run in worker *processes* that share one on-disk
        summary store, and results stay bit-identical to direct calls."""
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
                assert result_identity(job.result) == result_identity(direct)
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
# Supervised pool (jobs >= 2): crash/deadline fault tolerance
# --------------------------------------------------------------------------- #
class TestSupervisedPool:
    @staticmethod
    def _wait(jobs, seconds=120):
        deadline = time.monotonic() + seconds
        while any(job.state not in ("done", "failed") for job in jobs):
            assert time.monotonic() < deadline, "supervised pool stalled"
            time.sleep(0.05)

    def test_worker_killed_mid_job_is_respawned_and_job_retried(self, tmp_path):
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
        pool = WorkerPool(scheduler, jobs=2, cache_dir=str(tmp_path), job_timeout=120.0)
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
            assert result_identity(job.result) == result_identity(direct)
            assert scheduler.faults.get("worker_restarts", 0) >= 1
            assert scheduler.faults.get("job_retries", 0) >= 1
            assert any(
                event.event == "retrying" for event in job.events
            ), [event.event for event in job.events]
        finally:
            fault_injection.clear()
            scheduler.close()
            pool.shutdown()

    def test_deadline_expiry_surfaces_typed_job_timeout(self, tmp_path):
        """A job hanging past its per-job deadline is killed and — with the
        retry budget exhausted — fails with a typed JobTimeout envelope."""
        fault_injection.install(
            fault_injection.FaultPlan(seed=5, hang_rate=1.0, hang_seconds=30.0)
        )
        scheduler = Scheduler()
        pool = WorkerPool(
            scheduler,
            jobs=2,
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
            assert scheduler.faults.get("job_timeouts", 0) >= 1
        finally:
            fault_injection.clear()
            scheduler.close()
            pool.shutdown()

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
            assert scheduler.faults.get("job_retries", 0) == 0
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
        assert stats.cache.get("puts", 0) >= 0  # counters merged in

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
            ("ilp_backend", 5),
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
class TestQueuedJobHTTP:
    @pytest.fixture()
    def idle_server(self):
        server = AnalysisServer(port=0, jobs=1)
        # Start ONLY the listener — no worker pool, so jobs never leave the
        # queue and the not-ready/cancel paths are deterministic.
        thread = threading.Thread(target=server._httpd.serve_forever, daemon=True)
        thread.start()
        yield server
        server.scheduler.close()
        server._httpd.shutdown()
        server._httpd.server_close()

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
def _http_requests() -> float:
    return sum(
        value
        for series, value in obs_metrics.REGISTRY.flat_counters().items()
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
    def test_analyze_calls_share_one_connection_two_requests_each(self, counted_server):
        client = ServerClient(counted_server.url, timeout=60)
        spec = ProjectSpec(source=MINI_C, name="t.c")
        client.analyze(spec, AnalysisRequest(label="cold"), timeout=60)
        before = _http_requests()
        for index in range(5):
            result = client.analyze(spec, AnalysisRequest(label=f"warm-{index}"), timeout=60)
            assert result.label == f"warm-{index}"
        assert _http_requests() - before == 2 * 5
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
        for command in ("analyze", "check", "sweep", "bench", "report", "serve"):
            with pytest.raises(SystemExit) as excinfo:
                cli_main([command, "--version"])
            assert excinfo.value.code == 0
            assert "repro" in capsys.readouterr().out
