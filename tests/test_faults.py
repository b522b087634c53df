"""The chaos harness's fault injectors (repro.testing.faults).

Everything here must be *deterministic from the seed* — that is the
injectors' core contract: a red chaos run reproduces exactly from its
printed seed, like the program-generator fuzz fleet.
"""

import http.client
import http.server
import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cache import SummaryStore
from repro.testing import faults


@pytest.fixture(autouse=True)
def disarm():
    """Every test starts and ends with no plan armed and no worker mark."""
    faults.clear()
    faults._IN_WORKER = False
    yield
    faults.clear()
    faults._IN_WORKER = False


# --------------------------------------------------------------------------- #
# Plan plumbing
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = faults.FaultPlan(
            seed=7, kill_rate=0.25, hang_rate=0.5, hang_seconds=9.0,
            first_attempt_only=False,
        )
        assert faults.FaultPlan.from_json(plan.to_json()) == plan

    def test_install_active_clear(self):
        assert faults.active() is None
        plan = faults.FaultPlan(seed=3, kill_rate=1.0)
        faults.install(plan)
        assert faults.active() == plan
        faults.clear()
        assert faults.active() is None
        faults.clear()  # idempotent

    def test_malformed_env_var_reads_as_no_plan(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "{not json")
        assert faults.active() is None


class TestDecide:
    def test_deterministic_and_kind_independent(self):
        a = faults.decide(1, "kill", "job-a")
        assert a == faults.decide(1, "kill", "job-a")
        assert 0.0 <= a < 1.0
        # Different kinds/keys/seeds draw independently.
        assert a != faults.decide(1, "hang", "job-a")
        assert a != faults.decide(1, "kill", "job-b")
        assert a != faults.decide(2, "kill", "job-a")


class TestOnJob:
    TASK = ({"kind": "ProjectSpec"}, {"kind": "AnalysisRequest"})

    def test_never_fires_outside_a_marked_worker(self):
        """Armed plan + unmarked process: on_job must be a no-op (a
        kill_rate=1.0 draw would otherwise os._exit this test run)."""
        faults.install(faults.FaultPlan(seed=0, kill_rate=1.0, hang_rate=1.0))
        faults.on_job(self.TASK, 0)  # surviving IS the assertion

    def test_never_fires_without_a_plan(self):
        faults.mark_worker()
        faults.on_job(self.TASK, 0)

    def test_first_attempt_only_skips_retries(self):
        faults.mark_worker()
        faults.install(
            faults.FaultPlan(seed=0, hang_rate=1.0, hang_seconds=30.0)
        )
        started = time.monotonic()
        faults.on_job(self.TASK, 1)  # attempt 1: must return immediately
        assert time.monotonic() - started < 1.0

    def test_hang_sleeps_in_marked_worker(self):
        faults.mark_worker()
        faults.install(
            faults.FaultPlan(seed=0, hang_rate=1.0, hang_seconds=0.2)
        )
        started = time.monotonic()
        faults.on_job(self.TASK, 0)
        assert time.monotonic() - started >= 0.2

    @pytest.mark.parametrize("above", [True, False])
    def test_draw_is_keyed_on_the_task_repr(self, above):
        """The hang fires exactly when the seeded draw for ``repr(task)``
        falls under the rate, whatever the process or the call."""
        draw = faults.decide(4, "hang", repr(self.TASK))
        faults.mark_worker()
        faults.install(
            faults.FaultPlan(
                seed=4,
                hang_rate=draw + 1e-9 if above else draw,
                hang_seconds=0.2,
            )
        )
        started = time.monotonic()
        faults.on_job(self.TASK, 0)
        assert (time.monotonic() - started >= 0.2) is above

    def test_server_jobs_draw_without_their_trace_context(self):
        """A server job's trace id must not steer its fault draws."""
        from repro.server.workers import _Job

        spec, request = self.TASK
        traced = _Job(spec, request, {"trace_id": "a" * 32, "parent_id": "b"})
        retraced = _Job(spec, request, {"trace_id": "c" * 32, "parent_id": "d"})
        assert repr(traced) == repr(retraced) == repr(_Job(spec, request))


class TestChaosFaultCheck:
    """The chaos sweep expects the faults its plan drew, not its rates."""

    PLAN = faults.FaultPlan(seed=11, kill_rate=0.05, hang_rate=0.05)
    KEYS = [f"job-{index}" for index in range(40)]

    def test_a_plan_that_draws_no_kill_raises_no_violation(self):
        from repro.testing.fuzz import _fault_shortfalls

        spared = [key for key in self.KEYS if self.PLAN.draw(key) is None]
        assert len(spared) > 30
        assert _fault_shortfalls(self.PLAN, spared, {}) == []

    @pytest.mark.parametrize(
        "fault, counter", [("kill", "worker_restarts"), ("hang", "job_timeouts")]
    )
    def test_a_drawn_fault_the_server_never_saw_is_a_violation(self, fault, counter):
        from repro.testing.fuzz import _fault_shortfalls

        drawn = [key for key in self.KEYS if self.PLAN.draw(key) == fault]
        assert drawn
        [problem] = _fault_shortfalls(self.PLAN, drawn, {counter: len(drawn) - 1})
        assert counter in problem
        assert _fault_shortfalls(self.PLAN, drawn, {counter: len(drawn)}) == []

    def test_the_ten_jobs_of_chaos_seed_700123_draw_no_kill(self):
        """``repro fuzz --chaos --chaos-jobs 10 --base-seed 700123`` once
        failed for want of a worker restart its plan never drew."""
        from repro.api import AnalysisRequest
        from repro.server.workers import fault_key
        from repro.testing.fuzz import _case_spec, _fault_shortfalls
        from repro.testing.generator import generate_case, render_case

        plan = faults.FaultPlan(seed=700123, kill_rate=0.3, hang_rate=0.2)
        keys = []
        for case_seed in range(700123, 700133):
            case = generate_case(case_seed)
            spec = _case_spec(case, render_case(case), "simple")
            keys.append(fault_key(spec, AnalysisRequest(entry=case.entry)))
        draws = [plan.draw(key) for key in keys]
        assert draws.count("kill") == 0 and draws.count("hang") == 2
        assert _fault_shortfalls(plan, keys, {"job_timeouts": 2}) == []


# --------------------------------------------------------------------------- #
# Store corruption
# --------------------------------------------------------------------------- #
class TestCorruptStore:
    @staticmethod
    def _seed_store(tmp_path, buckets=6):
        store = SummaryStore(str(tmp_path))
        for index in range(buckets):
            store.put(f"bucket{index}", "k", index)
        store.flush()
        return store

    def test_fraction_one_corrupts_every_bucket(self, tmp_path):
        self._seed_store(tmp_path)
        assert faults.corrupt_store(str(tmp_path), seed=1, fraction=1.0) == 6
        probe = SummaryStore(str(tmp_path))
        for index in range(6):
            assert probe.get(f"bucket{index}", "k") is None
        assert probe.corruptions == 6

    def test_deterministic_selection_from_seed(self, tmp_path):
        self._seed_store(tmp_path)
        expected = sum(
            1
            for index in range(6)
            if faults.decide(9, "corrupt", f"bucket{index}.pkl") < 0.5
        )
        assert faults.corrupt_store(str(tmp_path), seed=9, fraction=0.5) == expected

    def test_missing_directory_is_zero(self, tmp_path):
        assert faults.corrupt_store(str(tmp_path / "nope"), seed=0) == 0


# --------------------------------------------------------------------------- #
# Flaky HTTP proxy
# --------------------------------------------------------------------------- #
BODY = json.dumps({"payload": "x" * 512}).encode()


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        self.send_response(200)
        self.send_header("Content-Length", str(len(BODY)))
        self.end_headers()
        self.wfile.write(BODY)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture()
def upstream():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class TestFlakyProxy:
    def test_pass_verdict_forwards_response_intact(self, upstream):
        with faults.FlakyProxy(*upstream.server_address) as proxy:
            with urllib.request.urlopen(proxy.url, timeout=10) as reply:
                assert reply.read() == BODY
            assert proxy.verdicts == ["pass"]
            assert proxy.faults == 0

    def test_drop_verdict_kills_the_response(self, upstream):
        with faults.FlakyProxy(
            *upstream.server_address, drop_rate=1.0
        ) as proxy:
            with pytest.raises((urllib.error.URLError, OSError)):
                with urllib.request.urlopen(proxy.url, timeout=10) as reply:
                    reply.read()
            assert proxy.verdicts == ["drop"]
            assert proxy.faults == 1

    def test_truncate_verdict_cuts_the_response_short(self, upstream):
        with faults.FlakyProxy(
            *upstream.server_address, truncate_rate=1.0
        ) as proxy:
            received = b""
            try:
                with urllib.request.urlopen(proxy.url, timeout=10) as reply:
                    received = reply.read()
            except (urllib.error.URLError, OSError, http.client.HTTPException):
                pass  # a cut connection may also surface as a transport error
            assert len(received) < len(BODY)
            assert proxy.verdicts == ["truncate"]
            assert proxy.faults == 1

    def test_verdict_sequence_is_seed_deterministic(self, upstream):
        """The verdict log is a pure function of (seed, accept order)."""
        rates = dict(drop_rate=0.4, truncate_rate=0.3)
        expected = []
        rng = random.Random(11)
        for _ in range(8):
            draw = rng.random()
            if draw < rates["drop_rate"]:
                expected.append("drop")
            elif draw < rates["drop_rate"] + rates["truncate_rate"]:
                expected.append("truncate")
            else:
                expected.append("pass")
        with faults.FlakyProxy(
            *upstream.server_address, seed=11, **rates
        ) as proxy:
            for _ in range(8):
                try:
                    with urllib.request.urlopen(proxy.url, timeout=10) as reply:
                        reply.read()
                except (urllib.error.URLError, OSError, http.client.HTTPException):
                    pass
            for _ in range(100):
                if len(proxy.verdicts) >= 8:
                    break
                time.sleep(0.05)
            assert proxy.verdicts == expected

    # A kept-alive client sends many exchanges down one connection; the
    # proxy must still judge each of them.
    @pytest.fixture()
    def analysis_server(self):
        from repro.server import AnalysisServer

        with AnalysisServer(port=0, jobs=1) as server:
            yield server

    def test_keep_alive_client_draws_one_verdict_per_exchange(self, analysis_server):
        from repro.server import ServerClient

        with faults.FlakyProxy(
            analysis_server.host, analysis_server.port
        ) as proxy:
            client = ServerClient(proxy.url, timeout=10)
            client.healthz()
            sock = client._local.connection.sock
            client.healthz()
            client.healthz()
            assert client._local.connection.sock is sock, "one connection"
            assert proxy.verdicts == ["pass"] * 3

    def test_truncate_cuts_inside_the_body(self, analysis_server):
        """A truncated reply keeps its whole head and stops short of its
        Content-Length, so the client reads a short body, not a dead
        connection."""
        from repro.server import ServerClient
        from repro.server.client import ClientError

        with faults.FlakyProxy(
            analysis_server.host, analysis_server.port, truncate_rate=1.0
        ) as proxy:
            client = ServerClient(proxy.url, timeout=10)
            with pytest.raises(ClientError, match="IncompleteRead"):
                client.healthz()
            assert proxy.verdicts == ["truncate"]

    def test_drop_fails_every_exchange_of_a_keep_alive_client(self, analysis_server):
        from repro.server import ServerClient
        from repro.server.client import ClientError

        with faults.FlakyProxy(
            analysis_server.host, analysis_server.port, drop_rate=1.0
        ) as proxy:
            client = ServerClient(proxy.url, timeout=10)
            for _ in range(3):
                with pytest.raises(ClientError):
                    client.healthz()
            assert proxy.verdicts == ["drop"] * 3
            assert proxy.faults == 3
