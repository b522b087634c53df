"""The observability layer: tracing, metrics, structured logs.

The contract under test is threefold:

* **zero interference** — with no tracer installed, instrumented code paths
  record nothing and results are bit-identical to the uninstrumented seed;
* **end-to-end traces** — one ServerClient submit yields a single trace
  whose client-submit / queue-wait / dispatch / worker-execute / cache-flush
  spans share the trace id and form a consistent parent chain even across
  the worker process boundary;
* **standard formats** — ``GET /metrics`` parses as Prometheus text
  exposition, exported traces validate against the Chrome trace-event
  schema.
"""

import io
import json
import os

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
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.server import AnalysisServer, ProjectSpec, Scheduler, ServerClient
from repro.server.wire import ServerStats, ServerSubmit

MINI_C = "int main(void) { int x = 3; return x + 4; }"


@pytest.fixture(autouse=True)
def _restore_tracer():
    """Every test leaves the process untraced, whatever it installed."""
    previous = obs_trace.install(None)
    yield
    obs_trace.install(previous)


# --------------------------------------------------------------------------- #
# Tracer unit behaviour
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_stack_parenting_within_thread(self):
        tracer = obs_trace.Tracer()
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(outer)
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None

    def test_explicit_parent_beats_stack(self):
        tracer = obs_trace.Tracer()
        open_span = tracer.begin("open")
        ctx = {"trace_id": "feedface00000000", "parent_id": "p-1"}
        child = tracer.begin("child", parent=ctx)
        tracer.end(child)
        tracer.end(open_span)
        assert child.trace_id == "feedface00000000"
        assert child.parent_id == "p-1"

    def test_record_is_retroactive_and_stackless(self):
        tracer = obs_trace.Tracer()
        live = tracer.begin("live")
        tracer.record("waited", 1.0, 2.5, parent=live.context())
        tracer.end(live)
        spans = {span.name: span for span in tracer.drain()}
        assert spans["waited"].parent_id == live.span_id
        assert spans["waited"].seconds == pytest.approx(1.5)
        # record() never touched the stack: live ended cleanly as the top.
        assert spans["live"].end >= spans["live"].start

    def test_span_json_round_trip(self):
        tracer = obs_trace.Tracer()
        span = tracer.begin("s", attrs={"k": 1})
        tracer.end(span)
        clone = obs_trace.Span.from_json(span.to_json())
        assert clone.to_json() == span.to_json()

    def test_drain_by_trace_id(self):
        tracer = obs_trace.Tracer()
        a = tracer.begin("a", parent={"trace_id": "aaaa", "parent_id": None})
        tracer.end(a)
        b = tracer.begin("b", parent={"trace_id": "bbbb", "parent_id": None})
        tracer.end(b)
        drained = tracer.drain("aaaa")
        assert [span.name for span in drained] == ["a"]
        assert [span.name for span in tracer.drain()] == ["b"]

    def test_add_merges_shipped_spans(self):
        worker = obs_trace.Tracer(trace_id="cafe")
        span = worker.begin("remote")
        worker.end(span)
        shipped = [s.to_json() for s in worker.drain()]
        server = obs_trace.Tracer()
        assert server.add(shipped) == 1
        assert server.spans("cafe")[0].name == "remote"

    def test_module_helpers_are_noops_when_uninstalled(self):
        assert obs_trace.active() is None
        assert obs_trace.begin("x") is None
        obs_trace.end(None)  # must not raise
        with obs_trace.span("y") as span:
            span.set("k", "v")  # the shared no-op singleton absorbs this
        obs_trace.record("z", 0.0, 1.0)

    def test_chrome_export_and_validation(self, tmp_path):
        tracer = obs_trace.Tracer()
        span = tracer.begin("work", attrs={"n": 3})
        tracer.end(span)
        path = str(tmp_path / "t.json")
        count = obs_trace.write_chrome_trace(path, tracer.drain())
        assert count == 1
        with open(path) as handle:
            document = json.load(handle)
        assert obs_trace.validate_chrome(document) == []
        event = document["traceEvents"][0]
        assert event["ph"] == "X"
        assert event["args"]["n"] == 3
        # merge appends rather than overwriting
        extra = obs_trace.Tracer()
        more = extra.begin("more")
        extra.end(more)
        assert obs_trace.write_chrome_trace(path, extra.drain(), merge=True) == 2

    def test_validate_chrome_flags_malformed(self):
        assert obs_trace.validate_chrome([]) != []
        assert obs_trace.validate_chrome({}) != []
        bad = {"traceEvents": [{"name": 1, "ph": "X", "ts": "zero"}]}
        assert obs_trace.validate_chrome(bad)


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_gauge_histogram_render_and_parse(self):
        registry = obs_metrics.MetricsRegistry()
        counter = registry.counter("t_jobs_total", "jobs", labelnames=("lane",))
        counter.inc(lane="fast")
        counter.inc(2, lane="slow")
        gauge = registry.gauge("t_depth", "depth")
        gauge.set(7)
        histogram = registry.histogram("t_wait_seconds", "wait")
        histogram.observe(0.002)
        histogram.observe(5.0)
        parsed = obs_metrics.parse_exposition(registry.render())
        assert parsed['t_jobs_total{lane="fast"}'] == 1.0
        assert parsed['t_jobs_total{lane="slow"}'] == 2.0
        assert parsed["t_depth"] == 7.0
        assert parsed["t_wait_seconds_count"] == 2.0
        assert parsed["t_wait_seconds_sum"] == pytest.approx(5.002)
        assert parsed['t_wait_seconds_bucket{le="+Inf"}'] == 2.0
        # cumulative buckets are monotone
        buckets = [
            value for key, value in sorted(parsed.items()) if "_bucket" in key
        ]
        assert all(b >= 0 for b in buckets)

    def test_unlabelled_series_present_before_first_event(self):
        registry = obs_metrics.MetricsRegistry()
        registry.counter("t_zero_total", "never incremented")
        parsed = obs_metrics.parse_exposition(registry.render())
        assert parsed["t_zero_total"] == 0.0

    def test_get_or_create_is_idempotent_and_kind_checked(self):
        registry = obs_metrics.MetricsRegistry()
        first = registry.counter("t_c", "")
        assert registry.counter("t_c", "") is first
        with pytest.raises(ValueError):
            registry.gauge("t_c", "")

    def test_dump_diff_merge_round_trip(self):
        a = obs_metrics.MetricsRegistry()
        b = obs_metrics.MetricsRegistry()
        for registry in (a, b):
            registry.counter("t_n_total", "", labelnames=("k",))
            registry.histogram("t_h_seconds", "")
        before = b.dump()
        b.get("t_n_total").inc(3, k="x")
        b.get("t_h_seconds").observe(0.5)
        delta = obs_metrics.diff(before, b.dump())
        a.merge(delta)
        a.merge({"t_unknown_total": {"[]": 1.0}})  # version skew: ignored
        assert a.get("t_n_total").value(k="x") == 3.0
        parsed = obs_metrics.parse_exposition(a.render())
        assert parsed["t_h_seconds_count"] == 1.0

    def test_diff_drops_zero_entries(self):
        registry = obs_metrics.MetricsRegistry()
        registry.counter("t_a_total", "").inc()
        snapshot = registry.dump()
        assert obs_metrics.diff(snapshot, snapshot) == {}

    def test_gauge_merge_takes_latest_not_sum(self):
        registry = obs_metrics.MetricsRegistry()
        gauge = registry.gauge("t_g", "")
        gauge.set(5)
        gauge.merge({json.dumps([]): 9.0})
        assert gauge.value() == 9.0

    def test_parse_exposition_rejects_malformed(self):
        with pytest.raises(ValueError):
            obs_metrics.parse_exposition("t_x notanumber")

    def test_label_escaping(self):
        registry = obs_metrics.MetricsRegistry()
        counter = registry.counter("t_esc_total", "", labelnames=("p",))
        counter.inc(p='we"ird\\path')
        rendered = registry.render()
        assert 't_esc_total{p="we\\"ird\\\\path"}' in rendered
        assert obs_metrics.parse_exposition(rendered)


# --------------------------------------------------------------------------- #
# Structured logs
# --------------------------------------------------------------------------- #
class TestStructuredLogs:
    def test_json_lines_with_none_fields_dropped(self):
        stream = io.StringIO()
        logger = obs_logs.StructuredLogger(stream)
        logger.log("job_done", trace_id="abc", detail=None, seconds=1.5)
        entry = json.loads(stream.getvalue())
        assert entry["event"] == "job_done"
        assert entry["trace_id"] == "abc"
        assert entry["seconds"] == 1.5
        assert "detail" not in entry
        assert entry["pid"] == os.getpid()

    def test_disabled_logger_is_silent(self):
        logger = obs_logs.StructuredLogger()
        assert not logger.enabled
        logger.log("anything", huge="payload")  # must not raise

    def test_torn_stream_never_raises(self):
        stream = io.StringIO()
        stream.close()
        obs_logs.StructuredLogger(stream).log("event")


# --------------------------------------------------------------------------- #
# Wire schema: the new back-compat fields
# --------------------------------------------------------------------------- #
class TestWireFields:
    def test_submit_trace_round_trip(self):
        submit = ServerSubmit(
            project=ProjectSpec(source=MINI_C, name="t.c"),
            request=AnalysisRequest(),
            trace={"trace_id": "ab" * 8, "parent_id": "1-2f"},
        )
        submit.validate()
        clone = from_json(to_json(submit), ServerSubmit)
        assert clone.trace == submit.trace

    def test_submit_trace_defaults_none_and_old_envelopes_load(self):
        submit = ServerSubmit(
            project=ProjectSpec(source=MINI_C, name="t.c"),
            request=AnalysisRequest(),
        )
        data = to_json(submit)
        assert data["trace"] is None
        del data["trace"]  # a pre-observability client's envelope
        assert from_json(data, ServerSubmit).trace is None

    def test_submit_trace_validation_rejects_junk(self):
        for junk in ("not-a-dict", {"trace_id": 7}):
            data = to_json(
                ServerSubmit(
                    project=ProjectSpec(source=MINI_C, name="t.c"),
                    request=AnalysisRequest(),
                )
            )
            data["trace"] = junk
            with pytest.raises(SchemaError, match="trace"):
                from_json(data, ServerSubmit)

    def test_stats_new_fields_round_trip_and_default(self):
        stats = ServerStats(
            uptime_seconds=1.0,
            workers=2,
            jobs={},
            queue_depth={"interactive": 1},
            exec_ema_seconds=0.25,
            metrics={"repro_jobs_executed_total": 4.0},
        )
        clone = from_json(to_json(stats), ServerStats)
        assert clone.exec_ema_seconds == 0.25
        assert clone.metrics == {"repro_jobs_executed_total": 4.0}
        old = to_json(stats)
        del old["exec_ema_seconds"]
        del old["metrics"]  # an old server's /healthz body
        loaded = from_json(old, ServerStats)
        assert loaded.exec_ema_seconds == 0.0
        assert loaded.metrics == {}


# --------------------------------------------------------------------------- #
# No-op path: tracing off must not change anything
# --------------------------------------------------------------------------- #
class TestNoopPath:
    def test_untraced_analysis_records_no_spans_and_identical_results(self):
        project = Project.from_source(MINI_C, cache="off")
        baseline = AnalysisService(project).analyze(AnalysisRequest())

        assert obs_trace.active() is None
        untraced = AnalysisService(
            Project.from_source(MINI_C, cache="off")
        ).analyze(AnalysisRequest())

        tracer = obs_trace.Tracer()
        obs_trace.install(tracer)
        traced = AnalysisService(
            Project.from_source(MINI_C, cache="off")
        ).analyze(AnalysisRequest())
        spans = tracer.drain()
        obs_trace.install(None)

        assert spans, "tracing on must record spans"
        for result in (untraced, traced):
            a, b = to_json(result), to_json(baseline)
            # timings are measurements, not results
            for payload in (a, b):
                payload.pop("seconds", None)
                for entry in payload["reports"]:
                    entry["report"].pop("phases", None)
            assert a == b


# --------------------------------------------------------------------------- #
# Scheduler + server integration
# --------------------------------------------------------------------------- #
class TestServerIntegration:
    def test_end_to_end_trace_across_worker_boundary(self, tmp_path):
        """One traced submit → one exported trace with the full span chain:
        client-submit → {queue-wait, dispatch} → worker-execute →
        analyze/cache-flush, consistent across the process boundary."""
        obs_trace.install(obs_trace.Tracer())
        trace_dir = str(tmp_path / "traces")
        with AnalysisServer(port=0, jobs=2, trace_dir=trace_dir) as server:
            client = ServerClient(server.url)
            result = client.analyze(
                ProjectSpec(workload="flight-control"),
                AnalysisRequest(all_modes=True),
            )
            assert result.reports[None].wcet_cycles == 2514
            assert result.reports["air"].bcet_cycles == 284

        files = [f for f in os.listdir(trace_dir) if f.startswith("trace-")]
        assert len(files) >= 1
        exported = None
        for name in files:
            with open(os.path.join(trace_dir, name)) as handle:
                document = json.load(handle)
            assert obs_trace.validate_chrome(document) == []
            names = {event["name"] for event in document["traceEvents"]}
            if "client-submit" in names:
                exported = document
        assert exported is not None
        by_name = {}
        by_id = {}
        for event in exported["traceEvents"]:
            by_name.setdefault(event["name"], event)
            by_id[event["args"]["span_id"]] = event
        for required in (
            "client-submit", "queue-wait", "dispatch",
            "worker-execute", "analyze", "cache-flush",
        ):
            assert required in by_name, f"missing span {required!r}"
        trace_ids = {event["args"]["trace_id"] for event in exported["traceEvents"]}
        assert len(trace_ids) == 1

        def parent_name(event):
            parent = event["args"].get("parent_id")
            return by_id[parent]["name"] if parent in by_id else None

        assert by_name["client-submit"]["args"].get("parent_id") is None
        assert parent_name(by_name["queue-wait"]) == "client-submit"
        assert parent_name(by_name["dispatch"]) == "client-submit"
        assert parent_name(by_name["worker-execute"]) == "dispatch"
        assert parent_name(by_name["analyze"]) == "worker-execute"
        assert parent_name(by_name["cache-flush"]) == "worker-execute"
        # worker spans really crossed the boundary: different pid
        assert (
            by_name["worker-execute"]["pid"] != by_name["dispatch"]["pid"]
        )

    def test_metrics_endpoint_parses_with_key_series(self, tmp_path):
        with AnalysisServer(port=0, jobs=1) as server:
            client = ServerClient(server.url)
            client.analyze(ProjectSpec(source=MINI_C, name="t.c"))
            import urllib.request

            with urllib.request.urlopen(server.url + "/metrics") as response:
                assert response.headers["Content-Type"].startswith("text/plain")
                text = response.read().decode()
        parsed = obs_metrics.parse_exposition(text)
        for series in (
            'repro_jobs_submitted_total{lane="interactive"}',
            "repro_jobs_executed_total",
            'repro_queue_depth{lane="interactive"}',
            'repro_faults_total{kind="worker_restarts"}',
            'repro_faults_total{kind="rejections"}',
            "repro_exec_ema_seconds",
            "repro_uptime_seconds",
            "repro_workers",
            "repro_dedup_joins_total",
            'repro_queue_wait_seconds_count{lane="interactive"}',
            "repro_exec_seconds_count",
            'repro_summary_cache_requests_total{tier="1",result="miss"}',
            "repro_store_quarantines_total",
            "repro_simplex_pivots_total",
            "repro_fixpoint_joins_total",
            "repro_kernel_jit_compiles_total",
            'repro_http_requests_total{method="POST",status="202"}',
        ):
            assert series in parsed, f"missing series {series!r}"
        assert parsed['repro_jobs_submitted_total{lane="interactive"}'] >= 1.0
        assert parsed["repro_jobs_executed_total"] >= 1.0
        assert parsed["repro_simplex_pivots_total"] > 0.0

    def test_healthz_exposes_lane_depth_ema_and_metrics(self):
        with AnalysisServer(port=0, jobs=1) as server:
            client = ServerClient(server.url)
            client.analyze(ProjectSpec(source=MINI_C, name="t.c"))
            stats = client.healthz()
        assert set(stats.queue_depth) == {"interactive", "batch"}
        assert stats.exec_ema_seconds > 0.0
        assert stats.metrics.get("repro_jobs_executed_total", 0.0) >= 1.0

    def test_dedup_join_records_instant_span(self):
        obs_trace.install(obs_trace.Tracer())
        scheduler = Scheduler()
        spec = ProjectSpec(source=MINI_C, name="t.c")
        first = scheduler.submit(spec, AnalysisRequest())
        joiner_ctx = {"trace_id": "beef" * 4, "parent_id": "1-1"}
        second = scheduler.submit(spec, AnalysisRequest(), trace=joiner_ctx)
        assert second.deduped
        joins = obs_trace.active().spans("beef" * 4)
        assert [span.name for span in joins] == ["dedup-join"]
        join = joins[0]
        assert join.parent_id == "1-1"
        # the join span references the shared execution's own trace
        assert scheduler.job(first.id) is not None
        assert join.attrs["shared_trace_id"] is not None

    def test_untraced_submit_mints_server_side_trace(self):
        obs_trace.install(obs_trace.Tracer())
        scheduler = Scheduler()
        scheduler.submit(ProjectSpec(source=MINI_C, name="t.c"), AnalysisRequest())
        execution = scheduler.pop()
        assert execution.trace is not None
        assert execution.trace["trace_id"]
        assert execution.trace["parent_id"] is None

    def test_untraced_server_keeps_executions_traceless(self):
        assert obs_trace.active() is None
        scheduler = Scheduler()
        scheduler.submit(ProjectSpec(source=MINI_C, name="t.c"), AnalysisRequest())
        execution = scheduler.pop()
        assert execution.trace is None


# --------------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------------- #
class TestCLI:
    def test_analyze_trace_writes_valid_chrome_file(self, tmp_path, capsys):
        source = tmp_path / "t.c"
        source.write_text(MINI_C)
        out = tmp_path / "trace.json"
        code = cli_main(
            ["analyze", "--source", str(source), "--trace", str(out)]
        )
        assert code == 0
        with open(out) as handle:
            document = json.load(handle)
        assert obs_trace.validate_chrome(document) == []
        names = {event["name"] for event in document["traceEvents"]}
        assert "repro-analyze" in names
        assert "analyze" in names
        assert any(name.startswith("phase:") for name in names)
        # the CLI restored the untraced default
        assert obs_trace.active() is None
