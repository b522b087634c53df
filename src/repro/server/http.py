"""HTTP/JSON front end of the analysis service (stdlib only).

Endpoints (all bodies are schema-1 envelopes, see :mod:`repro.server.wire`
and docs/server.md):

========  ==========================  =======================================
method    path                        body / reply
========  ==========================  =======================================
POST      ``/v1/jobs``                ServerSubmit → 202 ServerSubmitReply
GET       ``/v1/jobs/<id>``           → 200 ServerJobStatus
GET       ``/v1/jobs/<id>/result``    → 200 AnalysisResult (when done);
                                      409 while queued/running, 410 when
                                      cancelled, 500 ServerError when failed
POST      ``/v1/jobs/<id>/cancel``    → 200 ServerJobStatus
GET       ``/v1/jobs/<id>/events``    → 200 ``application/x-ndjson`` stream
                                      of ServerEvent lines (``?since=N``
                                      resumes), closed after the terminal
                                      event
GET       ``/healthz``                → 200 ServerStats
GET       ``/metrics``                → 200 Prometheus text exposition
POST      ``/v1/shutdown``            → 200, then graceful shutdown
========  ==========================  =======================================

Both job GETs take ``?wait=S``: the reply is held until the job is
terminal, ``S`` seconds have passed (at most :data:`MAX_LONG_POLL`) or the
server is closing, and is then the same reply as without it.

Every non-2xx response body is a :class:`~repro.server.wire.ServerError`.
The server is a :class:`ThreadingHTTPServer`: requests are handled on
daemon threads while analyses run on the :class:`~repro.server.workers.
WorkerPool`, so status polls and event streams stay responsive under load.
Connections are HTTP/1.1 keep-alive: an idle one is closed after
:data:`IDLE_TIMEOUT` seconds, a request whose body cannot be read closes
its connection, and once shutdown starts every reply carries
``Connection: close``.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional
from urllib.parse import parse_qs, urlsplit

from repro.api import serialize
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.server.queue import LANES, QueueFull, Scheduler, SchedulerClosed
from repro.server.wire import (
    TERMINAL_STATES,
    ServerError,
    ServerStats,
    ServerSubmit,
    ServerSubmitReply,
    WireError,
)
from repro.pool import DEFAULT_JOB_TIMEOUT
from repro.server.workers import WorkerPool

#: Default TCP port (0 = pick an ephemeral port; see ``AnalysisServer.url``).
DEFAULT_PORT = 8472
#: Seconds a kept-alive connection may sit idle (or stall mid-request)
#: before the server closes it.
IDLE_TIMEOUT = 15.0
#: Cap on a long-poll's ``?wait=S``: how long one request may hold its
#: handler thread.
MAX_LONG_POLL = 30.0

#: ``/healthz`` ``cache`` keys and the process-wide series behind each.
CACHE_SERIES = {
    "tier1_hits": ("repro_summary_cache_requests_total", {"tier": "1", "result": "hit"}),
    "tier1_misses": ("repro_summary_cache_requests_total", {"tier": "1", "result": "miss"}),
    "tier2_hits": ("repro_summary_cache_requests_total", {"tier": "2", "result": "hit"}),
    "tier2_misses": ("repro_summary_cache_requests_total", {"tier": "2", "result": "miss"}),
    "puts": ("repro_summary_cache_puts_total", {}),
    "store_corruptions": ("repro_store_quarantines_total", {}),
    "flush_errors": ("repro_store_flush_errors_total", {}),
}


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    analysis: "AnalysisServer"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Each reply is two writes (headers, then body): with Nagle on, the body
    # waits for the client's delayed ACK of the headers (~40 ms per reply).
    disable_nagle_algorithm = True
    #: Socket timeout: closes an idle kept-alive connection.
    timeout = IDLE_TIMEOUT
    server: _HTTPServer

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.analysis.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: Optional[dict] = None,
        log_fields: Optional[dict] = None,
    ) -> None:
        self.server.analysis._m_http.inc(method=self.command, status=str(status))
        obs_logs.get().log(
            "http_request",
            method=self.command,
            path=self.path.split("?", 1)[0],
            status=status,
            **(log_fields or {}),
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection or self.server.analysis.closing:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _reply(
        self, status: int, payload: dict, *, log_fields: Optional[dict] = None
    ) -> None:
        self._send(status, json.dumps(payload).encode(), log_fields=log_fields)

    def _error(
        self,
        status: int,
        error: str,
        message: str,
        job_id: Optional[str] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        headers = None
        if retry_after is not None:
            # Retry-After must be integral per RFC 9110; round up so the
            # client never comes back *before* the hinted drain time.
            headers = {"Retry-After": str(max(1, int(retry_after + 0.999)))}
        body = serialize.to_json(
            ServerError(
                error=error, message=message, job_id=job_id, retry_after=retry_after
            )
        )
        self._send(status, json.dumps(body).encode(), headers=headers)

    #: Upper bound on accepted request bodies; a Content-Length beyond this
    #: is rejected before any read (an absurd length must not stall the
    #: handler thread on a slow-trickle body).
    MAX_BODY_BYTES = 16 * 1024 * 1024

    def _read_body(self) -> bytes:
        """Read the request's declared body, whatever the route.

        On a kept-alive connection an unread body would be parsed as the
        next request, so a body that cannot be read in full — a bad,
        negative or oversized Content-Length, a chunked body, or fewer bytes
        than declared — raises :class:`WireError` and closes the connection.
        """
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            length = None
        if length is None:
            problem = f"Content-Length is not an integer: {header!r}"
        elif length < 0:
            problem = f"Content-Length is negative: {length}"
        elif length > self.MAX_BODY_BYTES:
            problem = f"request body too large ({length} bytes > {self.MAX_BODY_BYTES})"
        elif "Transfer-Encoding" in self.headers:
            problem = "chunked request bodies are not supported"
        else:
            try:
                raw = self.rfile.read(length) if length else b""
            except TimeoutError:
                raw = None
            if raw is not None and len(raw) == length:
                return raw
            problem = (
                f"timed out reading the {length}-byte request body"
                if raw is None
                else f"request body truncated ({len(raw)} of {length} bytes)"
            )
        self.close_connection = True
        raise WireError(problem)

    @staticmethod
    def _parse_json(raw: bytes) -> dict:
        if not raw:
            raise WireError("request body is empty")
        try:
            data = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError *and* UnicodeDecodeError
            # (invalid UTF-8 bytes); RecursionError covers pathologically
            # nested documents.  All are the client's fault: 400, never 500.
            raise WireError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise WireError("request body must be a JSON object")
        return data

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _handle(self, route: Callable[[str, Dict[str, str], bytes], None]) -> None:
        """Read the body, then route; a handler bug is a 500 envelope."""
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        query = {key: values[-1] for key, values in parse_qs(split.query).items()}
        try:
            try:
                body = self._read_body()
            except WireError as exc:
                return self._error(400, "WireError", str(exc))
            route(path, query, body)
        except (ConnectionError, TimeoutError):  # client went away or stalled
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001
            self._error(500, type(exc).__name__, str(exc))

    def do_GET(self) -> None:  # noqa: N802
        self._handle(self._get)

    def do_POST(self) -> None:  # noqa: N802
        self._handle(self._post)

    def _method_not_allowed(self) -> None:
        """Unsupported verbs answer with the error envelope, not the base
        handler's HTML 501 page (every error reply is machine-readable)."""
        self._handle(
            lambda path, query, body: self._error(
                405,
                "MethodNotAllowed",
                f"{self.command} is not supported; use GET or POST",
            )
        )

    do_DELETE = _method_not_allowed  # noqa: N815
    do_PUT = _method_not_allowed  # noqa: N815
    do_PATCH = _method_not_allowed  # noqa: N815

    def _get(self, path: str, query: Dict[str, str], body: bytes) -> None:
        if path == "/healthz":
            return self._healthz()
        if path == "/metrics":
            return self._metrics()
        parts = path.split("/")
        # /v1/jobs/<id>[/result|/events]
        if parts[:3] == ["", "v1", "jobs"] and len(parts) in (4, 5):
            tail = parts[4] if len(parts) == 5 else ""
            if tail == "events":
                since_raw = query.get("since", "0")
                try:
                    since = int(since_raw)
                except ValueError:
                    return self._error(
                        400, "BadQuery", f"since must be an integer: {since_raw!r}"
                    )
                return self._events(parts[3], since)
            if tail in ("", "result"):
                wait_raw = query.get("wait", "0")
                try:
                    wait = float(wait_raw)
                except ValueError:
                    wait = math.nan
                if not (math.isfinite(wait) and wait >= 0):
                    return self._error(
                        400,
                        "BadQuery",
                        f"wait must be a number of seconds >= 0: {wait_raw!r}",
                    )
                job = self._job_or_404(parts[3])
                if job is None:
                    return
                self._hold(job, min(wait, MAX_LONG_POLL))
                return self._result(job) if tail else self._status(job)
        self._error(404, "NotFound", f"no such endpoint: GET {path}")

    def _post(self, path: str, query: Dict[str, str], body: bytes) -> None:
        if path == "/v1/jobs":
            return self._submit(body)
        if path == "/v1/shutdown":
            return self._shutdown()
        parts = path.split("/")
        if len(parts) == 5 and parts[1] == "v1" and parts[2] == "jobs" and parts[4] == "cancel":
            return self._cancel(parts[3])
        self._error(404, "NotFound", f"no such endpoint: POST {path}")

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _submit(self, body: bytes) -> None:
        try:
            submit = serialize.from_json(self._parse_json(body), ServerSubmit)
            submit.validate()
        except (WireError, serialize.SchemaError) as exc:
            return self._error(400, type(exc).__name__, str(exc))
        scheduler = self.server.analysis.scheduler
        try:
            job = scheduler.submit(
                submit.project,
                submit.request,
                lane=submit.lane,
                timeout=submit.timeout,
                trace=submit.trace,
            )
        except QueueFull as exc:
            # Admission control: shed load with an explicit backpressure
            # envelope instead of queueing unboundedly (and eventually
            # hanging clients behind work the server cannot absorb).
            return self._error(
                429, "QueueFull", str(exc), retry_after=exc.retry_after
            )
        except SchedulerClosed as exc:
            return self._error(503, "SchedulerClosed", str(exc))
        status = scheduler.status(job)
        self._reply(
            202,
            serialize.to_json(
                ServerSubmitReply(
                    job_id=job.id,
                    state=job.state,
                    lane=job.lane,
                    deduped=job.deduped,
                    position=status.position,
                )
            ),
            log_fields={
                "job_id": job.id,
                "lane": job.lane,
                "deduped": job.deduped,
                "trace_id": (submit.trace or {}).get("trace_id"),
            },
        )

    def _job_or_404(self, job_id: str):
        job = self.server.analysis.scheduler.job(job_id)
        if job is None:
            self._error(404, "UnknownJob", f"no such job: {job_id}", job_id=job_id)
        return job

    def _hold(self, job, seconds: float) -> None:
        """Long-poll: return once ``job`` is terminal, ``seconds`` have
        passed, or the server is closing."""
        analysis = self.server.analysis
        events = analysis.scheduler.events
        deadline = time.monotonic() + seconds
        with events:
            while job.state not in TERMINAL_STATES and not analysis.closing:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                events.wait(remaining)

    def _status(self, job) -> None:
        self._reply(200, serialize.to_json(self.server.analysis.scheduler.status(job)))

    def _result(self, job) -> None:
        state = job.state
        if state == "done":
            self._reply(200, serialize.to_json(job.result))
        elif state == "cancelled":
            self._error(410, "JobCancelled", f"job {job.id} was cancelled", job.id)
        elif state == "failed":
            error = job.error
            self._reply(
                500,
                serialize.to_json(
                    ServerError(
                        error=error.error, message=error.message, job_id=job.id
                    )
                ),
            )
        else:
            self._error(
                409, "ResultNotReady", f"job {job.id} is {state}", job.id
            )

    def _cancel(self, job_id: str) -> None:
        job = self.server.analysis.scheduler.cancel(job_id)
        if job is None:
            self._error(404, "UnknownJob", f"no such job: {job_id}", job_id=job_id)
        else:
            self._reply(
                200, serialize.to_json(self.server.analysis.scheduler.status(job))
            )

    def _events(self, job_id: str, since: int) -> None:
        """Stream the job's events as NDJSON until it reaches a terminal state."""
        scheduler = self.server.analysis.scheduler
        job = self._job_or_404(job_id)
        if job is None:
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        cursor = since
        while True:
            events = scheduler.job_events(job, since=cursor)
            for event in events:
                self.wfile.write(
                    (json.dumps(serialize.to_json(event)) + "\n").encode()
                )
                cursor = event.seq
            if not events:
                # Keepalive: an empty NDJSON line (clients skip blanks).
                # Long-running analyses emit nothing between "started" and
                # the terminal event; without traffic, a client-side socket
                # read timeout would tear the stream down mid-wait.
                self.wfile.write(b"\n")
            self.wfile.flush()
            if any(event.event in TERMINAL_STATES for event in events) or (
                job.state in TERMINAL_STATES and not events
            ):
                break
            with scheduler.events:
                if not scheduler.job_events(job, since=cursor):
                    scheduler.events.wait(timeout=1.0)
            if self.server.analysis.closing:
                break
        self.close_connection = True

    def _healthz(self) -> None:
        self._reply(200, serialize.to_json(self.server.analysis.stats()))

    def _metrics(self) -> None:
        """Prometheus text exposition: this server's registry, then the
        process registry."""
        analysis = self.server.analysis
        analysis.sample_gauges()
        text = analysis.scheduler.metrics.render() + obs_metrics.REGISTRY.render()
        self._send(200, text.encode(), "text/plain; version=0.0.4; charset=utf-8")

    def _shutdown(self) -> None:
        self.close_connection = True
        self._reply(200, {"schema": 1, "kind": "ServerShutdown"})
        self.wfile.flush()
        threading.Thread(
            target=self.server.analysis.shutdown, daemon=True
        ).start()


# --------------------------------------------------------------------------- #
class AnalysisServer:
    """Scheduler + worker pool + HTTP listener, wired and lifecycle-managed.

    ``port=0`` binds an ephemeral port (read it back from :attr:`url`) —
    tests and the load benchmark rely on this.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        jobs: Optional[int] = 1,
        cache_dir: Optional[str] = None,
        verbose: bool = False,
        max_queue: Optional[int] = None,
        job_timeout: float = DEFAULT_JOB_TIMEOUT,
        trace_dir: Optional[str] = None,
        log_stream=None,
    ):
        self.scheduler = Scheduler(max_queue=max_queue)
        metrics = self.scheduler.metrics
        self._m_http = metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method and status code.",
            labelnames=("method", "status"),
        )
        self._m_queue_depth = metrics.gauge(
            "repro_queue_depth",
            "Executions waiting per lane (sampled when read).",
            labelnames=("lane",),
        )
        self._m_exec_ema = metrics.gauge(
            "repro_exec_ema_seconds",
            "Exponential moving average of execution wall time (seconds).",
        )
        self._m_uptime = metrics.gauge(
            "repro_uptime_seconds", "Seconds since the scheduler started."
        )
        self._m_workers = metrics.gauge("repro_workers", "Configured worker slots.")
        self.pool = WorkerPool(
            self.scheduler, jobs=jobs, cache_dir=cache_dir, job_timeout=job_timeout
        )
        self.verbose = verbose
        self._closing = threading.Event()
        self._shutdown_lock = threading.Lock()
        self.trace_dir = trace_dir
        self._installed_tracer: Optional[obs_trace.Tracer] = None
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            if obs_trace.active() is None:
                # Own the process tracer so the scheduler mints trace ids for
                # untraced clients too; shut down symmetric (see shutdown()).
                self._installed_tracer = obs_trace.Tracer()
                obs_trace.install(self._installed_tracer)
            self.scheduler.on_complete = self._export_trace
        if log_stream is not None:
            obs_logs.configure(log_stream)
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.analysis = self
        self._serve_thread: Optional[threading.Thread] = None

    def _export_trace(self, execution) -> None:
        """Scheduler completion hook: flush one finished execution's spans.

        One Chrome-trace file per trace id; joiner submits that share the
        execution land in their own trace files (merge=True appends when a
        file already exists, e.g. a client reusing one trace for a batch)."""
        tracer = obs_trace.active()
        if tracer is None or not execution.trace:
            return
        trace_id = execution.trace.get("trace_id")
        if not trace_id:
            return
        spans = tracer.drain(trace_id)
        if not spans:
            return
        path = os.path.join(self.trace_dir, f"trace-{trace_id}.json")
        try:
            obs_trace.write_chrome_trace(path, spans, merge=True)
        except OSError:
            pass  # a full disk must not fail the job completion path

    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    def start(self) -> "AnalysisServer":
        """Start workers and serve HTTP on a background thread."""
        self.pool.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-http", daemon=True
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Start workers and serve HTTP on the calling thread (the CLI)."""
        self.pool.start()
        self._httpd.serve_forever()

    @property
    def closing(self) -> bool:
        """True once a shutdown has started."""
        return self._closing.is_set()

    def wait_closing(self, timeout: Optional[float] = None) -> bool:
        """Block until a shutdown starts, from whatever thread or request
        (False if ``timeout`` passes first)."""
        return self._closing.wait(timeout)

    def shutdown(self) -> None:
        """Graceful: stop intake, drain workers, stop the listener.

        Safe from any thread; a call made while another shutdown runs
        returns when that one has finished."""
        with self._shutdown_lock:
            if self.closing:
                return
            self._closing.set()
            self.scheduler.close()
            self.pool.shutdown(wait=True)
            self._httpd.shutdown()
            self._httpd.server_close()
            if self._serve_thread is not None:
                self._serve_thread.join(timeout=10)
            if self.trace_dir is not None:
                self._export_leftover_spans()

    def _export_leftover_spans(self) -> None:
        # Spans not claimed by any per-trace file (server-side roots, traces
        # cut short by shutdown) still get exported.
        tracer = obs_trace.active()
        if tracer is not None:
            leftovers = tracer.drain()
            if leftovers:
                try:
                    obs_trace.write_chrome_trace(
                        os.path.join(self.trace_dir, "trace-server.json"),
                        leftovers,
                        merge=True,
                    )
                except OSError:
                    pass
        if self._installed_tracer is not None and (
            obs_trace.active() is self._installed_tracer
        ):
            obs_trace.install(None)
            self._installed_tracer = None

    def __enter__(self) -> "AnalysisServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    def sample_gauges(self) -> None:
        """Set the point-in-time gauges; both endpoints sample them right
        before reading, so a reply's fields and its series agree."""
        depth = self.scheduler.queue_depth()
        for lane in LANES:
            self._m_queue_depth.set(depth[lane], lane=lane)
        self._m_exec_ema.set(self.scheduler.exec_ema())
        self._m_uptime.set(time.time() - self.scheduler.started_at)
        self._m_workers.set(self.pool.jobs)

    def stats(self) -> ServerStats:
        """``/healthz``: every count is a read of the series ``/metrics``
        renders — per server from the scheduler's registry, ``cache`` from
        the process registry."""
        self.sample_gauges()
        server = self.scheduler.metrics
        process = obs_metrics.REGISTRY

        def by_label(name: str) -> Dict[str, float]:
            return {key[0]: value for key, value in server.get(name).series().items()}

        return ServerStats(
            uptime_seconds=server.value("repro_uptime_seconds"),
            workers=int(server.value("repro_workers")),
            jobs=self.scheduler.job_counts(),
            queue_depth={
                lane: int(depth) for lane, depth in by_label("repro_queue_depth").items()
            },
            dedup_hits=int(server.value("repro_dedup_joins_total")),
            submitted=int(sum(by_label("repro_jobs_submitted_total").values())),
            executed=int(server.value("repro_jobs_executed_total")),
            cache={
                key: int(process.value(name, **labels))
                for key, (name, labels) in CACHE_SERIES.items()
            },
            phase_seconds={
                phase: round(seconds, 6)
                for phase, seconds in by_label("repro_phase_seconds_total").items()
            },
            faults={
                kind: int(count) for kind, count in by_label("repro_faults_total").items()
            },
            queue_limit=self.scheduler.max_queue,
            exec_ema_seconds=round(server.value("repro_exec_ema_seconds"), 6),
            metrics={**server.flat_counters(), **process.flat_counters()},
        )
