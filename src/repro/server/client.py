"""Typed Python client for the analysis server.

:class:`ServerClient` wraps the wire protocol (stdlib ``http.client`` only);
the objects it accepts and returns are the same facade types a local caller
uses (:class:`~repro.api.service.AnalysisRequest` in,
:class:`~repro.api.service.AnalysisResult` out — bit-identical to a direct
:class:`~repro.api.service.AnalysisService` call, because the wire format is
the exact-round-trip schema of :mod:`repro.api.serialize`).

Each calling thread keeps one HTTP/1.1 connection to the server and reuses
it for every exchange.  A blocking :meth:`ServerClient.analyze` is one
request on that open socket when the job finishes within
:attr:`ServerClient.POLL_WAIT`: it submits with ``POST /v1/jobs?wait=S``,
whose reply carries the result.  Only a job still running then (or one that
failed or was cancelled) costs further long-polls of
``GET /v1/jobs/<id>/result?wait=S``.

Quick start::

    from repro.api import AnalysisRequest
    from repro.server import ProjectSpec, ServerClient

    client = ServerClient("http://127.0.0.1:8472")
    spec = ProjectSpec(workload="flight-control")
    result = client.analyze(spec, AnalysisRequest(all_modes=True))
    print(result.report.wcet_cycles)

    job = client.submit(spec, AnalysisRequest(mode="air"))   # async form
    for event in job.events():
        print(event.event)
    print(job.result().wcet_cycles)
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Callable, Iterator, Optional, Tuple, TypeVar
from urllib.parse import urlsplit

from repro.api import serialize
from repro.api.service import AnalysisRequest, AnalysisResult
from repro.errors import ReproError
from repro.obs import trace as obs_trace
from repro.server.wire import (
    DEDUPED_HEADER,
    JOB_ID_HEADER,
    TERMINAL_STATES,
    ProjectSpec,
    ServerError,
    ServerEvent,
    ServerJobStatus,
    ServerStats,
    ServerSubmit,
    ServerSubmitReply,
)

_T = TypeVar("_T")


class ClientError(ReproError):
    """Transport-level failure (server unreachable, malformed reply, ...)."""


class RemoteError(ReproError):
    """The server answered with a :class:`~repro.server.wire.ServerError`."""

    def __init__(
        self, status: int, error: ServerError, retry_after: Optional[float] = None
    ):
        super().__init__(f"[HTTP {status}] {error.error}: {error.message}")
        self.status = status
        self.error = error
        #: Backpressure hint: seconds to wait before retrying (from the
        #: Retry-After header and/or the error envelope, on 429/503).
        self.retry_after = retry_after if retry_after is not None else error.retry_after


class JobFailed(RemoteError):
    """The remote analysis raised (the analysis error travels back)."""


class ResultNotReady(RemoteError):
    """``result()`` was called while the job was still queued/running."""


class JobCancelled(RemoteError):
    """``result()`` was called on a cancelled job."""


_RESULT_ERRORS = {409: ResultNotReady, 410: JobCancelled, 500: JobFailed}


def _remote_error(
    status: int, headers, raw: bytes, errors: Optional[dict] = None
) -> RemoteError:
    """The typed exception for one non-2xx reply.

    The body is decoded as a :class:`~repro.server.wire.ServerError`
    envelope (a non-envelope body becomes its message); a Retry-After header
    (delta-seconds form) becomes the backpressure hint.
    """
    try:
        error = serialize.from_json(json.loads(raw), ServerError)
    except Exception:  # noqa: BLE001 - non-envelope error body
        error = ServerError(error="HTTPError", message=raw.decode(errors="replace"))
    retry_after = None
    value = headers.get("Retry-After")
    if value is not None:
        try:
            retry_after = max(float(value), 0.0)
        except ValueError:
            pass
    cls = (errors or {}).get(status, RemoteError)
    return cls(status, error, retry_after=retry_after)


class RemoteJob:
    """Handle on one submitted job."""

    def __init__(
        self,
        client: "ServerClient",
        job_id: str,
        deduped: bool,
        result: Optional[AnalysisResult] = None,
    ):
        self.client = client
        self.id = job_id
        #: True when the server joined this submission to an existing
        #: identical execution instead of queueing a new one.
        self.deduped = deduped
        #: The result the submit's own reply carried, if any.
        self._result = result

    def status(self) -> ServerJobStatus:
        return self.client.status(self.id)

    def result(self, wait: bool = True, timeout: Optional[float] = None) -> AnalysisResult:
        """The job's result; with ``wait`` (default) long-poll until it is
        terminal, for at most ``timeout`` seconds.  A result the submit's
        reply carried is returned without a request."""
        if self._result is not None:
            return self._result
        if not wait:
            return self.client.result(self.id)

        def poll(hold: float) -> Optional[AnalysisResult]:
            try:
                return self.client.result(self.id, wait=hold)
            except ResultNotReady:
                return None

        return self.client._until_terminal(self.id, timeout, poll)

    def events(self, since: int = 0) -> Iterator[ServerEvent]:
        return self.client.events(self.id, since=since)

    def cancel(self) -> ServerJobStatus:
        return self.client.cancel(self.id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteJob({self.id!r}, deduped={self.deduped})"


class ServerClient:
    """HTTP client speaking the server's schema-1 wire protocol.

    One instance may be shared by several threads: each thread gets its own
    kept-alive connection, so no two threads ever share a socket.
    """

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url.rstrip("/")
        self.timeout = timeout
        split = urlsplit(self.url)
        self._connection_class = (
            http.client.HTTPSConnection
            if split.scheme == "https"
            else http.client.HTTPConnection
        )
        self._address = (split.hostname, split.port)
        self._prefix = split.path
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        return self._connection_class(*self._address, timeout=timeout)

    def _exchange(
        self, method: str, path: str, body: Optional[bytes], timeout: float
    ) -> Tuple[int, http.client.HTTPMessage, bytes]:
        """One request/reply on this thread's kept-alive connection.

        A request that fails on a *reused* connection before any byte of
        the reply arrives is resent once on a fresh connection: the server
        closed the idle connection.  Every other transport failure drops
        the connection (the next call reconnects) and raises
        :class:`ClientError`.
        """
        headers = {"Content-Type": "application/json"} if body else {}
        resend = True
        while True:
            connection = getattr(self._local, "connection", None)
            if connection is None:
                connection = self._local.connection = self._connect(timeout)
            reused = connection.sock is not None
            connection.timeout = timeout
            if reused:
                connection.sock.settimeout(timeout)
            try:
                try:
                    connection.request(
                        method, self._prefix + path, body=body, headers=headers
                    )
                    response = connection.getresponse()
                except ConnectionError:
                    if not (reused and resend):
                        raise
                    resend = False
                    connection.close()
                    continue
                return response.status, response.headers, response.read()
            except (http.client.HTTPException, OSError) as exc:
                connection.close()
                if isinstance(exc, ConnectionRefusedError):
                    raise ClientError(
                        f"cannot reach analysis server at {self.url}: {exc}"
                    ) from None
                raise ClientError(
                    f"transport failure talking to {self.url}: "
                    f"{type(exc).__name__}: {exc}"
                ) from None

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        timeout: Optional[float] = None,
        result_endpoint: bool = False,
    ) -> Tuple[int, http.client.HTTPMessage, bytes]:
        """One request/reply exchange; a non-2xx reply raises.

        ``result_endpoint`` maps the result route's state-signalling status
        codes (409/410/500) to the typed exceptions; everywhere else a
        non-2xx reply — including a handler bug surfacing as 500 — is a
        plain :class:`RemoteError`, never a fake analysis outcome.
        """
        body = json.dumps(payload).encode() if payload is not None else None
        status, headers, raw = self._exchange(
            method, path, body, self.timeout if timeout is None else timeout
        )
        if status >= 400:
            raise _remote_error(
                status, headers, raw, _RESULT_ERRORS if result_endpoint else None
            )
        return status, headers, raw

    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        timeout: Optional[float] = None,
        result_endpoint: bool = False,
    ) -> dict:
        """:meth:`_request`'s reply body, decoded from JSON."""
        return self._json(
            self._request(method, path, payload, timeout, result_endpoint)[2]
        )

    def _json(self, raw: bytes) -> dict:
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ClientError(f"malformed reply from {self.url}: {exc}") from None

    def _long_poll(self, path: str, wait: Optional[float]) -> Tuple[str, float]:
        """``path`` with a long-poll ``?wait=`` query, and the socket timeout
        that leaves the server ``wait`` seconds to answer."""
        if wait is None:
            return path, self.timeout
        return f"{path}?wait={wait:.3f}", self.timeout + wait

    # ------------------------------------------------------------------ #
    # Protocol surface
    # ------------------------------------------------------------------ #
    #: How many times ``submit`` retries a 429 (admission-control) rejection
    #: before surfacing it, and the cap on how long one Retry-After hint can
    #: make it sleep.
    SUBMIT_RETRIES = 4
    RETRY_AFTER_CAP = 30.0

    def submit(
        self,
        spec: ProjectSpec,
        request: Optional[AnalysisRequest] = None,
        lane: str = "interactive",
        job_timeout: Optional[float] = None,
        retries: Optional[int] = None,
        wait: Optional[float] = None,
    ) -> RemoteJob:
        """Submit one analysis; honors admission-control backpressure.

        A 429 rejection is retried up to ``retries`` times (default
        :attr:`SUBMIT_RETRIES`; pass 0 to surface the first rejection),
        sleeping the server's Retry-After hint — capped at
        :attr:`RETRY_AFTER_CAP` and jittered so synchronized clients don't
        re-stampede the queue on the same tick.

        ``wait`` asks the server to hold its reply until the job is
        terminal, for at most ``wait`` seconds: a job done by then comes
        back with its result, which the returned job's ``result()`` hands
        over without another request.
        """
        # When this process traces, the span context rides the wire so the
        # server-side queue/dispatch/worker spans join the client's trace.
        span = obs_trace.begin(
            "client-submit", attrs={"lane": lane, "url": self.url}
        )
        submit = ServerSubmit(
            project=spec,
            request=request or AnalysisRequest(),
            lane=lane,
            timeout=job_timeout,
            trace=span.context() if span is not None else None,
        )
        payload = serialize.to_json(submit)
        path, timeout = self._long_poll("/v1/jobs", wait)
        budget = self.SUBMIT_RETRIES if retries is None else retries
        attempt = 0
        try:
            while True:
                try:
                    status, headers, raw = self._request("POST", path, payload, timeout)
                    if status == 200:
                        job_id = headers.get(JOB_ID_HEADER)
                        if not job_id:
                            raise ClientError(
                                f"malformed reply from {self.url}: a result "
                                f"without its {JOB_ID_HEADER} header"
                            )
                        job = RemoteJob(
                            self,
                            job_id,
                            headers.get(DEDUPED_HEADER) == "true",
                            serialize.from_json(self._json(raw), AnalysisResult),
                        )
                    else:
                        reply = serialize.from_json(self._json(raw), ServerSubmitReply)
                        job = RemoteJob(self, reply.job_id, reply.deduped)
                    if span is not None:
                        span.set("job_id", job.id)
                        span.set("deduped", job.deduped)
                    return job
                except RemoteError as exc:
                    if exc.status != 429 or attempt >= budget:
                        raise
                    hint = exc.retry_after if exc.retry_after is not None else 1.0
                    pause = min(hint, self.RETRY_AFTER_CAP)
                    time.sleep(pause * (0.5 + random.random() * 0.5))
                    attempt += 1
        finally:
            obs_trace.end(span)

    def status(self, job_id: str, wait: Optional[float] = None) -> ServerJobStatus:
        """The job's status; ``wait`` long-polls: the server holds the reply
        until the job is terminal or ``wait`` seconds have passed."""
        path, timeout = self._long_poll(f"/v1/jobs/{job_id}", wait)
        return serialize.from_json(
            self._call("GET", path, timeout=timeout), ServerJobStatus
        )

    def result(self, job_id: str, wait: Optional[float] = None) -> AnalysisResult:
        """The job's result (one exchange; :class:`ResultNotReady` while it
        runs).  ``wait`` long-polls as in :meth:`status`."""
        path, timeout = self._long_poll(f"/v1/jobs/{job_id}/result", wait)
        return serialize.from_json(
            self._call("GET", path, timeout=timeout, result_endpoint=True),
            AnalysisResult,
        )

    def cancel(self, job_id: str) -> ServerJobStatus:
        return serialize.from_json(
            self._call("POST", f"/v1/jobs/{job_id}/cancel", {}), ServerJobStatus
        )

    def events(self, job_id: str, since: int = 0) -> Iterator[ServerEvent]:
        """Yield the job's progress events live, ending at the terminal one.

        The stream has a connection of its own, which the server closes
        after the terminal event.
        """
        connection = self._connect(self.timeout)
        try:
            connection.request(
                "GET", f"{self._prefix}/v1/jobs/{job_id}/events?since={since}"
            )
            response = connection.getresponse()
            if response.status >= 400:
                raise _remote_error(response.status, response.headers, response.read())
            for line in response:
                line = line.strip()
                if line:
                    yield serialize.from_json(json.loads(line), ServerEvent)
        except (http.client.HTTPException, OSError) as exc:
            raise ClientError(
                f"transport failure talking to {self.url}: "
                f"{type(exc).__name__}: {exc}"
            ) from None
        finally:
            connection.close()

    #: ``wait`` and ``result(wait=True)`` re-raise after this many
    #: *consecutive* failed polls (a dead server must surface as an error,
    #: not a silent spin).
    MAX_WAIT_FAILURES = 8
    #: Backoff bounds for the hiccup-retry loop: doubles from the floor to
    #: the ceiling, resets on any successful exchange.
    WAIT_BACKOFF_MIN = 0.05
    WAIT_BACKOFF_MAX = 2.0
    #: Seconds one long-poll asks the server to hold its reply.
    POLL_WAIT = 10.0

    def wait(self, job_id: str, timeout: Optional[float] = None) -> ServerJobStatus:
        """Block until the job reaches a terminal state (long-polling its
        status); raises :class:`ClientError` on timeout."""

        def poll(hold: float) -> Optional[ServerJobStatus]:
            status = self.status(job_id, wait=hold)
            return status if status.state in TERMINAL_STATES else None

        return self._until_terminal(job_id, timeout, poll)

    def _until_terminal(
        self,
        job_id: str,
        timeout: Optional[float],
        poll: Callable[[float], Optional[_T]],
    ) -> _T:
        """Repeat the long-poll ``poll(hold)`` until it returns a value.

        Failed polls (transport errors, 429/5xx replies) are retried with
        capped, *jittered* exponential backoff — jitter decorrelates clients
        that all lost the same server, so reconnects don't arrive as a
        thundering herd.  A 429/503 reply carrying a Retry-After hint
        overrides the backoff with the server's own estimate (capped the
        same way).  After :attr:`MAX_WAIT_FAILURES` consecutive failures the
        last error is re-raised instead of spinning until the deadline; any
        other 4xx, and a failed or cancelled job, raise at once.  A poll
        that answers "not yet" well before its hold ran out (a server
        shutting down, or one that ignores ``wait``) is paced by the same
        backoff.  The deadline is checked *before* every exchange, so a wait
        can never overshoot the caller's timeout by a poll interval.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        backoff = self.WAIT_BACKOFF_MIN
        failures = 0
        while True:
            begun = time.monotonic()
            if deadline is not None and begun >= deadline:
                raise ClientError(f"timed out waiting for job {job_id}")
            hold = self.POLL_WAIT
            if deadline is not None:
                hold = min(hold, deadline - begun)
            try:
                value = poll(hold)
            except (ClientError, RemoteError) as exc:
                code = getattr(exc, "status", 0)
                if isinstance(exc, JobFailed) or (400 <= code < 500 and code != 429):
                    raise
                failures += 1
                if failures >= self.MAX_WAIT_FAILURES:
                    raise
                hinted = getattr(exc, "retry_after", None)
                pause = min(hinted, self.RETRY_AFTER_CAP) if hinted else backoff
            else:
                if value is not None:
                    return value
                failures = 0
                if time.monotonic() - begun >= hold / 2:
                    backoff = self.WAIT_BACKOFF_MIN
                    continue
                pause = backoff
            pause *= 0.5 + random.random() * 0.5
            if deadline is not None:
                pause = min(pause, max(deadline - time.monotonic(), 0.0))
            time.sleep(pause)
            backoff = min(backoff * 2, self.WAIT_BACKOFF_MAX)

    def healthz(self) -> ServerStats:
        return serialize.from_json(self._call("GET", "/healthz"), ServerStats)

    def shutdown(self) -> None:
        """Ask the server to shut down gracefully."""
        self._call("POST", "/v1/shutdown", {})

    def close(self) -> None:
        """Close the calling thread's kept-alive connection; its next call
        opens a new one."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def analyze(
        self,
        spec: ProjectSpec,
        request: Optional[AnalysisRequest] = None,
        lane: str = "interactive",
        timeout: Optional[float] = None,
        job_timeout: Optional[float] = None,
    ) -> AnalysisResult:
        """Submit and block for the result — the remote twin of
        :meth:`repro.api.service.AnalysisService.analyze`.

        ``timeout`` bounds how long *this client* waits; ``job_timeout`` is
        the server-side per-attempt execution deadline.  The submit itself
        waits up to :attr:`POLL_WAIT` for the result, so a job that finishes
        by then costs one exchange; a later one is long-polled.
        """
        started = time.monotonic()
        hold = self.POLL_WAIT if timeout is None else min(self.POLL_WAIT, timeout)
        job = self.submit(spec, request, lane=lane, job_timeout=job_timeout, wait=hold)
        if timeout is not None:
            timeout = max(timeout - (time.monotonic() - started), 0.0)
        return job.result(wait=True, timeout=timeout)
