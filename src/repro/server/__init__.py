"""Concurrent analysis service: job queue, dedup scheduler, HTTP front end.

The paper's workflow is interactive and fleet-scale — the same programs are
re-analysed continuously across modes, error scenarios and guideline audits.
A one-shot CLI pays import, program-build and cache-warmup costs on every
invocation; this package keeps all of that *warm* behind a long-lived
service:

* :mod:`repro.server.queue` — :class:`JobQueue` + :class:`Scheduler`:
  priority lanes (``interactive`` > ``batch``) and content-addressed request
  dedup — identical requests against the same project digest share one
  execution, and every subscriber receives the result;
* :mod:`repro.server.workers` — :class:`WorkerPool`: supervised worker
  processes (per-job deadlines, crash detection, kill/respawn, bounded
  retry) keeping warm :class:`~repro.api.service.AnalysisService` instances,
  one shared on-disk :class:`~repro.cache.store.SummaryStore` underneath;
* :mod:`repro.server.http` — :class:`AnalysisServer`: the stdlib HTTP/JSON
  listener (submit/status/result/cancel, streaming progress events,
  ``/healthz`` stats);
* :mod:`repro.server.wire` — the schema-1 wire messages;
* :mod:`repro.server.client` — :class:`ServerClient`, the typed client
  (``repro analyze --remote URL`` rides on it).

Results served remotely are **bit-identical** to direct facade calls: the
wire format is the exact-round-trip JSON schema of :mod:`repro.api.serialize`
and the execution path is the same :class:`~repro.api.service.AnalysisService`.

Run one with ``python -m repro serve --port 8472 --jobs 4 --cache-dir .cache``
(see docs/server.md for deployment and scaling notes).
"""

from repro.server.client import (
    ClientError,
    JobCancelled,
    JobFailed,
    RemoteError,
    RemoteJob,
    ResultNotReady,
    ServerClient,
)
from repro.server.http import DEFAULT_PORT, AnalysisServer
from repro.server.queue import JobQueue, QueueFull, Scheduler, SchedulerClosed
from repro.server.wire import (
    LANES,
    ProjectSpec,
    ServerError,
    ServerEvent,
    ServerJobStatus,
    ServerStats,
    ServerSubmit,
    ServerSubmitReply,
    WireError,
    request_digest,
)
from repro.pool import DEFAULT_JOB_TIMEOUT
from repro.server.workers import WorkerPool

__all__ = [
    "AnalysisServer",
    "ClientError",
    "DEFAULT_JOB_TIMEOUT",
    "DEFAULT_PORT",
    "JobCancelled",
    "JobFailed",
    "JobQueue",
    "LANES",
    "QueueFull",
    "ProjectSpec",
    "RemoteError",
    "RemoteJob",
    "ResultNotReady",
    "Scheduler",
    "SchedulerClosed",
    "ServerClient",
    "ServerError",
    "ServerEvent",
    "ServerJobStatus",
    "ServerStats",
    "ServerSubmit",
    "ServerSubmitReply",
    "WireError",
    "WorkerPool",
    "request_digest",
]
