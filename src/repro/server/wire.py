"""Wire messages of the analysis server — schema-1 envelopes.

Everything that crosses the HTTP boundary is a registered
:mod:`repro.api.serialize` kind, so client and server speak the exact same
versioned JSON the rest of the toolkit uses for reports:

* :class:`ProjectSpec` — a JSON-able description of a project (named
  workload, mini-C source text, or assembly text, plus annotations/processor/
  entry).  The *server* builds the real :class:`~repro.api.project.Project`
  from it; the spec's content digest is the dedup identity of the project.
* ``AnalysisOptions`` / ``AnalysisRequest`` — the existing facade types gain
  wire forms here (registered kinds), so a remote request carries exactly the
  knobs a local call would.
* :class:`ServerSubmit` / :class:`ServerSubmitReply` — job submission.
* :class:`ServerJobStatus` — the status envelope (``GET /v1/jobs/<id>``).
* :class:`ServerError` — every non-2xx response body.
* :class:`ServerEvent` — one progress event on the streaming endpoint.
* :class:`ServerStats` — the ``/healthz`` payload.

Results need no new kind: a finished job's payload *is* a serialised
:class:`~repro.api.service.AnalysisResult`, bit-identical to a local call
(the schema round-trips exactly — see docs/api.md).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional

from repro.api import serialize
from repro.api.project import PROCESSORS, Project, ProjectError
from repro.api.service import AnalysisRequest
from repro.errors import ReproError
from repro.wcet.analyzer import AnalysisOptions

#: Job lanes in descending scheduling priority.  ``interactive`` is meant for
#: a human waiting on the answer, ``batch`` for sweeps and bulk re-analysis.
LANES = ("interactive", "batch")

#: Job lifecycle states (terminal: done / failed / cancelled).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Response headers of a submit answered with its result (``POST
#: /v1/jobs?wait=S``): the job's id, and whether it joined an identical
#: execution (``true``/``false``).
JOB_ID_HEADER = "Repro-Job-Id"
DEDUPED_HEADER = "Repro-Deduped"


class WireError(ReproError):
    """A malformed or inconsistent wire message."""


# --------------------------------------------------------------------------- #
# ProjectSpec
# --------------------------------------------------------------------------- #
@dataclass
class ProjectSpec:
    """A serialisable project description the server can rebuild.

    Exactly one of ``workload`` (catalog name), ``source`` (mini-C text) or
    ``assembly`` (textual assembly) must be set.  ``annotations`` is the
    textual annotation format; for workloads it is *merged onto* the
    workload's built-in annotations, mirroring ``repro analyze``.
    """

    workload: Optional[str] = None
    source: Optional[str] = None
    assembly: Optional[str] = None
    entry: Optional[str] = None
    annotations: Optional[str] = None
    processor: str = "simple"
    name: str = ""

    def validate(self) -> None:
        """Value checks; field types are checked when the spec is loaded."""
        supplied = [s for s in (self.workload, self.source, self.assembly) if s]
        if len(supplied) != 1:
            raise WireError(
                "a ProjectSpec needs exactly one of workload=, source= or assembly="
            )
        if self.processor not in PROCESSORS:
            raise WireError(
                f"unknown processor {self.processor!r}; available: "
                f"{', '.join(sorted(PROCESSORS))}"
            )

    def digest(self) -> str:
        """Content digest — the dedup identity of this project."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:32]

    def to_project(self, cache="off") -> Project:
        """Build the project server-side (``cache`` is the *server's* policy:
        clients never choose where the server keeps its summary store)."""
        self.validate()
        if self.workload:
            project = Project.from_workload(
                self.workload,
                processor=self.processor,
                cache=cache,
                entry=self.entry,
            )
            if self.annotations:
                from repro.annotations.parser import parse_annotations

                project.annotations = project.annotations.merge(
                    parse_annotations(self.annotations)
                )
            return project
        if self.source:
            return Project.from_source(
                self.source,
                annotations=self.annotations,
                processor=self.processor,
                cache=cache,
                entry=self.entry,
                name=self.name,
            )
        return Project.from_assembly(
            self.assembly,
            annotations=self.annotations,
            processor=self.processor,
            cache=cache,
            entry=self.entry,
            name=self.name,
        )


def request_digest(spec: ProjectSpec, request: AnalysisRequest) -> str:
    """Dedup key of one (project, request) pair: the spec digest plus the
    request's envelope, so every request field is part of the identity.

    The ``label`` is deliberately excluded: two requests that differ only in
    their label are the same computation — they share one execution and each
    receives a result stamped with its own label.
    """
    payload = serialize.to_json(request)
    del payload["label"]
    text = json.dumps({"project": spec.digest(), "request": payload}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# --------------------------------------------------------------------------- #
# Submission
# --------------------------------------------------------------------------- #
@dataclass
class ServerSubmit:
    """Body of ``POST /v1/jobs``."""

    project: ProjectSpec
    request: AnalysisRequest = field(default_factory=AnalysisRequest)
    lane: str = "interactive"
    #: Per-job wall-clock deadline in seconds (``None`` = the server's
    #: default, ``--job-timeout``).  When identical submissions share one
    #: execution, the tightest subscriber deadline wins.
    timeout: Optional[float] = None
    #: Optional trace-propagation context (``{"trace_id": ..,
    #: "parent_id": ..}``) from :mod:`repro.obs.trace`: the server parents
    #: its queue-wait/dispatch/worker spans under the client's submit span,
    #: so one exported trace covers the job end-to-end.
    trace: Optional[Dict[str, Optional[str]]] = None

    def validate(self) -> None:
        """Value checks; field types are checked when the message is loaded."""
        self.project.validate()
        if self.timeout is not None and not self.timeout > 0:
            raise WireError(
                f"ServerSubmit.timeout must be positive, got {self.timeout!r}"
            )
        if self.lane not in LANES:
            raise WireError(f"unknown lane {self.lane!r}; available: {LANES}")


@dataclass
class ServerSubmitReply:
    """Body of a successful ``POST /v1/jobs`` response."""

    job_id: str
    state: str
    lane: str
    #: True when this submission joined an already queued/running execution
    #: of the identical request (content-addressed dedup).
    deduped: bool = False
    #: Queue position at submission time (0 = next to run; -1 = not queued).
    position: int = -1


# --------------------------------------------------------------------------- #
# Status / error / events / stats
# --------------------------------------------------------------------------- #
@dataclass
class ServerError:
    """Every non-2xx HTTP response carries one of these as its body."""

    error: str
    message: str
    job_id: Optional[str] = None
    #: Backpressure hint in seconds (mirrors the ``Retry-After`` header on
    #: 429 replies); ``None`` everywhere else.
    retry_after: Optional[float] = None


@dataclass
class ServerJobStatus:
    """Body of ``GET /v1/jobs/<id>`` (and of a cancel response)."""

    job_id: str
    state: str
    lane: str
    label: str = ""
    deduped: bool = False
    #: Seconds since the epoch (server clock); 0.0 = not yet.
    submitted: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    #: Wall-clock seconds the execution took (0.0 until finished).
    seconds: float = 0.0
    #: Queue position while queued (0 = next), -1 otherwise.
    position: int = -1
    error: Optional[ServerError] = None


@dataclass
class ServerEvent:
    """One line on the ``GET /v1/jobs/<id>/events`` stream."""

    job_id: str
    #: Monotonic per-job sequence number (resume streams with ``?since=``).
    seq: int
    #: ``queued`` / ``started`` / ``done`` / ``failed`` / ``cancelled``.
    event: str
    state: str
    detail: str = ""
    #: Server clock, seconds since the epoch.
    ts: float = 0.0


@dataclass
class ServerStats:
    """Body of ``GET /healthz``."""

    uptime_seconds: float = 0.0
    workers: int = 1
    #: Jobs by lifecycle state (counts over the server's lifetime).
    jobs: Dict[str, int] = field(default_factory=dict)
    #: Currently queued executions per lane.
    queue_depth: Dict[str, int] = field(default_factory=dict)
    #: Submissions that joined an existing execution instead of queueing one.
    dedup_hits: int = 0
    submitted: int = 0
    executed: int = 0
    #: Summary-cache and store counters of the whole process (every
    #: worker's deltas included); the other counts are per server.
    cache: Dict[str, int] = field(default_factory=dict)
    #: Analysis-phase wall-clock totals aggregated over finished executions.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Infrastructure-fault counters: ``worker_restarts``, ``job_timeouts``,
    #: ``job_retries``, ``rejections`` (admission control).
    faults: Dict[str, int] = field(default_factory=dict)
    #: Admission-control bound on queued executions per lane (``None`` =
    #: unbounded).
    queue_limit: Optional[int] = None
    #: Exponential moving average of execution wall-clock seconds — the
    #: signal behind the 429 Retry-After hint, now exposed directly.
    exec_ema_seconds: float = 0.0
    #: Flat counter/gauge snapshot of the server's and the process metrics
    #: registries (series name, Prometheus label syntax → value); the full
    #: exposition lives on ``GET /metrics``.
    metrics: Dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Registration with the schema codec.  The optional fields are the ones older
# peers omit: they load with their defaults.
# --------------------------------------------------------------------------- #
serialize.register(ProjectSpec)
serialize.register(AnalysisRequest)
serialize.register(ServerSubmitReply)
serialize.register(ServerJobStatus)
serialize.register(ServerEvent)
# Every knob may be omitted; an unknown knob is an error, except the retired
# knobs of older clients, which chose between execution engines and between
# ILP solvers: this code has one of each.
serialize.register(
    AnalysisOptions,
    optional=[f.name for f in fields(AnalysisOptions)],
    reject_unknown=True,
    retired=("engine", "ilp_backend"),
)
serialize.register(ServerSubmit, optional=("timeout", "trace"))
serialize.register(ServerError, optional=("retry_after",))
serialize.register(
    ServerStats, optional=("faults", "queue_limit", "exec_ema_seconds", "metrics")
)


__all__ = [
    "JOB_STATES",
    "LANES",
    "TERMINAL_STATES",
    "ProjectSpec",
    "ProjectError",
    "ServerError",
    "ServerEvent",
    "ServerJobStatus",
    "ServerStats",
    "ServerSubmit",
    "ServerSubmitReply",
    "WireError",
    "request_digest",
]
