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
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.api import serialize
from repro.api.project import PROCESSORS, Project, ProjectError
from repro.api.serialize import SchemaError, _envelope  # envelope helper
from repro.api.service import AnalysisRequest
from repro.errors import ReproError
from repro.wcet.analyzer import AnalysisOptions

#: Job lanes in descending scheduling priority.  ``interactive`` is meant for
#: a human waiting on the answer, ``batch`` for sweeps and bulk re-analysis.
LANES = ("interactive", "batch")

#: Job lifecycle states (terminal: done / failed / cancelled).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class WireError(ReproError):
    """A malformed or inconsistent wire message."""


def _require_str(value: Any, name: str, optional: bool = False) -> None:
    """Reject non-string field values at the wire boundary.

    The schema loaders only check envelope structure; without a type check a
    submission like ``{"workload": 123}`` would pass validation, crash in a
    worker and surface as a failed job (HTTP 500 on the result route) instead
    of the 400 the client deserves.
    """
    if value is None and optional:
        return
    if not isinstance(value, str):
        raise WireError(
            f"{name} must be a string{' or null' if optional else ''}, "
            f"got {type(value).__name__}"
        )


def _require_bool(value: Any, name: str) -> None:
    if not isinstance(value, bool):
        raise WireError(f"{name} must be a boolean, got {type(value).__name__}")


def _require_positive_number(value: Any, name: str) -> None:
    """Reject non-numeric / non-positive deadline values (``None`` allowed)."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(
            f"{name} must be a number or null, got {type(value).__name__}"
        )
    if not value > 0:
        raise WireError(f"{name} must be positive, got {value!r}")


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
        _require_str(self.workload, "ProjectSpec.workload", optional=True)
        _require_str(self.source, "ProjectSpec.source", optional=True)
        _require_str(self.assembly, "ProjectSpec.assembly", optional=True)
        _require_str(self.entry, "ProjectSpec.entry", optional=True)
        _require_str(self.annotations, "ProjectSpec.annotations", optional=True)
        _require_str(self.processor, "ProjectSpec.processor")
        _require_str(self.name, "ProjectSpec.name")
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


def _dump_project_spec(spec: ProjectSpec) -> Dict[str, Any]:
    return _envelope("ProjectSpec", asdict(spec))


def _load_project_spec(data: Dict[str, Any]) -> ProjectSpec:
    return ProjectSpec(
        workload=data["workload"],
        source=data["source"],
        assembly=data["assembly"],
        entry=data["entry"],
        annotations=data["annotations"],
        processor=data["processor"],
        name=data["name"],
    )


# --------------------------------------------------------------------------- #
# Wire forms of the facade's AnalysisOptions / AnalysisRequest
# --------------------------------------------------------------------------- #
def _dump_analysis_options(options: AnalysisOptions) -> Dict[str, Any]:
    return _envelope("AnalysisOptions", dict(vars(options)))


def _load_analysis_options(data: Dict[str, Any]) -> AnalysisOptions:
    # "engine" was a knob of older clients; the analyzer has one execution
    # path now, so the field is dropped rather than rejected.
    payload = {
        k: v for k, v in data.items() if k not in ("schema", "kind", "engine")
    }
    try:
        return AnalysisOptions(**payload)
    except TypeError as exc:
        raise SchemaError(f"serialised AnalysisOptions is malformed: {exc}") from None


def _dump_analysis_request(request: AnalysisRequest) -> Dict[str, Any]:
    return _envelope(
        "AnalysisRequest",
        {
            "entry": request.entry,
            "mode": request.mode,
            "all_modes": request.all_modes,
            "error_scenario": request.error_scenario,
            "options": (
                _dump_analysis_options(request.options)
                if request.options is not None
                else None
            ),
            "check_guidelines": request.check_guidelines,
            "label": request.label,
        },
    )


def _load_analysis_request(data: Dict[str, Any]) -> AnalysisRequest:
    options = data["options"]
    return AnalysisRequest(
        entry=data["entry"],
        mode=data["mode"],
        all_modes=data["all_modes"],
        error_scenario=data["error_scenario"],
        options=(
            serialize.from_json(options, AnalysisOptions)
            if options is not None
            else None
        ),
        check_guidelines=data["check_guidelines"],
        label=data["label"],
    )


def request_digest(spec: ProjectSpec, request: AnalysisRequest) -> str:
    """Dedup key of one (project, request) pair.

    The ``label`` is deliberately excluded: two requests that differ only in
    their label are the same computation — they share one execution and each
    receives a result stamped with its own label.
    """
    payload = json.dumps(
        {
            "project": spec.digest(),
            "entry": request.entry,
            "mode": request.mode,
            "all_modes": request.all_modes,
            "error_scenario": request.error_scenario,
            "options": (
                sorted(vars(request.options).items())
                if request.options is not None
                else None
            ),
            "check_guidelines": request.check_guidelines,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


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
        if not isinstance(self.project, ProjectSpec):
            raise WireError("ServerSubmit.project must be a ProjectSpec envelope")
        if not isinstance(self.request, AnalysisRequest):
            raise WireError("ServerSubmit.request must be an AnalysisRequest envelope")
        self.project.validate()
        request = self.request
        _require_str(request.entry, "AnalysisRequest.entry", optional=True)
        _require_str(request.mode, "AnalysisRequest.mode", optional=True)
        _require_str(
            request.error_scenario, "AnalysisRequest.error_scenario", optional=True
        )
        _require_str(request.label, "AnalysisRequest.label")
        _require_bool(request.all_modes, "AnalysisRequest.all_modes")
        _require_bool(request.check_guidelines, "AnalysisRequest.check_guidelines")
        _require_positive_number(self.timeout, "ServerSubmit.timeout")
        if self.trace is not None:
            if not isinstance(self.trace, dict):
                raise WireError(
                    "ServerSubmit.trace must be an object or null, got "
                    f"{type(self.trace).__name__}"
                )
            for key, value in self.trace.items():
                _require_str(key, "ServerSubmit.trace key")
                _require_str(value, f"ServerSubmit.trace[{key!r}]", optional=True)
        if self.lane not in LANES:
            raise WireError(f"unknown lane {self.lane!r}; available: {LANES}")


def _dump_server_submit(submit: ServerSubmit) -> Dict[str, Any]:
    return _envelope(
        "ServerSubmit",
        {
            "project": _dump_project_spec(submit.project),
            "request": _dump_analysis_request(submit.request),
            "lane": submit.lane,
            "timeout": submit.timeout,
            "trace": dict(submit.trace) if submit.trace is not None else None,
        },
    )


def _load_server_submit(data: Dict[str, Any]) -> ServerSubmit:
    trace = data.get("trace")
    return ServerSubmit(
        project=serialize.from_json(data["project"], ProjectSpec),
        request=serialize.from_json(data["request"], AnalysisRequest),
        lane=data["lane"],
        # Absent in pre-fault-tolerance envelopes: default, don't reject.
        timeout=data.get("timeout"),
        # Absent pre-observability; dict-ness is enforced in validate().
        trace=dict(trace) if isinstance(trace, dict) else trace,
    )


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


def _dump_server_submit_reply(reply: ServerSubmitReply) -> Dict[str, Any]:
    return _envelope("ServerSubmitReply", asdict(reply))


def _load_server_submit_reply(data: Dict[str, Any]) -> ServerSubmitReply:
    return ServerSubmitReply(
        job_id=data["job_id"],
        state=data["state"],
        lane=data["lane"],
        deduped=data["deduped"],
        position=data["position"],
    )


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


def _dump_server_error(error: ServerError) -> Dict[str, Any]:
    return _envelope("ServerError", asdict(error))


def _load_server_error(data: Dict[str, Any]) -> ServerError:
    return ServerError(
        error=data["error"],
        message=data["message"],
        job_id=data["job_id"],
        # Absent in pre-fault-tolerance envelopes: default, don't reject.
        retry_after=data.get("retry_after"),
    )


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


def _dump_server_job_status(status: ServerJobStatus) -> Dict[str, Any]:
    return _envelope(
        "ServerJobStatus",
        {
            "job_id": status.job_id,
            "state": status.state,
            "lane": status.lane,
            "label": status.label,
            "deduped": status.deduped,
            "submitted": status.submitted,
            "started": status.started,
            "finished": status.finished,
            "seconds": status.seconds,
            "position": status.position,
            "error": (
                _dump_server_error(status.error)
                if status.error is not None
                else None
            ),
        },
    )


def _load_server_job_status(data: Dict[str, Any]) -> ServerJobStatus:
    error = data["error"]
    return ServerJobStatus(
        job_id=data["job_id"],
        state=data["state"],
        lane=data["lane"],
        label=data["label"],
        deduped=data["deduped"],
        submitted=data["submitted"],
        started=data["started"],
        finished=data["finished"],
        seconds=data["seconds"],
        position=data["position"],
        error=serialize.from_json(error, ServerError) if error is not None else None,
    )


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


def _dump_server_event(event: ServerEvent) -> Dict[str, Any]:
    return _envelope("ServerEvent", asdict(event))


def _load_server_event(data: Dict[str, Any]) -> ServerEvent:
    return ServerEvent(
        job_id=data["job_id"],
        seq=data["seq"],
        event=data["event"],
        state=data["state"],
        detail=data["detail"],
        ts=data["ts"],
    )


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
    #: Summary-cache counters aggregated over every finished execution.
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
    #: Flat counter/gauge snapshot from the process metrics registry
    #: (series name, Prometheus label syntax → value); the full exposition
    #: lives on ``GET /metrics``.
    metrics: Dict[str, float] = field(default_factory=dict)


def _dump_server_stats(stats: ServerStats) -> Dict[str, Any]:
    return _envelope(
        "ServerStats",
        {
            "uptime_seconds": stats.uptime_seconds,
            "workers": stats.workers,
            "jobs": dict(stats.jobs),
            "queue_depth": dict(stats.queue_depth),
            "dedup_hits": stats.dedup_hits,
            "submitted": stats.submitted,
            "executed": stats.executed,
            "cache": dict(stats.cache),
            "phase_seconds": dict(stats.phase_seconds),
            "faults": dict(stats.faults),
            "queue_limit": stats.queue_limit,
            "exec_ema_seconds": stats.exec_ema_seconds,
            "metrics": dict(stats.metrics),
        },
    )


def _load_server_stats(data: Dict[str, Any]) -> ServerStats:
    return ServerStats(
        uptime_seconds=data["uptime_seconds"],
        workers=data["workers"],
        jobs=dict(data["jobs"]),
        queue_depth=dict(data["queue_depth"]),
        dedup_hits=data["dedup_hits"],
        submitted=data["submitted"],
        executed=data["executed"],
        cache=dict(data["cache"]),
        phase_seconds=dict(data["phase_seconds"]),
        # Absent in pre-fault-tolerance envelopes: default, don't reject.
        faults=dict(data.get("faults", {})),
        queue_limit=data.get("queue_limit"),
        # Absent pre-observability: default, don't reject.
        exec_ema_seconds=data.get("exec_ema_seconds", 0.0),
        metrics=dict(data.get("metrics", {})),
    )


# --------------------------------------------------------------------------- #
# Registration with the schema dispatcher
# --------------------------------------------------------------------------- #
_WIRE_KINDS: List = [
    (ProjectSpec, _dump_project_spec, _load_project_spec),
    (AnalysisOptions, _dump_analysis_options, _load_analysis_options),
    (AnalysisRequest, _dump_analysis_request, _load_analysis_request),
    (ServerSubmit, _dump_server_submit, _load_server_submit),
    (ServerSubmitReply, _dump_server_submit_reply, _load_server_submit_reply),
    (ServerError, _dump_server_error, _load_server_error),
    (ServerJobStatus, _dump_server_job_status, _load_server_job_status),
    (ServerEvent, _dump_server_event, _load_server_event),
    (ServerStats, _dump_server_stats, _load_server_stats),
]

for _cls, _dumper, _loader in _WIRE_KINDS:
    serialize.register(_cls, _cls.__name__, _dumper, _loader)
del _cls, _dumper, _loader


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
