"""Job queue and scheduler: priority lanes + content-addressed dedup.

The scheduler's unit of work is an :class:`Execution` — one (project digest,
request digest) pair.  Any number of :class:`Job`\\ s (one per client
submission) subscribe to an execution; identical submissions arriving while
an execution is queued or running join it instead of queueing a second run,
and every subscriber receives the finished result stamped with its own label.
This is safe for the same reason the summary cache is safe: the key digests
every input the result depends on, so sharing an execution can only skip
work, never change a bound.  An execution keeps its result as the encoded
bytes its worker sent, under the creator's label, and sends them as they are
to every subscriber with that label or none; only a joiner with a label of
its own has them decoded and encoded again under it.

Scheduling is strict-priority by lane (``interactive`` before ``batch``),
FIFO within a lane.  A queued batch execution that gains an interactive
subscriber is *promoted* — it re-enters the queue at interactive priority.

All public methods are thread-safe; worker threads block in :meth:`pop`.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import json
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional

from repro.api import serialize
from repro.api.service import AnalysisRequest, AnalysisResult
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.server.wire import (
    LANES,
    TERMINAL_STATES,
    ProjectSpec,
    ServerError,
    ServerEvent,
    ServerJobStatus,
    request_digest,
)

#: Finished (done, failed or cancelled) jobs the scheduler keeps for status
#: and result reads.  Past it the oldest finished job is forgotten and its id
#: answers 404 ``UnknownJob``; a queued or running job is never forgotten.
MAX_FINISHED_JOBS = 1024


@dataclass
class Job:
    """One client submission (subscribes to exactly one execution)."""

    id: str
    label: str
    lane: str
    execution: "Execution"
    deduped: bool = False
    submitted: float = 0.0
    #: Set when this job was cancelled individually while its (shared)
    #: execution lived on for other subscribers.
    cancelled: bool = False
    events: List[ServerEvent] = field(default_factory=list)

    @property
    def state(self) -> str:
        if self.cancelled:
            return "cancelled"
        return self.execution.state

    @property
    def error(self) -> Optional[ServerError]:
        return self.execution.error

    def result_bytes(self) -> Optional[bytes]:
        """The encoded :class:`AnalysisResult` once this job is done, under
        its own label, else the creator's (labels are not in the dedup
        key); ``None`` before that or when it failed or was cancelled.

        The worker's bytes carry the creator's label, so only a joiner that
        brought a different label costs a decode and an encode."""
        if self.state != "done":
            return None
        execution = self.execution
        if not self.label or self.label == execution.request.label:
            return execution.result
        result = serialize.from_json(json.loads(execution.result), AnalysisResult)
        return serialize.encode(replace(result, label=self.label))


@dataclass
class Execution:
    """One deduplicated unit of analysis work."""

    key: str
    spec: ProjectSpec
    request: AnalysisRequest
    lane: str
    seq: int
    state: str = "queued"
    jobs: List[Job] = field(default_factory=list)
    error: Optional[ServerError] = None
    #: The worker's encoded result, under the creator's label; set once
    #: the execution is done.
    result: Optional[bytes] = None
    started: float = 0.0
    finished: float = 0.0
    seconds: float = 0.0
    #: Per-attempt wall-clock deadline in seconds (``None`` = the worker
    #: pool's default).  Dedup joins can only *tighten* this.
    timeout: Optional[float] = None
    #: Completed execution attempts (retries after infrastructure faults).
    attempts: int = 0
    #: Trace-propagation context (``{"trace_id": .., "parent_id": ..}``)
    #: from the submitting client, or minted server-side under
    #: ``serve --trace-dir``; ``None`` = untraced.
    trace: Optional[Dict[str, Optional[str]]] = None
    #: ``time.monotonic()`` at enqueue — start of the queue-wait span.
    enqueued_mono: float = 0.0


class SchedulerClosed(Exception):
    """Raised by :meth:`Scheduler.submit` after :meth:`Scheduler.close`."""


class QueueFull(Exception):
    """Raised by :meth:`Scheduler.submit` when the lane is at capacity.

    Carries the backpressure hint the HTTP layer turns into a 429 reply with
    a ``Retry-After`` header — over-limit submissions are *rejected*, never
    silently queued or hung.
    """

    def __init__(self, lane: str, depth: int, limit: int, retry_after: float):
        super().__init__(
            f"lane {lane!r} is at capacity ({depth} queued, limit {limit}); "
            f"retry in ~{retry_after:.0f}s"
        )
        self.lane = lane
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after


class JobQueue:
    """Priority queue of executions: strict lane priority, FIFO within.

    Not thread-safe on its own — the :class:`Scheduler` serialises access.
    Promotions are handled by lazy deletion: an execution may appear twice in
    the heap; entries whose recorded lane no longer matches the execution's
    current lane (or whose execution already left the queued state) are
    skipped on pop.
    """

    def __init__(self):
        self._heap: List[tuple] = []
        self._tick = itertools.count()

    def push(self, execution: Execution) -> None:
        priority = LANES.index(execution.lane)
        heapq.heappush(self._heap, (priority, next(self._tick), execution.lane, execution))

    def pop(self) -> Optional[Execution]:
        while self._heap:
            _, _, lane, execution = heapq.heappop(self._heap)
            if execution.state == "queued" and lane == execution.lane:
                return execution
        return None

    def depth(self) -> Dict[str, int]:
        seen = set()
        counts = {lane: 0 for lane in LANES}
        for _, _, lane, execution in self._heap:
            if execution.state == "queued" and lane == execution.lane:
                if id(execution) not in seen:
                    seen.add(id(execution))
                    counts[lane] += 1
        return counts

    def position(self, target: Execution) -> int:
        """0-based position of ``target`` among queued executions."""
        live = [
            (entry[0], entry[1], entry[3])
            for entry in self._heap
            if entry[3].state == "queued" and entry[2] == entry[3].lane
        ]
        for index, (_, _, execution) in enumerate(sorted(live, key=lambda e: e[:2])):
            if execution is target:
                return index
        return -1

    def __len__(self) -> int:
        return sum(self.depth().values())


class Scheduler:
    """Thread-safe façade over the queue: submit/pop/complete/cancel/stats."""

    def __init__(self, max_queue: Optional[int] = None):
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        # Re-entrant: event streamers hold the lock through the ``events``
        # condition while calling back into ``job_events``.
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        #: Broadcast on every job event (status streams wait on this).
        self.events = threading.Condition(self._lock)
        self._queue = JobQueue()
        self._jobs: Dict[str, Job] = {}
        #: Ids of the finished jobs in ``_jobs``, oldest first.
        self._finished: Deque[str] = collections.deque()
        #: Active (queued or running) executions by dedup key.
        self._active: Dict[str, Execution] = {}
        self._job_seq = itertools.count(1)
        self._exec_seq = itertools.count(1)
        self._closed = False
        self.started_at = time.time()
        #: Admission control: max queued executions per lane (``None`` =
        #: unbounded).  Dedup joins never count against the bound — they add
        #: no work.
        self.max_queue = max_queue
        #: Set by the worker pool; sizes the Retry-After backpressure hint.
        self.workers = 1
        #: This server's own series, the one source /healthz and /metrics
        #: read (the analysis counters stay on the process registry).
        self.metrics = obs_metrics.MetricsRegistry()
        self._m_submitted = self.metrics.counter(
            "repro_jobs_submitted_total", "Job submissions accepted, per lane.",
            labelnames=("lane",),
        )
        self._m_executed = self.metrics.counter(
            "repro_jobs_executed_total", "Executions completed (done or failed)."
        )
        self._m_dedup = self.metrics.counter(
            "repro_dedup_joins_total",
            "Submissions that joined an existing identical execution.",
        )
        self._m_faults = self.metrics.counter(
            "repro_faults_total",
            "Infrastructure faults by kind (worker_restarts, job_timeouts, "
            "job_retries, rejections).",
            labelnames=("kind",),
        )
        self._m_phase_seconds = self.metrics.counter(
            "repro_phase_seconds_total",
            "Analysis-phase wall-clock seconds over finished executions.",
            labelnames=("phase",),
        )
        self._m_queue_wait = self.metrics.histogram(
            "repro_queue_wait_seconds", "Enqueue-to-dispatch wait, per lane.",
            labelnames=("lane",),
        )
        self._m_exec_seconds = self.metrics.histogram(
            "repro_exec_seconds",
            "Execution wall-clock seconds (successful attempts).",
        )
        # Pre-seed the fault and lane label sets so every series is present
        # on a scrape from the first request on (CI asserts on their presence).
        for kind in ("worker_restarts", "job_timeouts", "job_retries", "rejections"):
            self._m_faults.inc(0, kind=kind)
        for lane in LANES:
            self._m_submitted.inc(0, lane=lane)
        # Exponential moving average of execution wall-clock seconds; feeds
        # the Retry-After hint on 429 rejections (and /healthz
        # ``exec_ema_seconds``).
        self._ema_seconds = 0.0
        #: Called (outside the lock) with each execution reaching a terminal
        #: state — the trace-dir exporter hooks in here.
        self.on_complete = None

    # ------------------------------------------------------------------ #
    # Submission and dedup
    # ------------------------------------------------------------------ #
    def submit(
        self,
        spec: ProjectSpec,
        request: AnalysisRequest,
        lane: str = "interactive",
        timeout: Optional[float] = None,
        trace: Optional[Dict[str, Optional[str]]] = None,
    ) -> Job:
        if lane not in LANES:
            # Validate BEFORE touching any state: failing later (e.g. on the
            # heap push) would leave a subscriber-less zombie execution in
            # the dedup table that poisons every later identical submission.
            raise ValueError(f"unknown lane {lane!r}; available: {LANES}")
        key = request_digest(spec, request)
        with self._lock:
            if self._closed:
                raise SchedulerClosed("scheduler is shut down")
            execution = self._active.get(key)
            deduped = execution is not None
            if execution is None and self.max_queue is not None:
                # Admission control applies only to *new* executions: a dedup
                # join subscribes to work already admitted, so rejecting it
                # would add latency without shedding any load.
                depth = self._queue.depth().get(lane, 0)
                if depth >= self.max_queue:
                    self._m_faults.inc(kind="rejections")
                    raise QueueFull(lane, depth, self.max_queue, self._retry_after_hint(depth))
            self._m_submitted.inc(lane=lane)
            if execution is None:
                if trace is None and obs_trace.active() is not None:
                    # Server-side tracing (``serve --trace-dir``) covers
                    # untraced clients too: mint a fresh trace per execution.
                    trace = {"trace_id": obs_trace.new_trace_id(), "parent_id": None}
                execution = Execution(
                    key=key,
                    spec=spec,
                    request=request,
                    lane=lane,
                    seq=next(self._exec_seq),
                    timeout=timeout,
                    trace=dict(trace) if trace else None,
                    enqueued_mono=time.monotonic(),
                )
                self._active[key] = execution
                self._queue.push(execution)
                self._work.notify()
            else:
                self._m_dedup.inc()
                if trace is not None:
                    # The joiner's trace shows an instant child span pointing
                    # at the shared execution (and its primary trace), so a
                    # deduped submission is attributable end-to-end as well.
                    now = time.monotonic()
                    obs_trace.record(
                        "dedup-join",
                        now,
                        now,
                        parent=trace,
                        attrs={
                            "execution_key": execution.key,
                            "shared_trace_id": (
                                execution.trace.get("trace_id")
                                if execution.trace
                                else None
                            ),
                        },
                    )
                if timeout is not None and execution.state == "queued":
                    # The tightest subscriber deadline wins; a join can only
                    # tighten it (loosening would break the earlier caller's
                    # expectation).
                    if execution.timeout is None or timeout < execution.timeout:
                        execution.timeout = timeout
                if (
                    execution.state == "queued"
                    and LANES.index(lane) < LANES.index(execution.lane)
                ):
                    # Promotion: an interactive subscriber joined a batch
                    # execution — re-queue it at the higher priority.
                    execution.lane = lane
                    self._queue.push(execution)
            job = Job(
                id=f"j{next(self._job_seq):06d}",
                label=request.label,
                lane=lane,
                execution=execution,
                deduped=deduped,
                submitted=time.time(),
            )
            execution.jobs.append(job)
            self._jobs[job.id] = job
            self._emit(job, "queued", detail="deduped" if deduped else "")
            return job

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def pop(self, timeout: Optional[float] = None) -> Optional[Execution]:
        """Block until an execution is runnable; ``None`` on close/timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                execution = self._queue.pop()
                if execution is not None:
                    execution.state = "running"
                    execution.started = time.time()
                    now = time.monotonic()
                    waited = max(now - execution.enqueued_mono, 0.0)
                    self._m_queue_wait.observe(waited, lane=execution.lane)
                    if execution.trace is not None:
                        # The lane wait, reconstructed at dispatch: it could
                        # not be an open span (no thread owns a queued
                        # execution), so it is recorded retroactively.
                        obs_trace.record(
                            "queue-wait",
                            execution.enqueued_mono,
                            now,
                            parent=execution.trace,
                            attrs={"lane": execution.lane},
                        )
                    for job in execution.jobs:
                        if not job.cancelled:
                            self._emit(job, "started")
                    return execution
                if self._closed:
                    return None
                if deadline is None:
                    self._work.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._work.wait(remaining)

    def complete(
        self,
        execution: Execution,
        result: Optional[bytes] = None,
        error: Optional[ServerError] = None,
        seconds: float = 0.0,
        phase_seconds: Optional[Dict[str, float]] = None,
    ) -> None:
        """Record the outcome and fan it out to every subscribed job.

        ``result`` is the encoded :class:`AnalysisResult` of the execution's
        request, so it carries that request's label when it has one, and
        ``phase_seconds`` its analysis-phase wall-clock seconds."""
        with self._lock:
            if execution.state in TERMINAL_STATES:
                # A late outcome for an execution the supervisor already
                # resolved (e.g. a timed-out attempt whose result straggles
                # in) must not double-complete or resurrect the job.
                return
            execution.finished = time.time()
            execution.seconds = seconds
            self._m_executed.inc()
            if seconds > 0:
                self._m_exec_seconds.observe(seconds)
                self._ema_seconds = (
                    seconds
                    if self._ema_seconds == 0.0
                    else 0.3 * seconds + 0.7 * self._ema_seconds
                )
            if result is not None:
                execution.result = result
                execution.state = "done"
                for phase, secs in (phase_seconds or {}).items():
                    self._m_phase_seconds.inc(secs, phase=phase)
                # A copy: each terminal event may evict an older finished
                # job, which can be a cancelled subscriber of this very
                # execution (see ``_emit``).
                for job in list(execution.jobs):
                    if not job.cancelled:
                        self._emit(job, "done")
            else:
                execution.state = "failed"
                execution.error = error or ServerError(
                    error="InternalError", message="execution failed"
                )
                for job in list(execution.jobs):
                    if not job.cancelled:
                        self._emit(job, "failed", detail=execution.error.message)
            self._active.pop(execution.key, None)
            hook = self.on_complete
        if hook is not None:
            # Outside the lock: the hook does file I/O (trace export) and
            # must never stall submitters or event streams.
            try:
                hook(execution)
            except Exception:  # noqa: BLE001 - observability must not break jobs
                pass

    # ------------------------------------------------------------------ #
    # Fault accounting (worker supervisor + admission control)
    # ------------------------------------------------------------------ #
    def count_fault(self, name: str, n: int = 1) -> None:
        """Bump an infrastructure-fault counter (shows up in /healthz)."""
        self._m_faults.inc(n, kind=name)

    def exec_ema(self) -> float:
        """The execution-seconds EMA behind the Retry-After hint."""
        with self._lock:
            return self._ema_seconds

    def note_retry(self, execution: Execution, detail: str) -> None:
        """Emit a non-terminal ``retrying`` event to every live subscriber."""
        with self._lock:
            if execution.state in TERMINAL_STATES:
                return
            execution.attempts += 1
            for job in execution.jobs:
                if not job.cancelled:
                    self._emit(job, "retrying", detail=detail)

    def _retry_after_hint(self, depth: int) -> float:
        # Rough drain-time estimate: queued executions over available
        # workers, paced by the recent average execution time.  Clamped so a
        # cold server (no EMA yet) still gives a sane hint and a deep queue
        # never tells clients to wait for hours.
        per_job = self._ema_seconds or 1.0
        return min(max(depth * per_job / max(self.workers, 1), 1.0), 120.0)

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel one job; returns it, or ``None`` if unknown.

        Cancelling a subscriber of a shared execution only detaches that
        subscriber.  When the *last* live subscriber of a queued execution is
        cancelled, the execution is dropped from the queue (a running one is
        left to finish — its result still warms the cache).  Terminal jobs
        are returned unchanged.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state in TERMINAL_STATES:
                return job
            job.cancelled = True
            self._emit(job, "cancelled")
            execution = job.execution
            if execution.state == "queued" and all(
                subscriber.cancelled for subscriber in execution.jobs
            ):
                execution.state = "cancelled"
                execution.finished = time.time()
                self._active.pop(execution.key, None)
            return job

    def status(self, job: Job) -> ServerJobStatus:
        with self._lock:
            execution = job.execution
            return ServerJobStatus(
                job_id=job.id,
                state=job.state,
                lane=job.lane,
                label=job.label,
                deduped=job.deduped,
                submitted=job.submitted,
                started=execution.started,
                finished=execution.finished,
                seconds=execution.seconds,
                position=(
                    self._queue.position(execution)
                    if job.state == "queued"
                    else -1
                ),
                error=(
                    execution.error if not job.cancelled else None
                ),
            )

    def job_events(self, job: Job, since: int = 0) -> List[ServerEvent]:
        with self._lock:
            return [event for event in job.events if event.seq > since]

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def queue_depth(self) -> Dict[str, int]:
        with self._lock:
            return self._queue.depth()

    def job_counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {state: 0 for state in ("queued", "running", "done", "failed", "cancelled")}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def close(self) -> None:
        """Stop accepting work and wake every blocked :meth:`pop`."""
        with self._lock:
            self._closed = True
            self._work.notify_all()
            self.events.notify_all()

    # ------------------------------------------------------------------ #
    def _emit(self, job: Job, event: str, detail: str = "") -> None:
        # Caller holds the lock.
        job.events.append(
            ServerEvent(
                job_id=job.id,
                seq=len(job.events) + 1,
                event=event,
                state=job.state,
                detail=detail,
                ts=time.time(),
            )
        )
        if event in TERMINAL_STATES:
            # Each job emits exactly one terminal event.
            self._finished.append(job.id)
            while len(self._finished) > MAX_FINISHED_JOBS:
                evicted = self._jobs.pop(self._finished.popleft())
                # Job and execution point at each other: unlinking frees
                # both now, without waiting for the cycle collector.  A
                # caller that emits terminal events while looping over an
                # execution's jobs must loop over a copy.
                evicted.execution.jobs.remove(evicted)
        self.events.notify_all()
