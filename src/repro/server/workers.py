"""The server's worker pool: supervised workers, warm services, one store.

Every ``--jobs`` value runs its jobs the same way: ``resolve_jobs(jobs)``
dispatcher threads (one at ``--jobs 1``) run their executions on a
:class:`repro.pool.SupervisedPool` of as many worker processes.  The pool
enforces the per-job wall-clock deadline (``Execution.timeout``, defaulting
to the server's ``--job-timeout``), detects worker death (EOF on the pipe)
and hung jobs (deadline expiry), kills and respawns the worker, and retries
infrastructure faults a bounded number of times before the dispatcher fails
the job with a typed ``ServerError`` (``WorkerCrashed`` / ``JobTimeout``).
Deterministic :class:`~repro.errors.ReproError`\\ s fail the job at once.
Every worker keeps its own warm-service table and in-process cache tier; all
share the server's on-disk :class:`~repro.cache.store.SummaryStore` (safe
under the store's advisory file locking).  A worker ships each job's spans
and metric delta back with its outcome, and the dispatcher merges both into
the server process.

No job runs in the server process, so ``--jobs 1`` pays for a process
boundary too: one pipe round trip per job (a warm flight-control/leon2
all-modes job takes about 1.8 ms through one worker against 1.5 ms called
in-process; docs/server.md, "Scaling notes"), and a worker forked while the
server's threads run.  A fork that leaves its worker hung is killed at the
deadline and the job retried, like any other hang.

Work crosses the process boundary as wire JSON (:mod:`repro.server.wire` /
:mod:`repro.api.serialize`), which round-trips exactly — a served result is
bit-identical to a direct facade call.  A worker sends its result back
already encoded, as the bytes the HTTP layer replies with, together with the
per-phase seconds the server's metrics need: the server process decodes
and re-encodes a result only for a dedup joiner that brings a label of its
own (:meth:`repro.server.queue.Job.result_bytes`).
"""

from __future__ import annotations

import functools
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.summaries import SummaryCache
from repro.api import serialize
from repro.api.service import AnalysisRequest, AnalysisService
from repro.cache import SummaryStore
from repro.errors import ReproError
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.pool import (
    CRASH_RETRIES,
    DEFAULT_JOB_TIMEOUT,
    TIMEOUT_RETRIES,
    JobTimeout,
    SupervisedPool,
    WorkerCrashed,
    resolve_jobs,
)
from repro.server.queue import Execution, Scheduler
from repro.server.wire import ProjectSpec, ServerError

#: Warm AnalysisService instances kept per worker (LRU-evicted beyond this).
WARM_SERVICES_PER_WORKER = 8


class _WarmServices:
    """Per-process table of warm services keyed by project-spec digest."""

    def __init__(self, cache_dir: Optional[str]):
        self.cache = SummaryCache(store=SummaryStore(cache_dir) if cache_dir else None)
        self._services: "OrderedDict[str, AnalysisService]" = OrderedDict()

    def service(self, spec: ProjectSpec) -> AnalysisService:
        key = spec.digest()
        service = self._services.get(key)
        if service is not None:
            self._services.move_to_end(key)
            return service
        # The worker's cache owns the persistent store; the project itself
        # must not resolve a second one (or fall back to ambient defaults).
        project = spec.to_project(cache="off")
        project.build()  # compile once, while we're warming up anyway
        service = AnalysisService(project, summary_cache=self.cache)
        self._services[key] = service
        while len(self._services) > WARM_SERVICES_PER_WORKER:
            self._services.popitem(last=False)
        return service


@dataclass(frozen=True)
class _Job:
    """One wire-encoded job as the pool ships it to a worker."""

    spec: dict
    request: dict
    #: Kept out of the repr, which seeded fault draws are keyed on.
    trace: Optional[Dict[str, Optional[str]]] = field(default=None, repr=False)


def fault_key(spec: ProjectSpec, request: AnalysisRequest) -> str:
    """The key seeded fault draws use for an execution of ``request`` on
    ``spec`` (:func:`repro.testing.faults.on_job` keys on the task's repr)."""
    return repr(_Job(serialize.to_json(spec), serialize.to_json(request)))


def _serve(warm: _WarmServices, job: _Job) -> tuple:
    """Execute one job in a pool worker.

    Never raises.  Returns ``(result, phases, error, seconds, obs)``:
    ``result`` is the encoded :class:`~repro.api.service.AnalysisResult`
    (:func:`repro.api.serialize.encode`) and ``phases`` its analysis-phase
    seconds summed over its reports, both ``None`` when the job failed;
    ``obs`` carries the job's serialised spans and the process registry's
    metric delta back over the pipe — the supervisor merges both into the
    server process.
    """
    metrics_before = obs_metrics.REGISTRY.dump()
    tracer = exec_span = None
    if job.trace is not None:
        # A per-job tracer continues the propagated trace.
        tracer = obs_trace.Tracer(trace_id=job.trace.get("trace_id"))
        obs_trace.install(tracer)
        exec_span = obs_trace.begin("worker-execute", parent=job.trace)
    started = time.perf_counter()
    try:
        spec = serialize.from_json(job.spec, ProjectSpec)
        request = serialize.from_json(job.request, AnalysisRequest)
        analysed = warm.service(spec).analyze(request)
        result = serialize.encode(analysed)
        phases: Dict[str, float] = {}
        for report in analysed.reports.values():
            for phase, secs in report.phase_seconds().items():
                phases[phase] = phases.get(phase, 0.0) + secs
        error = None
    except ReproError as exc:
        result = phases = None
        error = (type(exc).__name__, str(exc))
    except Exception as exc:  # noqa: BLE001 - a worker must never die silently
        result = phases = None
        error = (type(exc).__name__, f"{exc}\n{traceback.format_exc(limit=5)}")
    seconds = time.perf_counter() - started
    flush_span = obs_trace.begin("cache-flush")
    try:
        # Persists what a failed analysis staged (a finished one has flushed
        # already).  The store counts and survives its own I/O errors, so
        # anything raised here repeats the failure the job already reports.
        warm.cache.flush()
    except Exception:  # noqa: BLE001 - flush failure must not kill the job
        pass
    obs_trace.end(flush_span)
    obs_trace.end(exec_span)
    spans = []
    if tracer is not None:
        obs_trace.install(None)
        spans = [span.to_json() for span in tracer.drain()]
    obs = {
        "spans": spans,
        "metrics": obs_metrics.diff(metrics_before, obs_metrics.REGISTRY.dump()),
    }
    return result, phases, error, seconds, obs


def _worker_serve(cache_dir: Optional[str]) -> Callable[[_Job], tuple]:
    """Pool-worker setup: a warm-service table of the worker's own."""
    return functools.partial(_serve, _WarmServices(cache_dir))


# --------------------------------------------------------------------------- #
class WorkerPool:
    """Pulls executions from a :class:`Scheduler` and runs them to completion."""

    def __init__(
        self,
        scheduler: Scheduler,
        jobs: Optional[int] = 1,
        cache_dir: Optional[str] = None,
        job_timeout: float = DEFAULT_JOB_TIMEOUT,
        crash_retries: int = CRASH_RETRIES,
        timeout_retries: int = TIMEOUT_RETRIES,
    ):
        self.scheduler = scheduler
        self.jobs = resolve_jobs(jobs)
        self.job_timeout = job_timeout
        self._pool = SupervisedPool(
            _worker_serve,
            self.jobs,
            setup_args=(cache_dir,),
            crash_retries=crash_retries,
            timeout_retries=timeout_retries,
        )
        self._threads: list = []
        self._started = False
        scheduler.workers = self.jobs

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for index in range(self.jobs):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _dispatch_loop(self) -> None:
        while True:
            execution = self.scheduler.pop()
            if execution is None:
                return
            self._run(execution)

    # ------------------------------------------------------------------ #
    def _run(self, execution: Execution) -> None:
        timeout = execution.timeout if execution.timeout is not None else self.job_timeout
        logger = obs_logs.get()
        trace_id = execution.trace.get("trace_id") if execution.trace else None
        # The dispatch span covers every attempt (retries included); the
        # worker-execute spans recorded inside _serve parent under it.
        dispatch_span = (
            obs_trace.begin(
                "dispatch",
                parent=execution.trace,
                attrs={"lane": execution.lane, "execution_key": execution.key},
            )
            if execution.trace is not None
            else None
        )
        job = _Job(
            serialize.to_json(execution.spec),
            serialize.to_json(execution.request),
            dispatch_span.context() if dispatch_span is not None else execution.trace,
        )

        def on_fault(fault: ReproError, attempt: int, retrying: bool) -> None:
            crashed = isinstance(fault, WorkerCrashed)
            self.scheduler.count_fault("worker_restarts" if crashed else "job_timeouts")
            logger.log(
                "job_fault",
                execution_key=execution.key,
                trace_id=trace_id,
                kind=type(fault).__name__,
                attempt=attempt + 1,
                detail=str(fault),
            )
            if retrying:
                self.scheduler.count_fault("job_retries")
                self.scheduler.note_retry(
                    execution, detail=f"attempt {attempt + 1} failed: {fault}"
                )

        try:
            outcome = self._pool.run(job, timeout, on_fault)
        except (WorkerCrashed, JobTimeout) as exc:
            error = ServerError(error=type(exc).__name__, message=str(exc))
            seconds = 0.0
        else:
            result, phases, failure, seconds, obs = outcome
            self._merge_obs(obs)
            # A failure inside the analysis (ReproError or a bug) would
            # repeat exactly on a retry, so it fails the job with its type.
            error = None if failure is None else ServerError(*failure)
        # Every retry bumped ``execution.attempts``; this was the last attempt.
        attempts = execution.attempts + 1
        # The span must land in the tracer *before* complete() runs the
        # trace-dir export hook, or it would miss its own trace's file.
        if dispatch_span is not None:
            dispatch_span.set("attempts", attempts)
            obs_trace.end(dispatch_span)
        if error is None:
            self.scheduler.complete(
                execution, result=result, seconds=seconds, phase_seconds=phases
            )
            logger.log(
                "job_done",
                execution_key=execution.key,
                trace_id=trace_id,
                seconds=round(seconds, 6),
                attempts=attempts,
            )
            return
        self.scheduler.complete(execution, error=error, seconds=seconds)
        logger.log(
            "job_failed",
            execution_key=execution.key,
            trace_id=trace_id,
            error=error.error,
            attempts=attempts,
        )

    @staticmethod
    def _merge_obs(obs: dict) -> None:
        """Fold a worker's shipped spans and metric delta into this process."""
        tracer = obs_trace.active()
        if obs["spans"] and tracer is not None:
            tracer.add(obs["spans"])
        if obs["metrics"]:
            obs_metrics.REGISTRY.merge(obs["metrics"])

    # ------------------------------------------------------------------ #
    # Introspection (chaos harness + /healthz)
    # ------------------------------------------------------------------ #
    def alive_dispatchers(self) -> int:
        return sum(1 for thread in self._threads if thread.is_alive())

    def worker_pids(self) -> List[int]:
        return self._pool.pids()

    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True) -> None:
        """Stop dispatching (the scheduler must already be closed).

        With ``wait``, each dispatcher gets up to 30 s to finish its job.
        The pool then closes: a job still running has its worker killed and
        fails with a typed ``WorkerCrashed`` error, never left ``running``.
        """
        if wait:
            for thread in self._threads:
                thread.join(timeout=30)
        self._pool.close()
