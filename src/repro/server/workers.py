"""The server's worker pool: supervised workers, warm services, one store.

Two execution modes behind one interface:

* ``jobs <= 1`` — *inline*: one dispatcher thread executes analyses in the
  server process, keeping warm :class:`~repro.api.service.AnalysisService`
  instances (built program + in-process summary cache) across requests.
  Deadlines are advisory here (there is no process boundary to kill across)
  and crash supervision does not apply — production deployments that need
  fault isolation should run ``jobs >= 2``;
* ``jobs > 1`` — *supervised pool*: each dispatcher thread owns one worker
  *process* connected by a pipe.  The dispatcher enforces a per-job
  wall-clock deadline (``Execution.timeout``, defaulting to the server's
  ``--job-timeout``), detects worker death (EOF on the pipe) and hung jobs
  (deadline expiry), kills and respawns the worker, and classifies the
  failure: deterministic :class:`~repro.errors.ReproError`\\ s fail the job
  immediately, infrastructure faults get a bounded retry with exponential
  backoff before surfacing a typed ``ServerError`` (``WorkerCrashed`` /
  ``JobTimeout``).  Every worker keeps its own warm-service table and
  in-process cache tier; all share the server's on-disk
  :class:`~repro.cache.store.SummaryStore` (safe under the store's advisory
  file locking).

Work and results cross the process boundary as wire JSON
(:mod:`repro.server.wire` / :mod:`repro.api.serialize`), which round-trips
exactly — a served result is bit-identical to a direct facade call.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import traceback
from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.analysis.summaries import SummaryCache
from repro.api import serialize
from repro.api.service import AnalysisRequest, AnalysisResult, AnalysisService
from repro.cache import SummaryStore
from repro.errors import ReproError
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.server.queue import Execution, Scheduler
from repro.server.wire import ProjectSpec, ServerError
from repro.wcet import batch

#: Warm AnalysisService instances kept per worker (LRU-evicted beyond this).
WARM_SERVICES_PER_WORKER = 8

#: Server-default per-job wall-clock deadline (seconds); ``--job-timeout``.
DEFAULT_JOB_TIMEOUT = 300.0

#: Bounded-retry policy for infrastructure faults: a crashed worker is worth
#: more attempts than a deadline hit (a crash is usually environmental — OOM
#: kill, segfault — while a timeout often means the job itself is too slow).
CRASH_RETRIES = 2
TIMEOUT_RETRIES = 1

#: Base of the exponential backoff between retry attempts (seconds).
RETRY_BACKOFF = 0.1

#: How long a graceful worker stop waits before escalating to SIGKILL.
WORKER_STOP_GRACE = 5.0


class _WarmServices:
    """Per-process table of warm services keyed by project-spec digest."""

    def __init__(self, cache: SummaryCache, limit: int = WARM_SERVICES_PER_WORKER):
        self.cache = cache
        self.limit = limit
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
        while len(self._services) > self.limit:
            self._services.popitem(last=False)
        return service


def _maybe_inject_fault(payload: Tuple[dict, dict, int]) -> None:
    """Chaos hook: fire an injected fault for this job, if a plan is armed.

    The plan travels in the ``REPRO_FAULTS`` environment variable so forked
    worker processes inherit it; the import is lazy so production servers
    (no plan) never touch :mod:`repro.testing` and pay one ``os.environ``
    lookup per job.
    """
    if not os.environ.get("REPRO_FAULTS"):
        return
    from repro.testing import faults

    faults.on_job(payload)


def _serve(warm: _WarmServices, payload: tuple, ship_obs: bool = False) -> tuple:
    """Execute one wire-encoded (spec, request, attempt[, trace]) job.

    Never raises.  Returns ``(result_json, error, seconds, obs)``; with
    ``ship_obs`` (worker-process mode), ``obs`` carries the job's serialised
    spans and the process registry's metric delta back over the pipe — the
    supervisor merges both into the server process.  Inline mode records
    straight into the server's own tracer/registry and ships ``None``.
    """
    spec_json, request_json, _attempt = payload[0], payload[1], payload[2]
    trace_ctx = payload[3] if len(payload) > 3 else None
    metrics_before = obs_metrics.REGISTRY.dump() if ship_obs else None
    local_tracer = None
    if trace_ctx is not None and obs_trace.active() is None:
        # Worker process: a per-job tracer continues the propagated trace.
        local_tracer = obs_trace.Tracer(trace_id=trace_ctx.get("trace_id"))
        obs_trace.install(local_tracer)
    exec_span = (
        obs_trace.begin("worker-execute", parent=trace_ctx)
        if trace_ctx is not None
        else None
    )
    if exec_span is not None:
        exec_span.set("attempt", _attempt)
    started = time.perf_counter()
    try:
        _maybe_inject_fault(payload)
        spec = serialize.from_json(spec_json, ProjectSpec)
        request = serialize.from_json(request_json, AnalysisRequest)
        result = warm.service(spec).analyze(request)
        result_json = result.to_json()
        error = None
    except ReproError as exc:
        result_json = None
        error = (type(exc).__name__, str(exc))
    except Exception as exc:  # noqa: BLE001 - a worker must never die silently
        result_json = None
        error = (type(exc).__name__, f"{exc}\n{traceback.format_exc(limit=5)}")
    seconds = time.perf_counter() - started
    flush_span = None if exec_span is None else obs_trace.begin("cache-flush")
    try:
        # Persists what a failed analysis staged (a finished one has flushed
        # already).  The store counts and survives its own I/O errors, so
        # anything raised here repeats the failure the job already reports.
        warm.cache.flush()
    except Exception:  # noqa: BLE001 - flush failure must not kill the job
        pass
    obs_trace.end(flush_span)
    obs_trace.end(exec_span)
    obs = None
    if local_tracer is not None:
        obs_trace.install(None)
    if ship_obs:
        obs = {
            "spans": (
                [span.to_json() for span in local_tracer.drain()]
                if local_tracer is not None
                else []
            ),
            "metrics": obs_metrics.diff(metrics_before, obs_metrics.REGISTRY.dump()),
        }
    return result_json, error, seconds, obs


# --------------------------------------------------------------------------- #
# Worker-process side
# --------------------------------------------------------------------------- #
def _worker_main(
    conn: "multiprocessing.connection.Connection", cache_dir: Optional[str]
) -> None:
    """Supervised worker main loop: recv payload -> serve -> send outcome.

    A ``None`` payload is the graceful-stop sentinel.  Anything that escapes
    here (it should not — ``_serve`` never raises) ends the process, which
    the supervisor observes as a crash and handles.
    """
    if os.environ.get("REPRO_FAULTS"):
        # Mark this process as a supervised worker so seeded kill/hang
        # injectors fire here and never in the server (or a client) process.
        from repro.testing import faults

        faults.mark_worker()
    # A forked worker inherits the server's installed tracer; spans recorded
    # into that copy would silently vanish.  Drop it so _serve installs its
    # own per-job tracer and ships spans back over the pipe instead.
    obs_trace.install(None)
    # Reuse the pool initialiser of AnalysisService.analyze_many so worker
    # cache wiring has exactly one implementation, then layer the
    # warm-service table on top of it.
    batch._init_batch_worker(cache_dir)
    warm = _WarmServices(batch._WORKER_CACHE)
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            return  # supervisor went away
        if payload is None:
            return
        try:
            conn.send(_serve(warm, payload, ship_obs=True))
        except (BrokenPipeError, OSError):
            return


class _SupervisedWorker:
    """One worker process plus the pipe its dispatcher supervises it over.

    The supervisor side never blocks without a deadline: ``run`` polls the
    pipe with the job's remaining budget, treats EOF as worker death, and
    kills/respawns on deadline expiry.  Respawn happens lazily in
    :meth:`ensure` so a dying worker costs the *next* job a warm-up, not an
    unbounded stall for the current one.
    """

    def __init__(self, index: int, cache_dir: Optional[str]):
        self.index = index
        self.cache_dir = cache_dir
        self._process: Optional[multiprocessing.Process] = None
        self._conn: Optional[multiprocessing.connection.Connection] = None

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def ensure(self) -> None:
        """Start (or restart) the worker process if it is not alive."""
        if self._process is not None and self._process.is_alive():
            return
        self._discard()
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, self.cache_dir),
            name=f"repro-server-worker-{self.index}",
            daemon=True,
        )
        process.start()
        # Close our copy of the child end: EOF on ``parent_conn`` then means
        # the worker process is gone, which is exactly the signal we poll for.
        child_conn.close()
        self._process = process
        self._conn = parent_conn
        obs_logs.get().log("worker_spawn", worker=self.index, worker_pid=process.pid)

    def run(self, payload: tuple, timeout: float) -> Tuple[str, object]:
        """Run one job; returns ``(status, value)``.

        * ``("ok", outcome)`` — the worker answered within the deadline;
        * ``("crashed", detail)`` — the worker process died mid-job;
        * ``("timeout", detail)`` — deadline expired; the worker was killed.
        """
        assert self._conn is not None
        try:
            self._conn.send(payload)
        except (BrokenPipeError, OSError) as exc:
            self.kill()
            return ("crashed", f"worker pipe closed on send: {exc}")
        try:
            if not self._conn.poll(timeout):
                self.kill()
                return (
                    "timeout",
                    f"job exceeded its {timeout:.1f}s deadline; worker killed",
                )
            outcome = self._conn.recv()
        except (EOFError, OSError):
            exitcode = self._process.exitcode if self._process is not None else None
            self.kill()
            return ("crashed", f"worker process died mid-job (exitcode={exitcode})")
        return ("ok", outcome)

    def kill(self) -> None:
        """SIGKILL the worker and drop the pipe (respawn happens in ensure)."""
        if self._process is not None and self._process.is_alive():
            obs_logs.get().log(
                "worker_kill", worker=self.index, worker_pid=self._process.pid
            )
            self._process.kill()
            self._process.join(timeout=WORKER_STOP_GRACE)
        self._discard()

    def stop(self) -> None:
        """Graceful stop: send the sentinel, then escalate to SIGKILL."""
        if self._process is None:
            return
        try:
            if self._conn is not None:
                self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=WORKER_STOP_GRACE)
        self.kill()

    def _discard(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        self._conn = None
        self._process = None


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
        self.jobs = batch.resolve_jobs(jobs)
        self.cache_dir = cache_dir
        self.job_timeout = job_timeout
        self.crash_retries = crash_retries
        self.timeout_retries = timeout_retries
        self._workers: List[Optional[_SupervisedWorker]] = []
        self._threads: list = []
        self._inline_warm: Optional[_WarmServices] = None
        self._started = False
        self._closing = False
        scheduler.workers = max(self.jobs, 1)

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.jobs > 1:
            self._workers = [
                _SupervisedWorker(index, self.cache_dir) for index in range(self.jobs)
            ]
        else:
            store = SummaryStore(self.cache_dir) if self.cache_dir else None
            self._inline_warm = _WarmServices(SummaryCache(store=store))
            self._workers = [None]
        for index, worker in enumerate(self._workers):
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(worker,),
                name=f"repro-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _dispatch_loop(self, worker: Optional[_SupervisedWorker]) -> None:
        while True:
            execution = self.scheduler.pop()
            if execution is None:
                if worker is not None:
                    worker.stop()
                return
            self._run(execution, worker)

    # ------------------------------------------------------------------ #
    def _run(
        self, execution: Execution, worker: Optional[_SupervisedWorker]
    ) -> None:
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
        trace_ctx = (
            dispatch_span.context() if dispatch_span is not None else execution.trace
        )

        def finish_dispatch(attempts: int) -> None:
            # The span must land in the tracer *before* complete() runs the
            # trace-dir export hook, or it would miss its own trace's file.
            if dispatch_span is not None:
                dispatch_span.set("attempts", attempts)
                obs_trace.end(dispatch_span)

        attempt = 0
        while True:
            payload = (
                serialize.to_json(execution.spec),
                serialize.to_json(execution.request),
                attempt,
                trace_ctx,
            )
            status, detail = self._attempt(payload, worker, timeout)
            if status == "ok":
                result_json, error, seconds, obs = detail
                self._merge_obs(obs)
                finish_dispatch(attempt + 1)
                if result_json is not None:
                    result: Optional[AnalysisResult] = serialize.from_json(result_json)
                    self.scheduler.complete(execution, result=result, seconds=seconds)
                    logger.log(
                        "job_done",
                        execution_key=execution.key,
                        trace_id=trace_id,
                        seconds=round(seconds, 6),
                        attempts=attempt + 1,
                    )
                else:
                    # Deterministic failure (ReproError or a bug in the
                    # analysis itself): retrying would reproduce it exactly,
                    # so the job fails now with the original error type.
                    kind, message = error
                    self.scheduler.complete(
                        execution,
                        error=ServerError(error=kind, message=message),
                        seconds=seconds,
                    )
                    logger.log(
                        "job_failed",
                        execution_key=execution.key,
                        trace_id=trace_id,
                        error=kind,
                        attempts=attempt + 1,
                    )
                return
            # Infrastructure fault: bounded retry with exponential backoff,
            # unless the server is draining (shutdown must not be delayed by
            # backoff sleeps for work that will be surfaced as failed anyway).
            if status == "crashed":
                self.scheduler.count_fault("worker_restarts")
                budget = self.crash_retries
                kind = "WorkerCrashed"
            else:
                self.scheduler.count_fault("job_timeouts")
                budget = self.timeout_retries
                kind = "JobTimeout"
            logger.log(
                "job_fault",
                execution_key=execution.key,
                trace_id=trace_id,
                kind=kind,
                attempt=attempt + 1,
                detail=str(detail),
            )
            if attempt < budget and not self._closing:
                self.scheduler.count_fault("job_retries")
                self.scheduler.note_retry(
                    execution, detail=f"attempt {attempt + 1} failed: {detail}"
                )
                time.sleep(RETRY_BACKOFF * (2 ** attempt))
                attempt += 1
                continue
            finish_dispatch(attempt + 1)
            self.scheduler.complete(
                execution,
                error=ServerError(
                    error=kind,
                    message=f"{detail} (after {attempt + 1} attempt(s))",
                ),
            )
            logger.log(
                "job_failed",
                execution_key=execution.key,
                trace_id=trace_id,
                error=kind,
                attempts=attempt + 1,
            )
            return

    @staticmethod
    def _merge_obs(obs: Optional[dict]) -> None:
        """Fold a worker's shipped spans/metric deltas into this process."""
        if not obs:
            return
        spans = obs.get("spans")
        if spans:
            tracer = obs_trace.active()
            if tracer is not None:
                tracer.add(spans)
        delta = obs.get("metrics")
        if delta:
            obs_metrics.REGISTRY.merge(delta)

    def _attempt(
        self,
        payload: tuple,
        worker: Optional[_SupervisedWorker],
        timeout: float,
    ) -> Tuple[str, object]:
        if worker is None:
            # Inline mode: the dispatcher thread executes the job itself.
            # ``_serve`` never raises, so there is nothing to supervise —
            # deadlines are advisory and crashes take the server with them.
            return ("ok", _serve(self._inline_warm, payload))
        try:
            worker.ensure()
        except Exception as exc:  # spawn failure (fd/memory exhaustion)
            return ("crashed", f"worker respawn failed: {exc}")
        return worker.run(payload, timeout)

    # ------------------------------------------------------------------ #
    # Introspection (chaos harness + /healthz)
    # ------------------------------------------------------------------ #
    def alive_dispatchers(self) -> int:
        return sum(1 for thread in self._threads if thread.is_alive())

    def worker_pids(self) -> List[int]:
        return [
            worker.pid
            for worker in self._workers
            if worker is not None and worker.pid is not None
        ]

    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True) -> None:
        """Stop dispatching (the scheduler must already be closed)."""
        self._closing = True
        for thread in self._threads:
            if wait:
                thread.join(timeout=30)
        for worker in self._workers:
            if worker is not None:
                worker.stop()
        if self._inline_warm is not None:
            try:
                self._inline_warm.cache.flush()
            except Exception:  # noqa: BLE001 - drain must finish regardless
                pass
