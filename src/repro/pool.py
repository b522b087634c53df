"""One supervised process pool for every fan-out in the repository.

:class:`SupervisedPool` runs tasks in up to ``jobs`` worker processes.  Each
worker calls ``setup(*setup_args)`` once and runs every task through the
function that returns.  It is the only place the library starts a process.
The analysis server's dispatcher threads call :meth:`~SupervisedPool.run`
once per job; :meth:`~repro.api.service.AnalysisService.analyze_iter` and
:func:`~repro.testing.sweep.run_sweep` map a batch with
:meth:`~SupervisedPool.imap_unordered`.

Supervision is crash-only (Candea & Fox, "Crash-only software", HotOS 2003):
a worker is never repaired, only killed and replaced.  The parent never
blocks without a deadline: it reads EOF on a worker's pipe as its death and
kills a worker that overruns the task's deadline.  Such faults are retried
with exponential backoff up to a bound, then raised as a typed
:class:`WorkerCrashed` or :class:`JobTimeout`.  An exception the task itself
raises is deterministic: it is re-raised in the parent at once.

Every spawn (pipe, fork, closing the child's end) happens under the pool's
lock, so no worker inherits a sibling's pipe end and EOF means exactly that
this worker died.  A worker has one owner at a time: the pool while it is
idle, the thread running a task on it otherwise.  :meth:`~SupervisedPool.close`
stops idle workers and kills busy ones, leaving each busy pipe to its owner,
which reads the kill as a crash and raises without a retry.

A seeded fault plan in ``REPRO_FAULTS`` (:mod:`repro.testing.faults`) arms in
every worker: its hook runs before each task, with the task and the attempt.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs import logs as obs_logs
from repro.obs import trace as obs_trace

#: Default per-task wall-clock deadline (seconds); the server's ``--job-timeout``.
DEFAULT_JOB_TIMEOUT = 300.0

#: Bounded-retry policy for infrastructure faults: a crashed worker is worth
#: more attempts than a deadline hit (a crash is usually environmental — OOM
#: kill, segfault — while a timeout often means the task itself is too slow).
CRASH_RETRIES = 2
TIMEOUT_RETRIES = 1

#: Base of the exponential backoff between retry attempts (seconds).
RETRY_BACKOFF = 0.1

#: How long a graceful worker stop waits before escalating to SIGKILL.
WORKER_STOP_GRACE = 5.0


class WorkerCrashed(ReproError):
    """A worker process died under a task on every attempt it was allowed."""


class JobTimeout(ReproError):
    """A task overran its deadline on every attempt it was allowed."""


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/1 → serial, <=0 → every CPU
    this process may run on (its affinity set, not the host's CPU count)."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return len(os.sched_getaffinity(0))
    return jobs


def _worker_main(conn, setup: Callable[..., Callable], setup_args: tuple) -> None:
    """Worker loop: recv ``(task, attempt)``, run it, send the outcome.

    ``None`` is the stop sentinel.  The outcome is ``(True, value)``, or
    ``(False, exc)`` when the task raised.  Anything that escapes this loop
    ends the process, which the parent reads as a crash.
    """
    # A forked worker inherits the parent's tracer; spans recorded into that
    # copy would never leave the process.
    obs_trace.install(None)
    faults = None
    if os.environ.get("REPRO_FAULTS"):
        # Imported only under a plan: production workers never load
        # repro.testing.  The mark confines kills and hangs to workers.
        from repro.testing import faults

        faults.mark_worker()
    function = setup(*setup_args)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # the parent went away
        if message is None:
            return
        task, attempt = message
        if faults is not None:
            faults.on_job(task, attempt)
        try:
            outcome = (True, function(task))
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            outcome = (False, exc)
        try:
            conn.send(outcome)
        except OSError:
            return
        except Exception as exc:  # noqa: BLE001 - the outcome did not pickle
            conn.send((False, ReproError(f"task outcome cannot be sent back: {exc!r}")))


class _Worker:
    """One worker process and the parent's end of its pipe."""

    def __init__(self, process: multiprocessing.Process, conn):
        self.process = process
        self.conn = conn

    def call(self, message: tuple, timeout: float) -> Tuple[str, Any]:
        """Returns ``("ok", outcome)``, ``("timeout", detail)`` or
        ``("crashed", detail)``; after a fault the worker is discarded."""
        try:
            self.conn.send(message)
            if self.conn.poll(timeout):
                return "ok", self.conn.recv()
        except (EOFError, OSError):
            self.discard()
            exitcode = self.process.exitcode
            return "crashed", f"worker process died mid-job (exitcode={exitcode})"
        self.discard()
        return "timeout", f"job exceeded its {timeout:.1f}s deadline; worker killed"

    def discard(self) -> None:
        """SIGKILL the process if it still runs, reap it, close the pipe."""
        if self.process.is_alive():
            obs_logs.get().log("worker_kill", worker_pid=self.process.pid)
            self.process.kill()
        self.process.join(WORKER_STOP_GRACE)
        self.conn.close()

    def stop(self) -> None:
        """Graceful stop: send the sentinel, then escalate to SIGKILL."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.process.join(WORKER_STOP_GRACE)
        self.discard()


class SupervisedPool:
    """Runs tasks in up to ``jobs`` supervised worker processes.

    Each worker builds its task function once, as ``setup(*setup_args)``.
    ``setup`` and ``setup_args`` reach the workers by fork, unpickled.
    Workers start lazily, when a task finds none idle, and a dead worker is
    replaced the same way, so a crash costs the next task a warm-up rather
    than stalling the current one.
    """

    def __init__(
        self,
        setup: Callable[..., Callable],
        jobs: int,
        setup_args: tuple = (),
        crash_retries: int = CRASH_RETRIES,
        timeout_retries: int = TIMEOUT_RETRIES,
    ):
        self.setup = setup
        self.jobs = max(jobs, 1)
        self.setup_args = setup_args
        self.crash_retries = crash_retries
        self.timeout_retries = timeout_retries
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(self.jobs)
        self._idle: List[_Worker] = []
        self._busy: List[_Worker] = []
        self._closed = False

    def pids(self) -> List[int]:
        """Process ids of the live workers, idle and busy."""
        with self._lock:
            return [worker.process.pid for worker in self._idle + self._busy]

    def run(
        self,
        task: Any,
        timeout: float = DEFAULT_JOB_TIMEOUT,
        on_fault: Optional[Callable[[ReproError, int, bool], None]] = None,
    ) -> Any:
        """Run ``task`` on a worker and return the task function's value.

        Raises what the task raised, at once.  A worker crash or deadline hit
        is retried with backoff up to the pool's budget, and
        ``on_fault(fault, attempt, retrying)`` hears of each one.  When the
        budget is spent, or the pool is closed, the fault is raised with the
        number of attempts made.
        """
        attempt = 0
        while True:
            status, value = self._attempt(task, attempt, timeout)
            if status == "ok":
                returned, result = value
                if returned:
                    return result
                raise result
            if status == "crashed":
                fault, budget = WorkerCrashed(value), self.crash_retries
            else:
                fault, budget = JobTimeout(value), self.timeout_retries
            retrying = attempt < budget and not self._closed
            if on_fault is not None:
                on_fault(fault, attempt, retrying)
            if not retrying:
                raise type(fault)(f"{value} (after {attempt + 1} attempt(s))")
            time.sleep(RETRY_BACKOFF * (2 ** attempt))
            attempt += 1

    def imap_unordered(self, tasks: Iterable) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, value)`` for every task, as each finishes.

        The tasks run ``jobs`` at a time, each through :meth:`run` with the
        default deadline and retry budget.  The first error, a task's own or
        a spent budget, is raised here.  The pool is closed when the
        iteration stops, however it stops.
        """
        feeders = ThreadPoolExecutor(self.jobs)
        futures = {feeders.submit(self.run, task): i for i, task in enumerate(tasks)}
        try:
            for future in as_completed(futures):
                yield futures[future], future.result()
        finally:
            self.close()
            feeders.shutdown(cancel_futures=True)

    def close(self) -> None:
        """Stop idle workers and kill busy ones (idempotent)."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            busy = list(self._busy)
        for worker in busy:
            worker.process.kill()  # its owner reads EOF and discards it
        for worker in idle:
            worker.stop()

    def _attempt(self, task: Any, attempt: int, timeout: float) -> Tuple[str, Any]:
        with self._slots:
            with self._lock:
                if self._closed:
                    raise WorkerCrashed("the worker pool is closed")
                try:
                    worker = self._idle.pop() if self._idle else self._spawn()
                except OSError as exc:  # fd or memory exhaustion
                    return "crashed", f"worker respawn failed: {exc}"
                self._busy.append(worker)
            try:
                return worker.call((task, attempt), timeout)
            finally:
                with self._lock:
                    self._busy.remove(worker)
                    keep = not self._closed and worker.process.is_alive()
                    if keep:
                        self._idle.append(worker)
                if not keep:
                    worker.discard()

    def _spawn(self) -> _Worker:
        # The caller holds the lock, so no other fork can copy the child's
        # end of this pipe before it is closed here.
        conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, self.setup, self.setup_args),
            daemon=True,
        )
        try:
            process.start()
        except OSError:
            conn.close()
            raise
        finally:
            child_conn.close()
        obs_logs.get().log("worker_spawn", worker_pid=process.pid)
        return _Worker(process, conn)
