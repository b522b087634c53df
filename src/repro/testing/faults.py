"""Deterministic fault injection for the worker pool (chaos harness).

Every injector is *seeded and deterministic*: whether a task's attempt is
killed or hung is a pure function of the plan's seed, the task's content and
the attempt number (never of a trace id or a pid), so a red chaos run
reproduces exactly from its printed seed — the same contract the
program-generator fuzz fleet already honors.

Four fault families, matching the failure modes a real analysis farm sees:

* **worker kills** — a supervised worker process ``os._exit``\\ s mid-job
  (the observable shape of an OOM kill or segfault);
* **hangs** — an analysis sleeps past its deadline (pathological program,
  livelocked solver);
* **store corruption** — :func:`corrupt_store` truncates/garbles summary
  bucket files on disk (torn writes, bad sectors);
* **dropped/truncated HTTP responses** — :class:`FlakyProxy` sits between
  client and server and eats or cuts responses (flaky networks, LB resets).

The in-process injectors (kill/hang) arm themselves through the
``REPRO_FAULTS`` environment variable — a JSON :class:`FaultPlan` — so
forked worker processes inherit the plan, and fire **only** inside processes
marked by :func:`mark_worker`: the workers of :class:`repro.pool.SupervisedPool`,
which serve the analysis server at every ``--jobs`` value, ``analyze_many``
and ``run_sweep`` alike.  The server process, serial batches and any
locally-run comparison analysis are never touched, which is what lets the
chaos sweep compare surviving results bit-for-bit against a direct facade
call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import socket
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, List, Optional

#: Environment variable carrying the JSON-encoded :class:`FaultPlan`.
ENV_VAR = "REPRO_FAULTS"

#: Exit code of an injected worker kill (mirrors SIGKILL's 128+9 so the
#: supervisor sees exactly what an OOM-killed worker looks like).
KILL_EXIT_CODE = 137

#: Set by :func:`mark_worker` in supervised worker processes; kill/hang
#: injectors fire nowhere else.
_IN_WORKER = False


def mark_worker() -> None:
    """Mark this process as a supervised worker (called post-fork)."""
    global _IN_WORKER
    _IN_WORKER = True


@dataclass
class FaultPlan:
    """Seeded in-process injection plan (kills and hangs)."""

    seed: int = 0
    #: Probability that a task's first attempt kills its worker mid-task.
    kill_rate: float = 0.0
    #: Probability that a task's first attempt sleeps ``hang_seconds``.
    hang_rate: float = 0.0
    #: How long a hung task sleeps — set it past the deadline to force a
    #: supervisor timeout.
    hang_seconds: float = 30.0
    #: Inject only on attempt 0, so every faulted task deterministically
    #: succeeds on retry (the chaos sweep's "every job completes" invariant).
    first_attempt_only: bool = True

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        return cls(**json.loads(raw))

    def draw(self, key: str) -> Optional[str]:
        """The fault a task keyed ``key`` gets on an injected attempt:
        ``"kill"``, ``"hang"`` or ``None``.  A kill draw shadows a hang
        draw, so the two rates stay independently tunable."""
        if self.kill_rate and decide(self.seed, "kill", key) < self.kill_rate:
            return "kill"
        if self.hang_rate and decide(self.seed, "hang", key) < self.hang_rate:
            return "hang"
        return None


def install(plan: FaultPlan) -> None:
    """Arm the plan for this process and every child it forks."""
    os.environ[ENV_VAR] = plan.to_json()


def clear() -> None:
    """Disarm (idempotent)."""
    os.environ.pop(ENV_VAR, None)


def active() -> Optional[FaultPlan]:
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    try:
        return FaultPlan.from_json(raw)
    except (ValueError, TypeError):
        return None


def decide(seed: int, kind: str, key: str) -> float:
    """Deterministic uniform draw in [0, 1) for one (fault kind, job) pair."""
    digest = hashlib.sha256(f"{seed}:{kind}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def on_job(task: Any, attempt: int) -> None:
    """Injection point the pool's worker loop calls before every task.

    The draws are keyed on ``repr(task)``, so a task type keeps out of its
    repr whatever must not steer them (the server's trace context).  Fires
    at most one fault per call (:meth:`FaultPlan.draw`).
    """
    if not _IN_WORKER:
        return
    plan = active()
    if plan is None:
        return
    if plan.first_attempt_only and attempt > 0:
        return
    fault = plan.draw(repr(task))
    if fault == "kill":
        # The closest honest simulation of an OOM kill: no cleanup, no
        # exception propagation, the pipe just goes EOF on the supervisor.
        os._exit(KILL_EXIT_CODE)
    if fault == "hang":
        time.sleep(plan.hang_seconds)


# --------------------------------------------------------------------------- #
# Store corruption
# --------------------------------------------------------------------------- #
def corrupt_store(cache_dir: str, seed: int, fraction: float = 1.0) -> int:
    """Deterministically corrupt summary bucket files under ``cache_dir``.

    Each selected ``.pkl`` file is either truncated mid-byte or overwritten
    with non-pickle garbage (chosen by the same seeded draw).  Returns how
    many files were corrupted.  The store quarantines them on next read.
    """
    corrupted = 0
    try:
        names = sorted(os.listdir(cache_dir))
    except OSError:
        return 0
    for name in names:
        if not name.endswith(".pkl"):
            continue
        draw = decide(seed, "corrupt", name)
        if draw >= fraction:
            continue
        path = os.path.join(cache_dir, name)
        try:
            if draw < fraction / 2:
                # Torn write: keep a prefix that still looks pickle-ish.
                with open(path, "rb") as handle:
                    data = handle.read()
                with open(path, "wb") as handle:
                    handle.write(data[: max(len(data) // 3, 1)])
            else:
                with open(path, "wb") as handle:
                    handle.write(b"\x80\x05not a pickle " + name.encode())
            corrupted += 1
        except OSError:
            continue
    return corrupted


# --------------------------------------------------------------------------- #
# Flaky HTTP proxy
# --------------------------------------------------------------------------- #
_CONTENT_LENGTH = re.compile(
    rb"^content-length:[ \t]*(\d+)", re.IGNORECASE | re.MULTILINE
)


def _truncation_point(response: bytes) -> Optional[int]:
    """How many bytes of ``response`` a ``truncate`` verdict forwards.

    The whole head passes, through its blank line, then half the body: at
    least one byte short of the declared ``Content-Length``, so the client
    reads a complete status line and headers and then a short body.  A reply
    with an empty body is cut one byte short of its head instead.  ``None``
    while the head is still incomplete.
    """
    end = response.find(b"\r\n\r\n")
    if end < 0:
        return None
    end += 4
    match = _CONTENT_LENGTH.search(response, 0, end)
    length = int(match.group(1)) if match else 0
    return end + length // 2 if length else end - 1


class FlakyProxy:
    """Seeded TCP proxy that drops or truncates upstream responses.

    Sits between a :class:`~repro.server.client.ServerClient` and the
    server.  Each HTTP exchange draws one deterministic verdict — ``pass``,
    ``drop`` (connection closes before any response bytes) or ``truncate``
    (the whole head and part of the body pass, then the connection closes
    short of the declared ``Content-Length``; see :func:`_truncation_point`)
    — when the first byte of its request arrives, so a kept-alive
    connection carrying many exchanges draws one verdict for each of them.
    A new request starts with the first client byte after the previous
    response began, which holds for any client that does not pipeline.
    Requests always reach the server intact:
    the chaos sweep needs the *server* state to advance (job accepted) while
    the *client* observes a network failure — the retry/idempotency path
    under test.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        seed: int = 0,
        drop_rate: float = 0.0,
        truncate_rate: float = 0.0,
    ):
        self.upstream = (upstream_host, upstream_port)
        self.drop_rate = drop_rate
        self.truncate_rate = truncate_rate
        self._rng = random.Random(seed)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._closing = False
        self._lock = threading.Lock()
        #: Verdict log, one per exchange in request order
        #: ("pass"/"drop"/"truncate").
        self.verdicts: List[str] = []

    # ------------------------------------------------------------------ #
    @property
    def faults(self) -> int:
        with self._lock:
            return sum(1 for verdict in self.verdicts if verdict != "pass")

    @property
    def url(self) -> str:
        assert self._listener is not None, "proxy not started"
        host, port = self._listener.getsockname()[:2]
        return f"http://{host}:{port}"

    def start(self) -> "FlakyProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(64)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="flaky-proxy-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._closing = True
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept() (the
            # fd stays blocked until the next connection); shutdown() does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def __enter__(self) -> "FlakyProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle,
                args=(client,),
                name="flaky-proxy-conn",
                daemon=True,
            ).start()

    def _draw(self) -> str:
        """One exchange's verdict; the caller holds the lock, so the log is
        a deterministic function of (seed, request order)."""
        draw = self._rng.random()
        if draw < self.drop_rate:
            verdict = "drop"
        elif draw < self.drop_rate + self.truncate_rate:
            verdict = "truncate"
        else:
            verdict = "pass"
        self.verdicts.append(verdict)
        return verdict

    def _handle(self, client: socket.socket) -> None:
        try:
            upstream = socket.create_connection(self.upstream, timeout=30)
        except OSError:
            client.close()
            return
        # The connection's current exchange: [verdict, response begun?].
        exchange = [None, False]
        # Client -> upstream is always forwarded intact (see class docstring).
        pump = threading.Thread(
            target=self._pump_requests, args=(client, upstream, exchange), daemon=True
        )
        pump.start()
        verdict = None
        # A truncated response's bytes, held until its head is complete.
        held = b""
        try:
            while True:
                chunk = upstream.recv(65536)
                if not chunk:
                    break
                with self._lock:
                    if not exchange[1]:
                        exchange[1] = True
                        verdict = exchange[0]
                if verdict == "drop":
                    break
                if verdict == "truncate":
                    held += chunk
                    cut = _truncation_point(held)
                    if cut is None:
                        continue
                    client.sendall(held[:cut])
                    break
                client.sendall(chunk)
        except OSError:
            pass
        finally:
            # A hard close (not a graceful FIN after a full response) is what
            # makes the client surface the fault as a dead connection.
            # shutdown() first: the request-pump thread may still be blocked
            # in recv() on these sockets, which keeps the file description
            # alive past close() — without the shutdown no FIN is ever sent
            # and the client would sit out its whole timeout instead of
            # failing fast.
            for sock in (client, upstream):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def _pump_requests(
        self, client: socket.socket, upstream: socket.socket, exchange: list
    ) -> None:
        try:
            while True:
                chunk = client.recv(65536)
                if not chunk:
                    break
                with self._lock:
                    if exchange[0] is None or exchange[1]:
                        # First byte of a new request: draw its verdict.
                        exchange[:] = [self._draw(), False]
                upstream.sendall(chunk)
        except OSError:
            pass
        try:
            upstream.shutdown(socket.SHUT_WR)
        except OSError:
            pass
