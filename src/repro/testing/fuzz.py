"""Long-running fuzz driver: grammar presets, server-path checks, wire fuzzing.

Three attack surfaces, one entry point (``repro fuzz`` rides on this module):

* **Grammar fuzzing** — :func:`run_fuzz` rotates generated programs through
  feature presets aimed at the engine's hard spots (recursion cycles,
  irreducible goto loops, function pointers through the indirect-call hint
  machinery, a tightened ``max_contexts_per_function`` cap) and checks every
  program with the differential oracle: ``BCET <= observed <= WCET`` on every
  enumerated input.
* **Server-path checking** — every program is *also* submitted to a live
  :class:`~repro.server.http.AnalysisServer` on the batch lane, and the
  remote :class:`~repro.wcet.report.WCETReport` must be bit-identical to the
  local facade's (wall-clock phase timings excluded — they are measurements,
  not results).  A flight-control canary with pinned per-mode bounds runs
  before the sweep so an engine regression is caught even if every generated
  program happens to avoid it.
* **Wire fuzzing** — :func:`run_wire_fuzz` mutates schema-1 envelopes and
  HTTP framing against the server's endpoints and asserts that every
  malformed request yields a 4xx :class:`~repro.server.wire.ServerError`
  envelope — never a 500, a hang, or a raw traceback.

Violating programs are auto-shrunk with the delta-debugger and filed into
``tests/corpus/`` so the find is pinned before anyone looks at it.
"""

from __future__ import annotations

import copy
import http.client
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.api import serialize
from repro.api.project import PROCESSORS
from repro.api.service import AnalysisRequest, AnalysisService
from repro.cache import SummaryStore
from repro.pool import resolve_jobs
from repro.server.client import ClientError, JobFailed, RemoteError, ServerClient
from repro.server.http import AnalysisServer
from repro.server.wire import ProjectSpec, ServerError, ServerStats, ServerSubmit
from repro.server.workers import fault_key
from repro.testing import faults as fault_injection
from repro.testing.corpus import annotations_to_text, save_case
from repro.testing.generator import FeatureMix, generate_case, render_case
from repro.testing.oracle import DifferentialOracle, OracleConfig
from repro.testing.shrink import Shrinker
from repro.wcet.analyzer import AnalysisOptions

#: Pinned flight-control per-mode (wcet, bcet) bounds — the canary the server
#: CI job also asserts.  ``None`` is the mode-unaware analysis.
FLIGHT_CONTROL_PINS: Dict[Optional[str], Tuple[int, int]] = {
    None: (2514, 87),
    "air": (2514, 284),
    "ground": (161, 87),
}

#: Ceiling on one remote job (a stuck worker must fail the fuzz run, not
#: hang it).
REMOTE_JOB_TIMEOUT = 600.0

#: Seconds the chaos sweep's resubmits hold for their result (the burst
#: before them must see its 202s and 429s at once, so it does not wait).
CHAOS_SUBMIT_WAIT = 2.0


# --------------------------------------------------------------------------- #
# Presets: each rotation slot aims the generator at one engine hard spot.
# --------------------------------------------------------------------------- #
@dataclass
class FuzzPreset:
    """One generator/analyzer configuration slot of the rotation."""

    name: str
    mix: FeatureMix
    options: Optional[AnalysisOptions] = None


def default_presets() -> List[FuzzPreset]:
    return [
        FuzzPreset("baseline", FeatureMix()),
        FuzzPreset("recursion", FeatureMix(allow_recursion=True)),
        FuzzPreset(
            "irreducible", FeatureMix(allow_goto_loops=True, p_goto_loop=0.3)
        ),
        FuzzPreset(
            "fnptr", FeatureMix(allow_function_pointers=True, p_fnptr_call=0.3)
        ),
        FuzzPreset(
            "context-cap",
            FeatureMix(),
            AnalysisOptions(max_contexts_per_function=2),
        ),
        FuzzPreset(
            "all",
            FeatureMix(
                allow_recursion=True,
                allow_goto_loops=True,
                allow_function_pointers=True,
                p_goto_loop=0.2,
                p_fnptr_call=0.2,
            ),
        ),
    ]


# --------------------------------------------------------------------------- #
# Outcome types
# --------------------------------------------------------------------------- #
@dataclass
class FuzzViolation:
    """One breached fuzz invariant (soundness, identity or server health)."""

    kind: str                  # "soundness" | "bit-mismatch" | "divergence" |
    #                          # "canary" | "server-error"
    detail: str
    seed: Optional[int] = None
    preset: str = ""
    corpus_path: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        origin = f" [seed {self.seed} preset {self.preset}]" if self.seed else ""
        return f"{self.kind}{origin}: {self.detail}"


@dataclass
class WireViolation:
    """A malformed request the server mishandled (non-4xx / no envelope)."""

    strategy: str
    status: Optional[int]      # None when the exchange hung or tore
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.strategy}: status={self.status} {self.detail}"


@dataclass
class WireFuzzSummary:
    """Outcome of one wire-fuzz run."""

    iterations: int
    seed: int
    by_strategy: Dict[str, int] = field(default_factory=dict)
    violations: List[WireViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "seed": self.seed,
            "by_strategy": dict(self.by_strategy),
            "violations": [
                {"strategy": v.strategy, "status": v.status, "detail": v.detail}
                for v in self.violations
            ],
        }


@dataclass
class FuzzSummary:
    """Outcome of one full fuzz run (programs + optional wire pass)."""

    programs: int
    base_seed: int
    jobs: int
    seconds: float = 0.0
    preset_counts: Dict[str, int] = field(default_factory=dict)
    total_runs: int = 0
    violations: List[FuzzViolation] = field(default_factory=list)
    wire: Optional[WireFuzzSummary] = None

    @property
    def ok(self) -> bool:
        return not self.violations and (self.wire is None or self.wire.ok)

    def failing_seeds(self) -> List[int]:
        return sorted({v.seed for v in self.violations if v.seed is not None})

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": "FuzzSummary",
            "programs": self.programs,
            "base_seed": self.base_seed,
            "jobs": self.jobs,
            "seconds": self.seconds,
            "preset_counts": dict(self.preset_counts),
            "total_runs": self.total_runs,
            "ok": self.ok,
            "violations": [
                {
                    "kind": v.kind,
                    "seed": v.seed,
                    "preset": v.preset,
                    "detail": v.detail,
                    "corpus_path": v.corpus_path,
                }
                for v in self.violations
            ],
            "wire": self.wire.to_json() if self.wire is not None else None,
        }


# --------------------------------------------------------------------------- #
def report_identity(report) -> dict:
    """A report's JSON minus wall-clock measurements — the bit-identity key."""

    def strip(node):
        if isinstance(node, dict):
            return {
                key: strip(value)
                for key, value in node.items()
                if key not in ("phases", "seconds", "cache_stats")
            }
        if isinstance(node, list):
            return [strip(value) for value in node]
        return node

    return strip(serialize.to_json(report))


def _case_spec(case, rendered, processor: str) -> ProjectSpec:
    """The wire spec that rebuilds a generated case server-side."""
    lines = annotations_to_text(rendered.annotations)
    return ProjectSpec(
        source=rendered.source,
        entry=case.entry,
        annotations="\n".join(lines) + "\n" if lines else None,
        processor=processor,
        name=case.name,
    )


def _fault_shortfalls(
    plan: fault_injection.FaultPlan, keys: List[str], faults: Dict[str, int]
) -> List[str]:
    """The fault counters ``faults`` (/healthz) shows fewer of than ``plan``
    drew over the tasks keyed ``keys``: every distinct task that draws a kill
    restarts a worker, and every one that draws a hang times out, at least
    once."""
    drawn = {"kill": 0, "hang": 0}
    for key in set(keys):
        fault = plan.draw(key)
        if fault is not None:
            drawn[fault] += 1
    return [
        f"the plan drew {drawn[fault]} {fault}(s) over the sweep's jobs but "
        f"/healthz reports {faults.get(counter, 0)} {counter}"
        for counter, fault in (("worker_restarts", "kill"), ("job_timeouts", "hang"))
        if faults.get(counter, 0) < drawn[fault]
    ]


def _check_canary(client: ServerClient, lane: str) -> Optional[FuzzViolation]:
    """Assert the pinned flight-control bounds through the server path."""
    try:
        result = client.analyze(
            ProjectSpec(workload="flight-control"),
            AnalysisRequest(all_modes=True),
            lane=lane,
            timeout=REMOTE_JOB_TIMEOUT,
        )
    except (ClientError, RemoteError) as exc:
        return FuzzViolation(
            kind="canary", detail=f"flight-control canary failed: {exc}"
        )
    observed = {
        mode: (report.wcet_cycles, report.bcet_cycles)
        for mode, report in result.reports.items()
    }
    if observed != FLIGHT_CONTROL_PINS:
        return FuzzViolation(
            kind="canary",
            detail=(
                f"flight-control bounds moved: observed {observed}, "
                f"pinned {FLIGHT_CONTROL_PINS}"
            ),
        )
    return None


def run_fuzz(
    programs: int = 100,
    jobs: int = 2,
    base_seed: int = 1,
    processor: str = "simple",
    inputs: int = 3,
    presets: Optional[List[FuzzPreset]] = None,
    lane: str = "batch",
    shrink: bool = True,
    save_corpus: bool = True,
    corpus_dir: Optional[str] = None,
    wire_iterations: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzSummary:
    """Fuzz ``programs`` generated programs through server and oracle.

    For each seed (``base_seed + i``, preset ``i % len(presets)``):

    1. submit the rendered program to a local :class:`AnalysisServer` on the
       ``lane`` lane (the analysis runs on the server's worker pool while
       this process replays the program locally);
    2. differential-check it locally (soundness: BCET <= observed <= WCET,
       loop bounds, unreachability);
    3. collect the remote report and require bit-identity with the local one.

    Soundness violations are shrunk (``shrink=True``) and auto-filed into the
    corpus (``save_corpus=True``; ``corpus_dir=None`` means ``tests/corpus``).
    With ``wire_iterations > 0`` a wire-fuzz pass runs against the same
    server before it shuts down.
    """
    presets = presets or default_presets()
    factory = PROCESSORS[processor]
    say = progress or (lambda message: None)
    summary = FuzzSummary(programs=programs, base_seed=base_seed, jobs=jobs)
    started = time.perf_counter()

    oracles = {
        preset.name: DifferentialOracle(
            OracleConfig(
                processor_factory=factory,
                max_input_vectors=inputs,
                analysis_options=preset.options,
            )
        )
        for preset in presets
    }

    with AnalysisServer(port=0, jobs=jobs) as server:
        client = ServerClient(server.url)
        canary = _check_canary(client, lane)
        if canary is not None:
            summary.violations.append(canary)
        say(f"server up at {server.url}; canary {'FAILED' if canary else 'ok'}")

        for index in range(programs):
            seed = base_seed + index
            preset = presets[index % len(presets)]
            summary.preset_counts[preset.name] = (
                summary.preset_counts.get(preset.name, 0) + 1
            )
            case = generate_case(seed, mix=preset.mix)
            rendered = render_case(case)

            # Server first: the remote workers analyse while we replay.
            remote_report = None
            remote_detail = None
            try:
                job = client.submit(
                    _case_spec(case, rendered, processor),
                    AnalysisRequest(entry=case.entry, options=preset.options),
                    lane=lane,
                )
            except (ClientError, RemoteError) as exc:
                job = None
                remote_detail = f"submit failed: {type(exc).__name__}: {exc}"

            local = oracles[preset.name].check(case, rendered)
            summary.total_runs += len(local.runs)

            if job is not None:
                try:
                    remote_report = job.result(timeout=REMOTE_JOB_TIMEOUT).report
                except JobFailed as exc:
                    remote_detail = f"remote job failed: {exc.error.message}"
                except (ClientError, RemoteError) as exc:
                    summary.violations.append(
                        FuzzViolation(
                            kind="server-error",
                            seed=seed,
                            preset=preset.name,
                            detail=f"{type(exc).__name__}: {exc}",
                        )
                    )

            # Remote/local consistency: both succeed bit-identically, or
            # both fail.
            if local.report is not None and remote_report is not None:
                if report_identity(remote_report) != report_identity(local.report):
                    summary.violations.append(
                        FuzzViolation(
                            kind="bit-mismatch",
                            seed=seed,
                            preset=preset.name,
                            detail=(
                                "server-path report differs from the direct "
                                f"facade (wcet {remote_report.wcet_cycles} vs "
                                f"{local.report.wcet_cycles}, bcet "
                                f"{remote_report.bcet_cycles} vs "
                                f"{local.report.bcet_cycles})"
                            ),
                        )
                    )
            elif (local.report is None) != (remote_report is None):
                side = "remote" if remote_report is None else "local"
                summary.violations.append(
                    FuzzViolation(
                        kind="divergence",
                        seed=seed,
                        preset=preset.name,
                        detail=(
                            f"only the {side} analysis failed "
                            f"({remote_detail or local.violation_kinds()})"
                        ),
                    )
                )

            if local.violations:
                violation = FuzzViolation(
                    kind="soundness",
                    seed=seed,
                    preset=preset.name,
                    detail="; ".join(str(v) for v in local.violations),
                )
                summary.violations.append(violation)
                say(f"seed {seed} [{preset.name}]: {violation.detail}")
                if shrink:
                    config = oracles[preset.name].config
                    shrunk = Shrinker(config).shrink(case)
                    kinds = ",".join(shrunk.result.violation_kinds())
                    if save_corpus:
                        violation.corpus_path = save_case(
                            shrunk.case,
                            f"Found by repro fuzz (seed {seed}, preset "
                            f"{preset.name}): {kinds}. Minimised by the "
                            "shrinker; describe the root cause here.",
                            directory=corpus_dir,
                            name=f"fuzz-{preset.name}-seed-{seed}",
                        )
                        say(f"  filed {violation.corpus_path}")

            if progress and (index + 1) % 50 == 0:
                say(
                    f"{index + 1}/{programs} programs, "
                    f"{len(summary.violations)} violation(s), "
                    f"{time.perf_counter() - started:.0f}s"
                )

        if wire_iterations > 0:
            say(f"wire fuzzing: {wire_iterations} malformed requests")
            summary.wire = run_wire_fuzz(
                server.url, iterations=wire_iterations, seed=base_seed
            )

    summary.seconds = time.perf_counter() - started
    return summary


# --------------------------------------------------------------------------- #
# Wire-level fuzzing: malformed envelopes and broken HTTP framing.
# --------------------------------------------------------------------------- #
_WIRE_SOURCE = "int main(void) { int x = 3; return x + 4; }"


def _valid_submit() -> dict:
    """A well-formed ``POST /v1/jobs`` body to mutate from."""
    return serialize.to_json(
        ServerSubmit(
            project=ProjectSpec(source=_WIRE_SOURCE, name="fuzz.c"),
            request=AnalysisRequest(),
            lane="batch",
        )
    )


@dataclass
class _WireRequest:
    """One raw exchange the wire fuzzer performs."""

    method: str = "POST"
    path: str = "/v1/jobs"
    body: Optional[bytes] = None
    #: Raw header override: when set, headers are written verbatim (used to
    #: send broken Content-Length values a well-behaved client never would).
    raw_headers: Optional[List[Tuple[str, str]]] = None
    #: The ``ServerError.error`` the reply must name, where the strategy
    #: knows it.
    error: Optional[str] = None


def _mutate_drop_key(rng: random.Random) -> _WireRequest:
    payload = _valid_submit()
    node = rng.choice([payload, payload["project"], payload["request"]])
    # The loader defaults ServerSubmit's optional fields when absent (older
    # clients omit them): without one the envelope is still valid, so they
    # are never dropped.
    optional = serialize.optional_fields(ServerSubmit)
    del node[rng.choice(sorted(set(node) - optional))]
    return _WireRequest(body=json.dumps(payload).encode())


#: (where, value) pairs that must each be rejected by type/value validation.
_BAD_FIELDS: List[Tuple[Tuple[str, ...], object]] = [
    (("project",), 42),
    (("project",), "flight-control"),
    (("project",), []),
    (("project",), None),
    (("request",), True),
    (("request",), [1, 2]),
    (("lane",), "bulk"),
    (("lane",), 123),
    (("lane",), None),
    (("lane",), ""),
    (("project", "workload"), 123),
    (("project", "workload"), {"x": 1}),
    (("project", "source"), ["int main", "{}"]),
    (("project", "entry"), 7),
    (("project", "annotations"), False),
    (("project", "processor"), None),
    (("project", "processor"), "z80"),
    (("project", "name"), None),
    (("request", "entry"), 5),
    (("request", "mode"), []),
    (("request", "all_modes"), "yes"),
    (("request", "check_guidelines"), 2.5),
    (("request", "label"), None),
    (("request", "error_scenario"), {}),
    (("request", "options"), 17),
    (("request", "options"), "fast"),
    (("request", "options"), {"schema": 1, "kind": "AnalysisOptions", "warp": 9}),
    (("request", "options"), {"schema": 1, "kind": "ServerError",
                              "error": "x", "message": "y", "job_id": None}),
    # Partial options envelopes (every knob is optional) with a wrong type.
    (("request", "options"), {"schema": 1, "kind": "AnalysisOptions",
                              "use_data_cache": "false"}),
    (("request", "options"), {"schema": 1, "kind": "AnalysisOptions",
                              "compute_bcet": 0}),
    (("request", "options"), {"schema": 1, "kind": "AnalysisOptions",
                              "strict_indirect": "no"}),
    (("request", "options"), {"schema": 1, "kind": "AnalysisOptions",
                              "max_contexts_per_function": "x"}),
]


def _mutate_bad_field(rng: random.Random) -> _WireRequest:
    payload = _valid_submit()
    path, value = rng.choice(_BAD_FIELDS)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return _WireRequest(body=json.dumps(payload).encode())


def _mutate_unknown_kind(rng: random.Random) -> _WireRequest:
    payload = _valid_submit()
    node = rng.choice([payload, payload["project"], payload["request"]])
    node["kind"] = rng.choice(["Nonsense", "", "WCETReport", "serversubmit"])
    return _WireRequest(body=json.dumps(payload).encode())


def _mutate_bad_schema(rng: random.Random) -> _WireRequest:
    payload = _valid_submit()
    payload["schema"] = rng.choice([0, 2, 999, "1", None])
    return _WireRequest(body=json.dumps(payload).encode())


def _mutate_non_object(rng: random.Random) -> _WireRequest:
    return _WireRequest(
        body=rng.choice([b"[]", b"42", b'"submit"', b"null", b"true"])
    )


def _mutate_empty_body(rng: random.Random) -> _WireRequest:
    return _WireRequest(body=b"")


def _mutate_truncated(rng: random.Random) -> _WireRequest:
    valid = json.dumps(_valid_submit()).encode()
    return _WireRequest(body=valid[: rng.randrange(1, len(valid))])


def _mutate_invalid_utf8(rng: random.Random) -> _WireRequest:
    return _WireRequest(body=b'{"schema": 1, "kind": "\xff\xfe\x80"}')


def _mutate_deep_nesting(rng: random.Random) -> _WireRequest:
    depth = rng.randrange(2_000, 6_000)
    return _WireRequest(body=b"[" * depth + b"]" * depth)


def _mutate_source_count(rng: random.Random) -> _WireRequest:
    payload = _valid_submit()
    if rng.random() < 0.5:
        payload["project"]["workload"] = "flight-control"   # two sources
    else:
        payload["project"]["source"] = None                 # zero sources
    return _WireRequest(body=json.dumps(payload).encode())


def _mutate_bad_since(rng: random.Random) -> _WireRequest:
    since = rng.choice(["abc", "1.5", "--1", "0x10", ""])
    return _WireRequest(method="GET", path=f"/v1/jobs/nope/events?since={since}")


def _mutate_bad_wait(rng: random.Random) -> _WireRequest:
    wait = rng.choice(["abc", "nan", "-1", "inf", "1e999"])
    target = rng.choice(["", "/result", "submit"])
    if target == "submit":
        # A valid submit with a bad wait: refused before its job is queued.
        body = json.dumps(_valid_submit()).encode()
        return _WireRequest(path=f"/v1/jobs?wait={wait}", body=body, error="BadQuery")
    return _WireRequest(
        method="GET", path=f"/v1/jobs/nope{target}?wait={wait}", error="BadQuery"
    )


def _mutate_unknown_job(rng: random.Random) -> _WireRequest:
    job_id = rng.choice(["missing", "..", "a%00b", "-", "%2e%2e"])
    suffix, method = rng.choice(
        [("", "GET"), ("/result", "GET"), ("/events", "GET"), ("/cancel", "POST")]
    )
    body = b"{}" if method == "POST" else None
    return _WireRequest(method=method, path=f"/v1/jobs/{job_id}{suffix}", body=body)


def _mutate_unknown_path(rng: random.Random) -> _WireRequest:
    method = rng.choice(["GET", "POST"])
    path = rng.choice(["/v1/bogus", "/v2/jobs", "/", "/v1/jobs/x/y/z", "/healthz/x"])
    if method == "POST" and path == "/healthz/x":
        path = "/healthz"
    body = b"{}" if method == "POST" else None
    return _WireRequest(method=method, path=path, body=body)


def _mutate_bad_method(rng: random.Random) -> _WireRequest:
    method = rng.choice(["DELETE", "PUT", "PATCH"])
    return _WireRequest(method=method, path="/v1/jobs", body=b"{}")


def _mutate_bad_content_length(rng: random.Random) -> _WireRequest:
    value = rng.choice(["banana", "-5", str(64 * 1024 * 1024 * 1024), "1e3", ""])
    return _WireRequest(
        body=b"",
        raw_headers=[
            ("Content-Type", "application/json"),
            ("Content-Length", value),
        ],
    )


_STRATEGIES: List[Tuple[str, Callable[[random.Random], _WireRequest]]] = [
    ("drop-key", _mutate_drop_key),
    ("bad-field", _mutate_bad_field),
    ("unknown-kind", _mutate_unknown_kind),
    ("bad-schema-version", _mutate_bad_schema),
    ("non-object-body", _mutate_non_object),
    ("empty-body", _mutate_empty_body),
    ("truncated-json", _mutate_truncated),
    ("invalid-utf8", _mutate_invalid_utf8),
    ("deep-nesting", _mutate_deep_nesting),
    ("source-count", _mutate_source_count),
    ("bad-since", _mutate_bad_since),
    ("unknown-job", _mutate_unknown_job),
    ("unknown-path", _mutate_unknown_path),
    ("bad-method", _mutate_bad_method),
    ("bad-content-length", _mutate_bad_content_length),
    ("bad-wait", _mutate_bad_wait),
]


class _KeepAliveBroken(Exception):
    """A malformed exchange left its kept-alive connection unusable."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status


def _exchange(host: str, port: int, request: _WireRequest, timeout: float):
    """Perform one raw HTTP exchange; returns (status, body_bytes).

    When the reply keeps the connection open, a ``GET /healthz`` follows on
    the same connection and must come back 200 with a
    :class:`~repro.server.wire.ServerStats` body — the malformed request must
    not have left bytes behind that the server would parse as the next
    request.  Anything else raises :class:`_KeepAliveBroken`.
    """
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        if request.raw_headers is not None:
            # Hand-rolled framing: send headers verbatim (a sane client
            # would never emit a non-integer Content-Length).
            connection.putrequest(
                request.method, request.path, skip_accept_encoding=True
            )
            for name, value in request.raw_headers:
                connection.putheader(name, value)
            connection.endheaders()
            if request.body:
                connection.send(request.body)
        else:
            headers = {}
            if request.body is not None:
                headers["Content-Type"] = "application/json"
            connection.request(
                request.method, request.path, body=request.body, headers=headers
            )
        response = connection.getresponse()
        status, body = response.status, response.read()
        if not response.will_close:
            _probe_keep_alive(connection, status)
        return status, body
    finally:
        connection.close()


def _probe_keep_alive(connection: http.client.HTTPConnection, status: int) -> None:
    raw = b""
    try:
        connection.request("GET", "/healthz")
        probe = connection.getresponse()
        raw = probe.read()
        if probe.status == 200:
            serialize.from_json(json.loads(raw), ServerStats)
            return
        problem = f"got {probe.status}"
    except (OSError, http.client.HTTPException) as exc:
        problem = f"failed ({type(exc).__name__}: {exc})"
    except Exception as exc:  # noqa: BLE001 - any parse failure counts
        problem = f"body is not ServerStats: {exc}"
    raise _KeepAliveBroken(
        status,
        f"follow-up GET /healthz on the kept-alive connection {problem} "
        f"(body: {raw[:200]!r})",
    )


def _submitted(host: str, port: int, timeout: float) -> int:
    """The server's ``/healthz`` count of accepted submissions."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", "/healthz")
        raw = connection.getresponse().read()
        return serialize.from_json(json.loads(raw), ServerStats).submitted
    finally:
        connection.close()


def run_wire_fuzz(
    url: str, iterations: int = 200, seed: int = 0, timeout: float = 15.0
) -> WireFuzzSummary:
    """Throw ``iterations`` malformed requests at the server at ``url``.

    Every response must be a 4xx with a parseable
    :class:`~repro.server.wire.ServerError` envelope (naming the error the
    strategy expects, where it expects one), a malformed submit must leave
    ``/healthz`` ``submitted`` where it was, and a connection the reply
    keeps open must still serve ``GET /healthz``; anything else — a 5xx, a
    non-envelope body, a queued job, a hang (socket timeout), a poisoned
    kept-alive connection — is recorded as a :class:`WireViolation`.
    """
    split = urlsplit(url)
    host, port = split.hostname, split.port
    rng = random.Random(seed)
    summary = WireFuzzSummary(iterations=iterations, seed=seed)
    submitted = _submitted(host, port, timeout)

    for _ in range(iterations):
        name, build = rng.choice(_STRATEGIES)
        summary.by_strategy[name] = summary.by_strategy.get(name, 0) + 1
        request = build(rng)
        submits = request.method == "POST" and urlsplit(request.path).path == "/v1/jobs"
        try:
            status, body = _exchange(host, port, request, timeout)
            now = _submitted(host, port, timeout) if submits else submitted
        except _KeepAliveBroken as exc:
            summary.violations.append(
                WireViolation(
                    strategy=name,
                    status=exc.status,
                    detail=f"{request.method} {request.path}: {exc}",
                )
            )
            continue
        except (TimeoutError, OSError) as exc:
            summary.violations.append(
                WireViolation(
                    strategy=name,
                    status=None,
                    detail=(
                        f"{request.method} {request.path}: no well-formed "
                        f"response ({type(exc).__name__}: {exc})"
                    ),
                )
            )
            continue
        problem = None
        if not 400 <= status < 500:
            problem = f"expected a 4xx, got {status}"
        else:
            try:
                error = serialize.from_json(json.loads(body), ServerError)
            except Exception as exc:  # noqa: BLE001 - any parse failure counts
                problem = f"body is not a ServerError envelope: {exc}"
            else:
                if request.error is not None and error.error != request.error:
                    problem = f"expected a {request.error} error, got {error.error}"
        if problem is None and now != submitted:
            problem = f"the job was queued (/healthz submitted {submitted} -> {now})"
        submitted = now
        if problem is not None:
            summary.violations.append(
                WireViolation(
                    strategy=name,
                    status=status,
                    detail=(
                        f"{request.method} {request.path}: {problem} "
                        f"(body: {body[:200]!r})"
                    ),
                )
            )
    return summary


# --------------------------------------------------------------------------- #
# Chaos sweep: seeded infrastructure faults against a live server.
# --------------------------------------------------------------------------- #
@dataclass
class ChaosSummary:
    """Outcome of one chaos sweep (``repro fuzz --chaos``)."""

    jobs: int
    seed: int
    workers: int
    seconds: float = 0.0
    #: Injected-fault census: worker kills, deadline hangs, admission-control
    #: rejections, proxy drops/truncations, corrupted store buckets.
    injected: Dict[str, int] = field(default_factory=dict)
    #: The server's own /healthz fault counters at the end of the sweep.
    server_faults: Dict[str, int] = field(default_factory=dict)
    violations: List[FuzzViolation] = field(default_factory=list)

    @property
    def injected_total(self) -> int:
        return sum(self.injected.values())

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": "ChaosSummary",
            "jobs": self.jobs,
            "seed": self.seed,
            "workers": self.workers,
            "seconds": self.seconds,
            "injected": dict(self.injected),
            "injected_total": self.injected_total,
            "server_faults": dict(self.server_faults),
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "seed": v.seed, "detail": v.detail}
                for v in self.violations
            ],
        }


def run_chaos(
    jobs_total: int = 30,
    workers: int = 3,
    seed: int = 1,
    kill_rate: float = 0.3,
    hang_rate: float = 0.2,
    job_timeout: float = 10.0,
    max_queue: int = 4,
    drop_rate: float = 0.25,
    truncate_rate: float = 0.1,
    corrupt_buckets: int = 10,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosSummary:
    """Drive the server through seeded infrastructure faults and check that
    fault tolerance holds (docs/server.md, "Fault tolerance").

    The sweep submits ``jobs_total`` distinct generated programs in a burst
    against a server with ``workers`` supervised workers (``0`` = one per
    CPU, as ``--jobs``), a per-lane queue bound of ``max_queue`` and a
    per-job deadline of ``job_timeout`` seconds, while four seeded injectors
    fire: worker kills and past-deadline hangs (first attempt only, so a
    retry deterministically succeeds), dropped or truncated HTTP responses
    behind a :class:`~repro.testing.faults.FlakyProxy`, and summary-store
    bucket corruption.

    Invariants — each breach is a :class:`FuzzViolation`:

    * every submitted job reaches a terminal state; none is lost to a rejected
      or dropped submission (dedup makes resubmission idempotent);
    * with the burst far over capacity, admission control visibly rejects
      (429 envelopes) rather than queueing unboundedly;
    * every completed result is bit-identical to a direct facade analysis of
      the same program, and the flight-control canary still pins
      ``FLIGHT_CONTROL_PINS`` afterwards;
    * corrupt store buckets are quarantined, not re-read;
    * /healthz counts at least the worker kills and hangs the seeded plan
      drew over the accepted jobs;
    * no dispatcher thread is lost, and the server drains cleanly.
    """
    workers = resolve_jobs(workers)
    say = progress or (lambda message: None)
    summary = ChaosSummary(jobs=jobs_total, seed=seed, workers=workers)
    started = time.perf_counter()
    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    plan = fault_injection.FaultPlan(
        seed=seed,
        kill_rate=kill_rate,
        hang_rate=hang_rate,
        # Past the deadline with margin, but bounded: a hang must trip the
        # supervisor, not stall the sweep if supervision were broken.
        hang_seconds=job_timeout * 2,
    )
    fault_injection.install(plan)

    def violate(kind: str, detail: str, seed_: Optional[int] = None) -> None:
        summary.violations.append(
            FuzzViolation(kind=kind, detail=detail, seed=seed_, preset="chaos")
        )
        say(f"VIOLATION [{kind}]: {detail}")

    try:
        with AnalysisServer(
            port=0,
            jobs=workers,
            cache_dir=cache_dir,
            max_queue=max_queue,
            job_timeout=job_timeout,
        ) as server:
            with fault_injection.FlakyProxy(
                server.host,
                server.port,
                seed=seed,
                drop_rate=drop_rate,
                truncate_rate=truncate_rate,
            ) as proxy:
                direct = ServerClient(server.url, timeout=30.0)
                flaky = ServerClient(proxy.url, timeout=10.0)
                cases = []
                for index in range(jobs_total):
                    case = generate_case(seed + index)
                    rendered = render_case(case)
                    cases.append(
                        (
                            seed + index,
                            _case_spec(case, rendered, "simple"),
                            AnalysisRequest(entry=case.entry),
                        )
                    )

                # Phase 1 — burst: submit everything as fast as possible on
                # one lane with 429-retries off, so admission control is
                # actually observable.
                handles: Dict[int, Optional[object]] = {}
                rejected_429 = 0
                for case_seed, spec, request in cases:
                    try:
                        handles[case_seed] = direct.submit(
                            spec, request, lane="batch", retries=0
                        )
                    except RemoteError as exc:
                        if exc.status != 429:
                            violate(
                                "server-error",
                                f"burst submit failed with HTTP "
                                f"{exc.status}: {exc}",
                                case_seed,
                            )
                        else:
                            rejected_429 += 1
                            if exc.retry_after is None:
                                violate(
                                    "rejection",
                                    "429 envelope is missing its "
                                    "Retry-After hint",
                                    case_seed,
                                )
                        handles[case_seed] = None
                say(
                    f"burst: {jobs_total - rejected_429} accepted, "
                    f"{rejected_429} rejected with 429"
                )
                if rejected_429 == 0 and jobs_total >= 2 * (workers + max_queue):
                    violate(
                        "rejection",
                        f"burst of {jobs_total} jobs against capacity "
                        f"{workers}+{max_queue} produced zero 429 rejections "
                        "— admission control is not shedding load",
                    )

                # Phase 2 — resubmit every rejected job through the flaky
                # proxy, each held up to CHAOS_SUBMIT_WAIT so that a job
                # done by then comes back in the submit's own reply and the
                # proxy's drops and truncations hit result bodies too: 429s
                # honor the Retry-After hint, dropped/truncated responses
                # just resubmit (dedup makes that idempotent).
                for case_seed, spec, request in cases:
                    if handles[case_seed] is not None:
                        continue
                    deadline = time.monotonic() + 180.0
                    while handles[case_seed] is None:
                        if time.monotonic() >= deadline:
                            violate(
                                "lost-job",
                                "rejected job could not be resubmitted "
                                "within 180s",
                                case_seed,
                            )
                            break
                        try:
                            handles[case_seed] = flaky.submit(
                                spec,
                                request,
                                lane="batch",
                                retries=0,
                                wait=CHAOS_SUBMIT_WAIT,
                            )
                        except RemoteError as exc:
                            if exc.status == 429:
                                pause = exc.retry_after or 1.0
                                time.sleep(min(pause, 5.0))
                            else:
                                violate(
                                    "server-error",
                                    f"resubmit failed with HTTP "
                                    f"{exc.status}: {exc}",
                                    case_seed,
                                )
                                break
                        except ClientError:
                            # Proxy ate the response; the submission may or
                            # may not have landed — resubmitting is safe
                            # either way.
                            time.sleep(0.2)

                # Keep some read traffic flowing through the proxy so drops
                # hit the status path too (failures here are the client's
                # problem by design, never the server's).
                for case_seed, _spec, _request in cases[:: max(jobs_total // 10, 1)]:
                    handle = handles.get(case_seed)
                    if handle is None:
                        continue
                    try:
                        flaky.status(handle.id)
                    except (ClientError, RemoteError):
                        pass

                # Phase 3 — wait for every job; with first-attempt-only
                # injection every accepted job must come back *done*.
                done = 0
                for case_seed, spec, request in cases:
                    handle = handles.get(case_seed)
                    if handle is None:
                        continue
                    try:
                        status = direct.wait(
                            handle.id, timeout=REMOTE_JOB_TIMEOUT
                        )
                    except (ClientError, RemoteError) as exc:
                        violate(
                            "lost-job",
                            f"job {handle.id} never reached a terminal "
                            f"state: {exc}",
                            case_seed,
                        )
                        continue
                    if status.state != "done":
                        violate(
                            "lost-job",
                            f"job {handle.id} ended {status.state!r} "
                            f"({status.error.message if status.error else ''}) "
                            "— injected faults are first-attempt-only, so "
                            "the retry should have succeeded",
                            case_seed,
                        )
                    else:
                        done += 1
                say(f"wait: {done}/{jobs_total} jobs done")

                # Phase 4 — bit-identity: every surviving result must equal a
                # direct facade analysis (this process never injects: the
                # kill/hang hooks only fire in marked worker processes).
                checked = 0
                for case_seed, spec, request in cases:
                    handle = handles.get(case_seed)
                    if handle is None:
                        continue
                    try:
                        remote = direct.result(handle.id)
                    except (ClientError, RemoteError):
                        continue  # already reported in phase 3
                    project = spec.to_project(cache="off")
                    project.build()
                    local = AnalysisService(project).analyze(request)
                    if report_identity(remote.report) != report_identity(
                        local.report
                    ):
                        violate(
                            "bit-mismatch",
                            f"result under chaos differs from the direct "
                            f"facade (wcet {remote.report.wcet_cycles} vs "
                            f"{local.report.wcet_cycles})",
                            case_seed,
                        )
                    checked += 1
                say(f"identity: {checked} results checked against the facade")

                # Phase 5 — store corruption: garble bucket files, then prove
                # a fresh store quarantines every one instead of re-parsing.
                buckets = sorted(
                    name[: -len(".pkl")]
                    for name in os.listdir(cache_dir)
                    if name.endswith(".pkl")
                )
                fraction = (
                    1.0
                    if corrupt_buckets >= len(buckets)
                    else corrupt_buckets / len(buckets)
                ) if buckets else 0.0
                corrupted = fault_injection.corrupt_store(
                    cache_dir, seed=seed, fraction=fraction
                ) if buckets else 0
                probe = SummaryStore(cache_dir)
                for bucket in buckets:
                    probe.get(bucket, "chaos-probe")
                if probe.corruptions != corrupted:
                    violate(
                        "quarantine",
                        f"corrupted {corrupted} bucket(s) but the store "
                        f"quarantined {probe.corruptions}",
                    )
                intact = sum(
                    1
                    for name in os.listdir(cache_dir)
                    if name.endswith(".pkl")
                )
                if intact != len(buckets) - corrupted:
                    violate(
                        "quarantine",
                        f"{len(buckets)} bucket(s), {corrupted} corrupted: "
                        f"expected {len(buckets) - corrupted} intact files, "
                        f"found {intact}",
                    )
                say(f"store: {corrupted} bucket(s) corrupted and quarantined")

                # Phase 6 — the server must still be fully operational:
                # every dispatcher alive, canary bounds pinned, fault
                # counters visible in /healthz.
                if server.pool.alive_dispatchers() != workers:
                    violate(
                        "dispatcher",
                        f"only {server.pool.alive_dispatchers()} of "
                        f"{workers} dispatcher threads survived the sweep",
                    )
                canary = _check_canary(direct, "interactive")
                if canary is not None:
                    summary.violations.append(canary)
                    say(f"VIOLATION [canary]: {canary.detail}")
                stats = direct.healthz()
                summary.server_faults = dict(stats.faults)
                for problem in _fault_shortfalls(
                    plan,
                    [
                        fault_key(spec, request)
                        for case_seed, spec, request in cases
                        if handles.get(case_seed) is not None
                    ],
                    stats.faults,
                ):
                    violate("faults", problem)
                summary.injected = {
                    "worker_kills": stats.faults.get("worker_restarts", 0),
                    "job_timeouts": stats.faults.get("job_timeouts", 0),
                    "rejections": stats.faults.get("rejections", 0),
                    "proxy_faults": proxy.faults,
                    "store_corruptions": corrupted,
                }

        # The context exit above drained the server; a clean drain leaves no
        # dispatcher thread running.
        if server.pool.alive_dispatchers() != 0:
            violate(
                "dispatcher",
                f"{server.pool.alive_dispatchers()} dispatcher(s) "
                "still alive after drain",
            )
    finally:
        fault_injection.clear()
        shutil.rmtree(cache_dir, ignore_errors=True)

    summary.seconds = time.perf_counter() - started
    say(
        f"chaos: {summary.injected_total} fault(s) injected, "
        f"{len(summary.violations)} violation(s), {summary.seconds:.0f}s"
    )
    return summary
