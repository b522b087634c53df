"""The single ``python -m repro`` command line, built on the facade.

Subcommands (each supports machine-readable ``--json`` output on stdout; with
``--json`` all progress chatter moves to stderr so stdout stays parseable):

* ``analyze`` — WCET/BCET analysis of a workload, a mini-C file or an
  assembly file, optionally per operating mode / error scenario;
* ``check`` — the MISRA-C predictability checker over a mini-C file;
* ``sweep`` — the differential soundness sweep over generated programs;
* ``fuzz`` — the same oracle through the server path, plus the wire fuzzer
  and (``--chaos``) the fault-injection sweep;
* ``report`` — pretty-print (or re-emit) a previously saved ``--json`` file;
* ``serve`` — run the persistent analysis server (:mod:`repro.server`);
  ``analyze --remote URL`` sends the same request to such a server instead
  of analysing locally (results are bit-identical).

Examples::

    python -m repro analyze --workload flight-control --all-modes --json
    python -m repro analyze --source task.c --annotations task.ann --processor leon2
    python -m repro check examples/problematic.c
    python -m repro sweep --count 25 --jobs 0
    python -m repro report analysis.json
    python -m repro serve --port 8472 --jobs 4 --cache-dir .repro-cache
    python -m repro analyze --workload flight-control --remote http://127.0.0.1:8472

Exit codes (documented contract, see docs/api.md):

* ``0`` — success;
* ``1`` — the operation ran and failed (analysis error, strict-check
  findings, sweep violations, unreachable server);
* ``2`` — the invocation was unusable (unknown flags, missing/malformed
  input files, invalid flag combinations) — argparse's own convention.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import __version__
from repro.api.project import PROCESSORS, Project, ProjectError
from repro.api.serialize import SchemaError, from_json, to_json
from repro.api.service import AnalysisRequest, AnalysisService
from repro.errors import ReproError

_PROCESSOR_CHOICES = sorted(PROCESSORS)

#: The documented exit-code contract of every subcommand.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _emit(args, payload: dict, text: str) -> None:
    """Write the subcommand's primary output (JSON or text, file or stdout)."""
    rendered = json.dumps(payload, indent=2) if args.json else text
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
            handle.write("\n")
    else:
        print(rendered)


def _say(args, *values) -> None:
    """Progress chatter: stderr under --json, stdout otherwise."""
    print(*values, file=sys.stderr if args.json else sys.stdout)


def _cache_argument(args) -> str:
    if getattr(args, "no_cache", False):
        return "off"
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return "auto"


def _spec_from_args(args):
    """Build the wire :class:`~repro.server.wire.ProjectSpec` the analyze
    subcommand describes — one spec serves both the local path (built into a
    project here) and the ``--remote`` path (shipped to a server)."""
    from repro.server.wire import ProjectSpec

    annotations = None
    if args.annotations:
        with open(args.annotations, "r", encoding="utf-8") as handle:
            annotations = handle.read()
    if args.workload:
        return ProjectSpec(
            workload=args.workload,
            processor=args.processor,
            entry=args.entry,
            annotations=annotations,
        )
    import os

    path = args.source or args.asm
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    kind = "assembly" if (args.asm or path.endswith((".s", ".asm"))) else "source"
    return ProjectSpec(
        **{kind: text},
        processor=args.processor,
        entry=args.entry,
        annotations=annotations,
        name=os.path.basename(path),
    )


def _project_from_args(args) -> Project:
    return _spec_from_args(args).to_project(cache=_cache_argument(args))


# --------------------------------------------------------------------------- #
# analyze
# --------------------------------------------------------------------------- #
def _cmd_analyze_remote(args) -> int:
    from repro.server.client import ClientError, RemoteError, ServerClient
    from repro.server.wire import WireError

    if args.cache_dir or args.no_cache:
        print(
            "note: cache flags are ignored with --remote (the server owns "
            "its summary store)",
            file=sys.stderr,
        )
    try:
        spec = _spec_from_args(args)
    except (OSError, WireError, ProjectError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    request = AnalysisRequest(
        entry=args.entry,
        mode=args.mode,
        all_modes=args.all_modes,
        error_scenario=args.error_scenario,
        check_guidelines=args.guidelines,
        label=args.label,
    )
    client = ServerClient(args.remote)
    try:
        result = client.analyze(spec, request, lane=args.lane, timeout=args.timeout)
    except (ClientError, RemoteError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    finally:
        client.close()
    _emit(args, to_json(result), result.format_text())
    return EXIT_OK


def _trace_export(path: str):
    """Context manager: install a fresh tracer around one CLI command and
    write everything it recorded to ``path`` as Chrome trace-event JSON."""
    import contextlib

    from repro.obs import trace as obs_trace

    @contextlib.contextmanager
    def _manager():
        previous = obs_trace.install(obs_trace.Tracer())
        span = obs_trace.begin("repro-analyze")
        try:
            yield
        finally:
            obs_trace.end(span)
            tracer = obs_trace.active()
            spans = tracer.drain() if tracer is not None else []
            obs_trace.install(previous)
            try:
                obs_trace.write_chrome_trace(path, spans)
                print(
                    f"wrote trace ({len(spans)} spans) to {path}", file=sys.stderr
                )
            except OSError as exc:
                print(
                    f"warning: cannot write trace to {path}: {exc}",
                    file=sys.stderr,
                )

    return _manager()


def cmd_analyze(args) -> int:
    if args.trace:
        with _trace_export(args.trace):
            return _cmd_analyze_impl(args)
    return _cmd_analyze_impl(args)


def _cmd_analyze_impl(args) -> int:
    if args.remote:
        return _cmd_analyze_remote(args)
    try:
        project = _project_from_args(args)
    except (OSError, ProjectError) as exc:
        # A project we cannot even assemble is a usage error, not an
        # analysis outcome.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    try:
        service = AnalysisService(project)
        result = service.analyze(
            AnalysisRequest(
                entry=args.entry,
                mode=args.mode,
                all_modes=args.all_modes,
                error_scenario=args.error_scenario,
                check_guidelines=args.guidelines,
                label=args.label,
            )
        )
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _emit(args, to_json(result), result.format_text())
    return EXIT_OK


# --------------------------------------------------------------------------- #
# check
# --------------------------------------------------------------------------- #
def cmd_check(args) -> int:
    try:
        project = Project.from_file(args.file, cache="off")
    except (OSError, ProjectError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = AnalysisService(project).check_guidelines()
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _emit(args, to_json(report), report.format_text())
    if args.strict and report.tier_one_findings():
        return EXIT_FAILURE
    return EXIT_OK


# --------------------------------------------------------------------------- #
# sweep (the differential soundness harness)
# --------------------------------------------------------------------------- #
def cmd_sweep(args) -> int:
    from repro.testing.corpus import case_payload, load_corpus
    from repro.testing.generator import generate_case, render_case
    from repro.testing.oracle import DifferentialOracle, OracleConfig
    from repro.testing.shrink import Shrinker
    from repro.testing.sweep import resolve_jobs, run_sweep

    if args.output and not args.json:
        print("error: sweep --output requires --json", file=sys.stderr)
        return EXIT_USAGE
    config = OracleConfig(
        processor_factory=PROCESSORS[args.processor],
        max_input_vectors=args.inputs,
        cache_dir=args.cache_dir,
    )
    jobs = resolve_jobs(args.jobs)
    _say(
        args,
        f"differential sweep: {args.count} programs, base seed {args.base_seed}, "
        f"processor {args.processor!r}, {args.inputs} input vectors each, "
        f"{jobs} worker(s)",
    )
    try:
        sweep = run_sweep(
            range(args.base_seed, args.base_seed + args.count), config, jobs=jobs
        )
    except ReproError as exc:  # a worker pool out of retries (WorkerCrashed, ...)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    failures = []
    for result in sweep.results:
        if args.verbose or not result.ok:
            _say(args, f"  seed {result.seed:>6d}: {result.summary()}")
        if not result.ok:
            failures.append((result.seed, generate_case(result.seed), result))

    elapsed = sweep.seconds
    _say(
        args,
        f"checked {args.count} programs / {sweep.total_runs} concrete runs in "
        f"{elapsed:.1f}s ({elapsed / max(args.count, 1) * 1000:.0f} ms/program); "
        f"{len(failures)} violating",
    )

    corpus_cases = []
    if args.corpus:
        oracle = DifferentialOracle(config)
        corpus_cases = load_corpus()
        _say(args, f"replaying {len(corpus_cases)} corpus cases")
        for case in corpus_cases:
            result = oracle.check(case)
            if args.verbose or not result.ok:
                _say(args, f"  corpus {case.name}: {result.summary()}")
            if not result.ok:
                failures.append((None, case, result))

    for seed, case, result in failures:
        _say(args, "")
        origin = f"seed {seed}" if seed is not None else f"corpus {case.name}"
        _say(args, f"=== VIOLATION ({origin}) " + "=" * 40)
        for violation in result.violations:
            _say(args, f"  {violation}")
        if args.no_shrink or seed is None:
            _say(args, result.source)
            continue
        shrunk = Shrinker(config).shrink(case)
        _say(
            args,
            f"  shrunk to {shrunk.line_count} lines "
            f"({shrunk.reductions} reductions, {shrunk.checks} oracle checks):",
        )
        _say(args, render_case(shrunk.case).source)
        kinds = ",".join(shrunk.result.violation_kinds())
        payload = case_payload(
            shrunk.case,
            f"Found by a differential sweep (seed {seed}): {kinds}. "
            "Minimised by the shrinker; describe the root cause here.",
            name=f"regress-seed-{seed}",
        )
        _say(args, "  corpus payload (save as tests/corpus/<name>.json after fixing):")
        _say(args, json.dumps(payload, indent=2))
        _say(args, f"  reproduce with: generate_case({seed}) — see docs/testing.md")

    if args.json:
        summary = {
            "schema": 1,
            "kind": "SweepSummary",
            "programs": args.count,
            "base_seed": args.base_seed,
            "processor": args.processor,
            "jobs": jobs,
            "runs": sweep.total_runs,
            "seconds": sweep.seconds,
            "corpus_cases_replayed": len(corpus_cases),
            "violating": len(failures),
            "failures": [
                {
                    "seed": seed,
                    "case": result.case_name,
                    "kinds": result.violation_kinds(),
                }
                for seed, _, result in failures
            ],
            "cache_stats": sweep.cache_stats(),
        }
        _emit(args, summary, "")
    return 1 if failures else 0


# --------------------------------------------------------------------------- #
# fuzz (server-path differential fuzzing + wire fuzzing; see docs/testing.md)
# --------------------------------------------------------------------------- #
def cmd_fuzz(args) -> int:
    from repro.testing.fuzz import run_fuzz

    if args.output and not args.json:
        print("error: fuzz --output requires --json", file=sys.stderr)
        return EXIT_USAGE
    if args.chaos:
        return _cmd_fuzz_chaos(args)
    _say(
        args,
        f"fuzz: {args.programs} programs from seed {args.base_seed}, "
        f"{args.jobs} server worker(s), {args.inputs} input vectors each, "
        f"{args.wire_iterations} wire mutations",
    )
    summary = run_fuzz(
        programs=args.programs,
        jobs=args.jobs,
        base_seed=args.base_seed,
        processor=args.processor,
        inputs=args.inputs,
        shrink=not args.no_shrink,
        save_corpus=not args.no_corpus,
        corpus_dir=args.corpus_dir,
        wire_iterations=args.wire_iterations,
        progress=lambda message: _say(args, f"  {message}"),
    )
    _say(
        args,
        f"fuzzed {summary.programs} programs / {summary.total_runs} concrete "
        f"runs in {summary.seconds:.1f}s; presets "
        + ", ".join(f"{k}={v}" for k, v in sorted(summary.preset_counts.items())),
    )
    for violation in summary.violations:
        _say(args, f"  VIOLATION {violation}")
        if violation.corpus_path:
            _say(args, f"    corpus seed filed: {violation.corpus_path}")
    if summary.wire is not None:
        status = "ok" if summary.wire.ok else "FAILED"
        _say(
            args,
            f"wire fuzz: {summary.wire.iterations} malformed requests, "
            f"{len(summary.wire.violations)} mishandled ({status})",
        )
        for violation in summary.wire.violations:
            _say(args, f"  WIRE VIOLATION {violation}")
    if not summary.ok and summary.failing_seeds():
        _say(
            args,
            "reproduce failing seeds with: "
            + ", ".join(f"generate_case({seed})" for seed in summary.failing_seeds()),
        )
    if args.json:
        _emit(args, summary.to_json(), "")
    return EXIT_OK if summary.ok else EXIT_FAILURE


def _cmd_fuzz_chaos(args) -> int:
    """``repro fuzz --chaos``: the seeded fault-injection sweep."""
    from repro.pool import resolve_jobs
    from repro.testing.fuzz import run_chaos

    workers = resolve_jobs(args.jobs)
    _say(
        args,
        f"chaos: {args.chaos_jobs} jobs from seed {args.base_seed} against "
        f"{workers} supervised worker(s) (kill {args.kill_rate:.0%}, "
        f"hang {args.hang_rate:.0%}, drop {args.drop_rate:.0%}, "
        f"queue bound {args.max_queue}, deadline {args.job_timeout:.0f}s)",
    )
    summary = run_chaos(
        jobs_total=args.chaos_jobs,
        workers=workers,
        seed=args.base_seed,
        kill_rate=args.kill_rate,
        hang_rate=args.hang_rate,
        job_timeout=args.job_timeout,
        max_queue=args.max_queue,
        drop_rate=args.drop_rate,
        progress=lambda message: _say(args, f"  {message}"),
    )
    _say(
        args,
        f"chaos summary: {summary.injected_total} injected fault(s) — "
        + ", ".join(f"{k}={v}" for k, v in sorted(summary.injected.items())),
    )
    for violation in summary.violations:
        _say(args, f"  VIOLATION {violation}")
    if args.min_faults and summary.injected_total < args.min_faults:
        # An under-target run means the knobs injected too little chaos to
        # mean anything — fail loudly rather than green-wash.
        print(
            f"error: only {summary.injected_total} faults injected "
            f"(--min-faults {args.min_faults}); raise the rates or job count",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    if args.json:
        _emit(args, summary.to_json(), "")
    _say(args, f"chaos: {'ok' if summary.ok else 'FAILED'}")
    return EXIT_OK if summary.ok else EXIT_FAILURE


# --------------------------------------------------------------------------- #
# report (pretty-print a saved --json file)
# --------------------------------------------------------------------------- #
def cmd_report(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        obj = from_json(data)
    except (OSError, json.JSONDecodeError, SchemaError) as exc:
        # Missing or malformed input is a usage error: exit 2, never 0.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    text = obj.format_text() if hasattr(obj, "format_text") else repr(obj)
    _emit(args, to_json(obj), text)
    return EXIT_OK


# --------------------------------------------------------------------------- #
# serve (the persistent analysis server — see repro.server / docs/server.md)
# --------------------------------------------------------------------------- #
def cmd_serve(args) -> int:
    import signal
    import threading

    from repro.server.http import AnalysisServer
    from repro.pool import DEFAULT_JOB_TIMEOUT

    log_stream = None
    if args.log_json == "-":
        log_stream = sys.stderr
    elif args.log_json:
        try:
            log_stream = open(args.log_json, "a", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot open --log-json {args.log_json}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        server = AnalysisServer(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            verbose=args.verbose,
            max_queue=args.max_queue,
            job_timeout=(
                args.job_timeout
                if args.job_timeout is not None
                else DEFAULT_JOB_TIMEOUT
            ),
            trace_dir=args.trace_dir,
            log_stream=log_stream,
        )
    except OSError as exc:  # port in use, unbindable host, ...
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # bad --max-queue and friends
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())

    def stop_on_http_shutdown() -> None:
        # POST /v1/shutdown drains the server from a request thread; the
        # process must exit then too.
        server.wait_closing()
        stop.set()

    server.start()
    threading.Thread(target=stop_on_http_shutdown, daemon=True).start()
    # Parseable by wrapper scripts (CI waits for this line): keep the format.
    print(
        f"repro server listening on {server.url} "
        f"(workers={server.pool.jobs}, cache={args.cache_dir or 'none'})",
        flush=True,
    )
    stop.wait()
    print("repro server: shutting down (draining workers)...", flush=True)
    server.shutdown()  # waits for a drain already under way
    stats = server.stats()
    print(
        f"repro server: done — {stats.submitted} submissions, "
        f"{stats.executed} executions, {stats.dedup_hits} dedup hits",
        flush=True,
    )
    return EXIT_OK


# --------------------------------------------------------------------------- #
def _add_version(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="WCET predictability toolkit — one CLI over the repro.api facade",
        epilog="exit codes: 0 success, 1 operation failed, 2 unusable invocation",
    )
    _add_version(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    # analyze ----------------------------------------------------------- #
    analyze = sub.add_parser(
        "analyze", help="static WCET/BCET analysis of one program"
    )
    target = analyze.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="named workload from the catalog")
    target.add_argument("--source", help="mini-C source file")
    target.add_argument("--asm", help="textual-assembly file")
    analyze.add_argument("--annotations", help="textual annotation file")
    analyze.add_argument(
        "--processor", choices=_PROCESSOR_CHOICES, default="simple",
        help="processor timing model",
    )
    analyze.add_argument("--entry", default=None, help="entry function")
    analyze.add_argument("--mode", default=None, help="operating mode to analyse")
    analyze.add_argument(
        "--all-modes", action="store_true",
        help="analyse the mode-unaware case plus every declared mode",
    )
    analyze.add_argument("--error-scenario", default=None)
    analyze.add_argument(
        "--guidelines", action="store_true",
        help="also run the MISRA predictability checker (mini-C sources only)",
    )
    analyze.add_argument("--label", default="", help="label recorded in the result")
    analyze.add_argument("--cache-dir", default=None, help="persistent summary store")
    analyze.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent store even if REPRO_CACHE_DIR is set",
    )
    analyze.add_argument("--json", action="store_true", help="JSON output")
    analyze.add_argument("--output", default=None, help="write output to this file")
    analyze.add_argument(
        "--remote", default=None, metavar="URL",
        help="send the request to a running analysis server "
        "(python -m repro serve) instead of analysing locally; results are "
        "bit-identical",
    )
    analyze.add_argument(
        "--lane", choices=["interactive", "batch"], default="interactive",
        help="scheduling lane for --remote submissions (default: interactive)",
    )
    analyze.add_argument(
        "--timeout", type=float, default=None,
        help="seconds to wait for a --remote result (default: no limit)",
    )
    analyze.add_argument(
        "--trace", default=None, metavar="PATH",
        help="export a Chrome trace-event JSON of the analysis to PATH "
        "(open in Perfetto / chrome://tracing; works with --remote too — "
        "the trace context rides the wire, server-side spans are exported "
        "by the server's --trace-dir)",
    )
    analyze.set_defaults(func=cmd_analyze)

    # check ------------------------------------------------------------- #
    check = sub.add_parser(
        "check", help="MISRA-C predictability check of a mini-C file"
    )
    check.add_argument("file", help="mini-C source file")
    check.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when tier-one findings exist",
    )
    check.add_argument("--json", action="store_true", help="JSON output")
    check.add_argument("--output", default=None, help="write output to this file")
    check.set_defaults(func=cmd_check)

    # sweep ------------------------------------------------------------- #
    sweep = sub.add_parser(
        "sweep", help="differential soundness sweep over generated programs"
    )
    sweep.add_argument("--count", type=int, default=25, help="programs to generate")
    sweep.add_argument("--base-seed", type=int, default=1, help="first seed")
    sweep.add_argument(
        "--processor", choices=_PROCESSOR_CHOICES, default="simple",
        help="processor timing model",
    )
    sweep.add_argument(
        "--inputs", type=int, default=4, help="input vectors per program"
    )
    sweep.add_argument(
        "--corpus", action="store_true", help="also replay the checked-in corpus"
    )
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep (1 = serial, 0 = all cores)",
    )
    sweep.add_argument(
        "--cache-dir", default=None,
        help="persistent function-summary cache directory shared by all "
        "workers (re-running the same seeds skips the analysis work; "
        "results are bit-identical either way)",
    )
    sweep.add_argument("--verbose", action="store_true", help="per-program lines")
    sweep.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking on failure"
    )
    sweep.add_argument("--json", action="store_true", help="JSON summary on stdout")
    sweep.add_argument("--output", default=None, help="write output to this file")
    sweep.set_defaults(func=cmd_sweep)

    # fuzz -------------------------------------------------------------- #
    fuzz = sub.add_parser(
        "fuzz",
        help="fuzz the engine through the server path (grammar presets, "
        "bit-identity vs the direct facade, wire-level mutations)",
    )
    fuzz.add_argument(
        "--programs", type=int, default=200, help="programs to generate"
    )
    fuzz.add_argument("--base-seed", type=int, default=1, help="first seed")
    fuzz.add_argument(
        "--jobs", type=int, default=2,
        help="supervised worker processes of the embedded analysis server "
        "(0 = all cores); every job runs in one, at 1 too",
    )
    fuzz.add_argument(
        "--processor", choices=_PROCESSOR_CHOICES, default="simple",
        help="processor timing model",
    )
    fuzz.add_argument(
        "--inputs", type=int, default=3, help="input vectors per program"
    )
    fuzz.add_argument(
        "--wire-iterations", type=int, default=200,
        help="malformed wire requests to throw at the server (0 = skip)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking on failure"
    )
    fuzz.add_argument(
        "--no-corpus", action="store_true",
        help="do not auto-file shrunk violations into tests/corpus/",
    )
    fuzz.add_argument(
        "--corpus-dir", default=None,
        help="where to file shrunk violations (default: tests/corpus)",
    )
    fuzz.add_argument("--json", action="store_true", help="JSON summary on stdout")
    fuzz.add_argument("--output", default=None, help="write output to this file")
    fuzz.add_argument(
        "--chaos", action="store_true",
        help="run the fault-injection sweep instead: seeded worker kills, "
        "deadline hangs, store corruption and dropped HTTP responses "
        "against a live server (docs/server.md, \"Fault tolerance\")",
    )
    fuzz.add_argument(
        "--chaos-jobs", type=int, default=30,
        help="distinct analysis jobs the chaos sweep submits",
    )
    fuzz.add_argument(
        "--kill-rate", type=float, default=0.3,
        help="chaos: probability a job's first attempt kills its worker",
    )
    fuzz.add_argument(
        "--hang-rate", type=float, default=0.2,
        help="chaos: probability a job's first attempt hangs past its deadline",
    )
    fuzz.add_argument(
        "--drop-rate", type=float, default=0.25,
        help="chaos: probability the proxy drops an HTTP response",
    )
    fuzz.add_argument(
        "--job-timeout", type=float, default=10.0,
        help="chaos: per-job wall-clock deadline in seconds, enforced by "
        "killing the worker at every --jobs value",
    )
    fuzz.add_argument(
        "--max-queue", type=int, default=4,
        help="chaos: per-lane admission-control bound on queued executions",
    )
    fuzz.add_argument(
        "--min-faults", type=int, default=0,
        help="chaos: fail unless at least this many faults were injected "
        "(guards CI against a silently-tame run)",
    )
    fuzz.set_defaults(func=cmd_fuzz)

    # report ------------------------------------------------------------ #
    report = sub.add_parser(
        "report", help="pretty-print a saved --json analysis/check result"
    )
    report.add_argument("file", help="JSON file written by analyze/check --json")
    report.add_argument(
        "--json", action="store_true", help="re-emit normalised JSON instead"
    )
    report.add_argument("--output", default=None, help="write output to this file")
    report.set_defaults(func=cmd_report)

    # serve ------------------------------------------------------------- #
    serve = sub.add_parser(
        "serve", help="run the persistent analysis server (see docs/server.md)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8472,
        help="TCP port (0 = pick an ephemeral port; default 8472)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1,
        help="supervised worker processes (0 = all cores); every job runs in "
        "one, at 1 too, for one pipe round trip per job",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="persistent function-summary store shared by all workers",
    )
    serve.add_argument(
        "--max-queue", type=int, default=None,
        help="admission control: max queued executions per lane; over-limit "
        "submissions get 429 with a Retry-After hint (default: unbounded)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None,
        help="default per-job wall-clock deadline in seconds, enforced by "
        "killing the worker; clients can tighten it per submission "
        "(default 300)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="export one Chrome trace-event JSON per completed trace to DIR "
        "(clients submitting without a trace context get server-minted ids)",
    )
    serve.add_argument(
        "--log-json", default=None, metavar="PATH",
        help="write structured JSON-lines logs (requests, worker lifecycle, "
        "job outcomes) to PATH ('-' = stderr)",
    )
    serve.set_defaults(func=cmd_serve)

    for subparser in sub.choices.values():
        _add_version(subparser)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
