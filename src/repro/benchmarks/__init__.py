"""The tracked performance baseline: ``python -m repro bench``.

This package owns the repo's *perf trajectory*.  It runs a fixed macro
workload —

* the flight-control task analysed on two processor models in every operating
  mode, and the message handler analysed on both models (the "analysis" half),
* a 50-seed differential sweep through the full compile → analyze → replay
  oracle (the "sweep" half),

— measures phase-level wall-clock time, and appends the result to
``BENCH_perf.json`` at the repo root.  Every performance-affecting PR appends
one entry, so speedups and regressions stay visible across the repo's history,
and CI replays the workload to catch changed work counters and >20% wall-clock
regressions.

Each entry also records an *identity block* (entry WCET/BCET bounds and a
checksum over every sweep program's bounds).  Two entries with equal identity
blocks computed the exact same analysis results — which is how the benchmark
doubles as an end-to-end equivalence guard when engine internals are rebuilt.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.summaries import SummaryCache, merge_stats
from repro.api import AnalysisRequest, AnalysisService, Project, resolve_summary_store
from repro.hardware.processor import leon2_like, simple_scalar
from repro.testing.oracle import OracleConfig
from repro.testing.sweep import SweepResult, run_sweep

#: Seeds of the sweep half of the macro workload (fixed forever: entries in
#: BENCH_perf.json are only comparable if every PR measures the same work).
SWEEP_SEEDS = tuple(range(1, 51))
#: Input vectors per swept program.
SWEEP_INPUT_VECTORS = 4
#: How often the analysis half is repeated (analyses are fast relative to the
#: sweep; repeating keeps their share of the total measurable).
ANALYSIS_REPEATS = 5


def machine_fingerprint() -> str:
    """Coarse identity of the measuring machine.

    Wall-clock numbers are only comparable between runs on similar hardware;
    the regression check refuses to compare a laptop measurement against a
    CI-runner measurement (the identity checksum, by contrast, is
    machine-independent and always compared).
    """
    return f"{platform.machine()}-cpu{os.cpu_count()}-py{platform.python_version()}"


@dataclass
class BenchmarkRecord:
    """One measured run of the macro workload."""

    label: str
    timestamp: str
    total_seconds: float
    phases: Dict[str, float]
    identity: Dict[str, object]
    workload: Dict[str, int]
    jobs: int = 1
    #: Function-summary cache accounting: ``enabled`` records whether a
    #: persistent store was attached (a "warm-capable" run), the counters are
    #: tier-1/tier-2 hits and misses summed over the whole workload.
    cache: Dict[str, object] = field(default_factory=dict)
    #: Work counters of the analysis half (fixpoint iterations, simplex
    #: pivots), summed over all analyses — wall-time attribution without a
    #: profiler.
    counters: Dict[str, int] = field(default_factory=dict)
    python: str = field(default_factory=platform.python_version)
    machine: str = field(default_factory=machine_fingerprint)
    #: Optional side measurements (e.g. the traced-vs-untraced overhead of
    #: ``bench --trace-overhead``); serialised only when non-empty so plain
    #: entries keep their historical shape.
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def cache_mode(self) -> tuple:
        """(persistent store attached, store was warm) — wall-clock numbers
        are only comparable between runs with equal cache modes."""
        return (bool(self.cache.get("enabled")), bool(self.cache.get("warm")))

    def to_json(self) -> Dict[str, object]:
        payload = {
            "label": self.label,
            "timestamp": self.timestamp,
            "python": self.python,
            "machine": self.machine,
            "jobs": self.jobs,
            "total_seconds": round(self.total_seconds, 4),
            "phases": {name: round(value, 4) for name, value in sorted(self.phases.items())},
            "identity": self.identity,
            "workload": self.workload,
            "cache": self.cache,
            "counters": self.counters,
        }
        if self.extra:
            payload["extra"] = self.extra
        return payload


# --------------------------------------------------------------------------- #
# The two halves of the macro workload
# --------------------------------------------------------------------------- #
def run_analysis_half(repeats: int = ANALYSIS_REPEATS, cache_dir: Optional[str] = None):
    """Analyse the two paper workloads on both processor models.

    Returns ``(reports, phase_seconds, wall, cache_stats, counters)``.  Every
    workload × processor pair gets its own :class:`AnalysisService`, and all
    of them share one in-process summary cache (that *is* the workload now:
    the engine memoises repeated analyses); ``cache_dir`` additionally
    attaches the persistent tier shared with previous runs.
    """
    started = time.perf_counter()
    phase_totals: Dict[str, float] = {}
    counters: Dict[str, int] = {}
    reports = {}
    # Cache wiring through the facade's single precedence resolver; an absent
    # cache_dir means *no* persistent tier (never a global default), so the
    # measured workload is exactly what the flags say.
    cache = SummaryCache(store=resolve_summary_store(cache_dir if cache_dir else "off"))
    for _ in range(repeats):
        reports = {}
        for proc_name, factory in (("simple", simple_scalar), ("leon2", leon2_like)):
            for workload, all_modes in (("flight_control", True), ("message_handler", False)):
                # Fresh projects per repeat: program construction is part of
                # the measured workload.
                project = Project.from_workload(workload, processor=factory(), cache="off")
                result = AnalysisService(project, summary_cache=cache).analyze(
                    AnalysisRequest(all_modes=all_modes)
                )
                label = f"{workload}/{proc_name}"
                if all_modes:
                    for mode, report in result.reports.items():
                        reports[f"{label}/{mode or 'all'}"] = report
                else:
                    reports[label] = result.report
        for report in reports.values():
            for phase, seconds in report.phase_seconds().items():
                key = f"analysis.{phase}"
                phase_totals[key] = phase_totals.get(key, 0.0) + seconds
            for timing in report.phases:
                if timing.iterations:
                    if timing.phase == "path analysis":
                        key = "analysis.simplex_pivots"
                    else:
                        key = "analysis.fixpoint_iterations"
                    counters[key] = counters.get(key, 0) + timing.iterations
    wall = time.perf_counter() - started
    phase_totals["analysis.wall"] = wall
    return reports, phase_totals, wall, cache.stats(), counters


def run_sweep_half(jobs: int = 1, cache_dir: Optional[str] = None) -> SweepResult:
    """The 50-seed differential sweep of the macro workload."""
    config = OracleConfig(max_input_vectors=SWEEP_INPUT_VECTORS, cache_dir=cache_dir)
    return run_sweep(SWEEP_SEEDS, config, jobs=jobs)


def sweep_checksum(sweep: SweepResult) -> str:
    """Checksum over every swept program's (wcet, bcet) pair."""
    digest = hashlib.sha256()
    for name, (wcet, bcet) in sorted(sweep.bounds_by_case().items()):
        digest.update(f"{name}:{wcet}:{bcet}\n".encode())
    return digest.hexdigest()[:16]


def run_macro_workload(
    label: str, jobs: int = 1, cache_dir: Optional[str] = None
) -> BenchmarkRecord:
    """Run the full macro workload once and package the measurement.

    ``cache_dir`` attaches the persistent function-summary store to both
    halves: the first ("cold") run over a fresh directory fills it, a second
    ("warm") run reuses it — results are checksum-identical either way, which
    CI asserts on every push.
    """
    started = time.perf_counter()
    reports, phases, _, analysis_cache_stats, counters = run_analysis_half(
        cache_dir=cache_dir
    )
    sweep = run_sweep_half(jobs=jobs, cache_dir=cache_dir)
    total = time.perf_counter() - started

    cache_stats: Dict[str, object] = {}
    merge_stats(cache_stats, analysis_cache_stats)
    merge_stats(cache_stats, sweep.cache_stats())
    cache_stats["enabled"] = bool(cache_dir)
    # A run is "warm" only when the store served it completely (hits and no
    # recomputation): its wall clock is only comparable against other fully
    # warm runs (see check_regression).  Partially warm runs are classified
    # cold — they can only be faster than a cold baseline, and the gate is
    # one-sided.
    cache_stats["warm"] = (
        cache_stats.get("tier2_hits", 0) > 0 and cache_stats.get("puts", 1) == 0
    )

    phases["sweep.wall"] = sweep.seconds
    for phase, seconds in sweep.phase_seconds().items():
        phases[f"sweep.{phase}"] = seconds

    identity: Dict[str, object] = {
        "sweep_checksum": sweep_checksum(sweep),
        "sweep_violations": sum(len(r.violations) for r in sweep.results),
    }
    for key in ("flight_control/simple/all", "flight_control/simple/air",
                "flight_control/leon2/all", "message_handler/simple",
                "message_handler/leon2"):
        report = reports[key]
        identity[f"{key}.wcet"] = report.wcet_cycles
        identity[f"{key}.bcet"] = report.bcet_cycles

    workload = {
        "analyses": len(reports) * ANALYSIS_REPEATS,
        "analysis_repeats": ANALYSIS_REPEATS,
        "sweep_programs": len(SWEEP_SEEDS),
        "sweep_runs": sweep.total_runs,
    }
    return BenchmarkRecord(
        label=label,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        total_seconds=total,
        phases=phases,
        identity=identity,
        workload=workload,
        jobs=jobs,
        cache=cache_stats,
        counters=counters,
    )


# --------------------------------------------------------------------------- #
# Tracing overhead (``bench --trace-overhead``)
# --------------------------------------------------------------------------- #
def measure_trace_overhead(jobs: int = 1) -> BenchmarkRecord:
    """Measure the wall-clock cost of tracing on the macro workload.

    Runs the workload four times in ABBA order (untraced, traced, traced,
    untraced) so both modes get one cache-cold and one cache-warm slot —
    in-process kernel/code caches persist across runs, and a fixed order
    would systematically flatter whichever mode ran later.  The overhead is
    computed best-of-each (damping scheduler noise), and every run's
    identity block must match: tracing that changes a single bound is a
    bug, not overhead.

    Returns the best *untraced* record with the measurement attached under
    ``extra`` — that record is what lands in BENCH_perf.json, so the
    trajectory's wall-clock numbers stay untraced-to-untraced comparable.
    """
    from repro.obs import trace as obs_trace

    runs = []  # (traced, record, span_count)
    for traced in (False, True, True, False):
        if traced:
            previous = obs_trace.install(obs_trace.Tracer())
            try:
                record = run_macro_workload("traced", jobs=jobs)
                spans = len(obs_trace.active().drain())
            finally:
                obs_trace.install(previous)
        else:
            record = run_macro_workload("untraced", jobs=jobs)
            spans = 0
        runs.append((traced, record, spans))

    identities = [record.identity for _, record, _ in runs]
    if any(identity != identities[0] for identity in identities[1:]):
        raise AssertionError(
            "tracing changed analysis results: identity blocks differ "
            f"between runs: {identities}"
        )

    best_untraced = min(
        (record for traced, record, _ in runs if not traced),
        key=lambda record: record.total_seconds,
    )
    best_traced = min(
        (record for traced, record, _ in runs if traced),
        key=lambda record: record.total_seconds,
    )
    overhead = (
        best_traced.total_seconds - best_untraced.total_seconds
    ) / best_untraced.total_seconds
    best_untraced.extra["trace_overhead"] = {
        "untraced_seconds": round(best_untraced.total_seconds, 4),
        "traced_seconds": round(best_traced.total_seconds, 4),
        "overhead_fraction": round(overhead, 4),
        "spans_per_run": max(spans for _, _, spans in runs),
    }
    return best_untraced


# --------------------------------------------------------------------------- #
# BENCH_perf.json bookkeeping
# --------------------------------------------------------------------------- #
def load_history(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {
            "schema": 1,
            "workload": (
                "macro: flight_control+message_handler analyses "
                f"(x{ANALYSIS_REPEATS}) + {len(SWEEP_SEEDS)}-seed differential sweep"
            ),
            "entries": [],
        }


def append_record(path: str, record: BenchmarkRecord) -> Dict[str, object]:
    history = load_history(path)
    history["entries"].append(record.to_json())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")
    return history


#: Deterministic work counts :func:`check_regression` compares exactly:
#: ``(name, section of the entry, key)``.
WORK_COUNTERS = (
    ("analysis.fixpoint_iterations", "counters", "analysis.fixpoint_iterations"),
    ("analysis.simplex_pivots", "counters", "analysis.simplex_pivots"),
    ("cache.tier1_hits", "cache", "tier1_hits"),
)


def check_regression(
    path: str, record: BenchmarkRecord, max_regression: float = 0.20
) -> Optional[str]:
    """Compare ``record`` against the committed trajectory.

    Three independent checks:

    * **identity** — against the *latest* entry regardless of machine: the
      sweep checksum is machine-independent, and a perf PR must not silently
      change analysis results;
    * **work** — :data:`WORK_COUNTERS`, exactly, against the latest entry
      that recorded counters with the same cold/warm classification.  The
      counts do not depend on the machine, and a cold run does the same work
      with or without a persistent store; a change that alters them on
      purpose appends a new entry;
    * **wall clock** — against the latest entry measured on the *same
      machine fingerprint* with the *same cache mode* (persistent store
      attached, store warm): comparing a laptop's seconds against a CI
      runner's — or a warm-cache run against a cold one — would fail
      spuriously.  Without a comparable baseline the wall-clock check is
      skipped; the uploaded measurement then seeds one.

    Returns an error message on failure, else ``None``.
    """
    history = load_history(path)
    entries: List[Dict] = history.get("entries", [])
    if not entries:
        return None
    problems = []

    latest = entries[-1]
    latest_checksum = latest.get("identity", {}).get("sweep_checksum")
    if latest_checksum and latest_checksum != record.identity["sweep_checksum"]:
        problems.append(
            "analysis results changed: sweep checksum "
            f"{record.identity['sweep_checksum']} != baseline {latest_checksum}"
        )

    warm = bool(record.cache.get("warm"))
    work_baseline = next(
        (
            entry
            for entry in reversed(entries)
            if entry.get("counters")
            and bool(entry.get("cache", {}).get("warm")) == warm
        ),
        None,
    )
    if work_baseline is not None:
        sections = {"counters": record.counters, "cache": record.cache}
        for name, section, key in WORK_COUNTERS:
            expected = work_baseline.get(section, {}).get(key)
            observed = sections[section].get(key)
            if observed != expected:
                problems.append(
                    f"work changed: {name} {observed} != baseline {expected} "
                    f"({work_baseline.get('label', '?')!r})"
                )

    baseline = next(
        (
            entry
            for entry in reversed(entries)
            if entry.get("machine") == record.machine
            and (
                bool(entry.get("cache", {}).get("enabled")),
                bool(entry.get("cache", {}).get("warm")),
            )
            == record.cache_mode
        ),
        None,
    )
    if baseline is not None:
        limit = baseline["total_seconds"] * (1.0 + max_regression)
        if record.total_seconds > limit:
            problems.append(
                f"wall-clock regression: {record.total_seconds:.2f}s vs baseline "
                f"{baseline['total_seconds']:.2f}s "
                f"(limit {limit:.2f}s = +{max_regression:.0%}, "
                f"machine {record.machine})"
            )
    return "; ".join(problems) or None
