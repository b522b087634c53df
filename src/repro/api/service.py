"""The :class:`AnalysisService` — one typed request/result surface.

The paper's workflow (Figure 1) is one pipeline: source → annotations →
decoding → analyses → report.  The service exposes exactly that pipeline for
one :class:`~repro.api.project.Project`:

* :class:`AnalysisRequest` names what to analyse (entry, one mode or all
  modes, an error scenario, tuning options, whether to run the guideline
  checker alongside);
* :class:`AnalysisResult` bundles everything a run produced — per-mode
  :class:`~repro.wcet.report.WCETReport`\\ s, guideline findings, summary-cache
  statistics and wall-clock time — and serialises losslessly to JSON
  (:mod:`repro.api.serialize`), so results cross process and machine
  boundaries.

Every front end is a thin consumer of this layer: the ``python -m repro``
CLI, the analysis server's workers, the differential oracle and the
benchmarks.  :meth:`AnalysisService.analyze_many` (and its streaming twin
:meth:`AnalysisService.analyze_iter`) serves many requests, serially or over
a process pool.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.summaries import SummaryCache
from repro.api.project import Project
from repro.api import serialize
from repro.errors import ReproError
from repro.guidelines.checker import GuidelineChecker, GuidelineReport
from repro.obs import trace as obs_trace
from repro.wcet import batch
from repro.wcet.analyzer import AnalysisOptions, WCETAnalyzer
from repro.wcet.report import WCETReport


class RequestError(ReproError):
    """An :class:`AnalysisRequest` combination the service cannot serve."""


@dataclass
class AnalysisRequest:
    """One typed analysis request against a project.

    ``mode``/``all_modes``: analyse one operating mode (``None`` = the
    mode-unaware case) or the whole declared mode family through the shared
    mode pipeline.  ``check_guidelines`` additionally runs the MISRA
    predictability checker (mini-C projects only).
    """

    entry: Optional[str] = None
    mode: Optional[str] = None
    all_modes: bool = False
    error_scenario: Optional[str] = None
    options: Optional[AnalysisOptions] = None
    check_guidelines: bool = False
    label: str = ""


@dataclass
class AnalysisResult:
    """Everything one :meth:`AnalysisService.analyze` call produced."""

    label: str
    entry: str
    processor: str
    #: Per-mode reports; key ``None`` is the mode-unaware analysis.  A
    #: single-mode request yields a one-entry dict keyed by that mode.
    reports: Dict[Optional[str], WCETReport] = field(default_factory=dict)
    guidelines: Optional[GuidelineReport] = None
    #: Summary-cache hit/miss counters accrued by this request.
    cache_stats: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0

    # ------------------------------------------------------------------ #
    @property
    def report(self) -> WCETReport:
        """The primary report: the only one, or the mode-unaware one."""
        if len(self.reports) == 1:
            return next(iter(self.reports.values()))
        return self.reports[None]

    @property
    def wcet_cycles(self) -> int:
        return self.report.wcet_cycles

    @property
    def bcet_cycles(self) -> int:
        return self.report.bcet_cycles

    def modes(self) -> List[Optional[str]]:
        return list(self.reports)

    # ------------------------------------------------------------------ #
    def to_json(self) -> dict:
        """Versioned JSON form (see :mod:`repro.api.serialize`)."""
        return serialize.to_json(self)

    @classmethod
    def from_json(cls, data: dict) -> "AnalysisResult":
        return serialize.from_json(data, cls)

    def format_text(self) -> str:
        """Human-readable multi-line rendering of the whole result."""
        lines: List[str] = []
        title = f"Analysis of {self.label or self.entry!r} on {self.processor}"
        lines.append(title)
        lines.append("#" * len(title))
        for mode, report in self.reports.items():
            if len(self.reports) > 1:
                lines.append("")
                lines.append(f"--- mode: {mode or '(mode unaware)'} ---")
            lines.append(report.format_text())
        if self.guidelines is not None:
            lines.append("")
            lines.append(self.guidelines.format_text())
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnalysisResult({self.label or self.entry!r}, "
            f"modes={[m or '-' for m in self.reports]}, "
            f"wcet={self.report.wcet_cycles})"
        )


# Mode keys may be None (the mode-unaware analysis), which JSON object keys
# cannot express: the reports travel as an ordered list of entries.
serialize.register(AnalysisResult, entries={"reports": ("mode", "report")})


class AnalysisService:
    """Runs typed analysis requests against one project.

    The service owns the project's summary-cache wiring: all requests served
    by one service share an in-process :class:`SummaryCache` tier, backed by
    the project's resolved persistent store (if any).  Callers with their own
    caching contract (the differential oracle, pool and server workers) pass
    an explicit ``summary_cache``.
    """

    def __init__(
        self, project: Project, summary_cache: Optional[SummaryCache] = None
    ):
        self.project = project
        if summary_cache is None:
            summary_cache = SummaryCache(store=project.summary_store())
        self.summary_cache = summary_cache

    # ------------------------------------------------------------------ #
    def analyzer(self, options: Optional[AnalysisOptions] = None) -> WCETAnalyzer:
        """A WCET analyzer over the project's program, sharing the cache."""
        return WCETAnalyzer(
            self.project.build(),
            self.project.processor,
            annotations=self.project.annotations,
            options=options,
            summary_cache=self.summary_cache,
        )

    def analyze(self, request: Optional[AnalysisRequest] = None) -> AnalysisResult:
        """Serve one request; raises :class:`~repro.errors.ReproError` on
        tier-one failures (unbounded loops, unresolved indirect flow, ...)."""
        request = request or AnalysisRequest()
        if request.all_modes and (request.mode or request.error_scenario):
            # Silently dropping either would hand back bounds that do not
            # reflect what was asked for.
            raise RequestError(
                "all_modes analyses every declared mode; it cannot be "
                "combined with mode= or error_scenario= (request one mode, "
                "or drop all_modes)"
            )
        started = time.perf_counter()
        before = self.summary_cache.stats()
        with obs_trace.span(
            "analyze",
            attrs={
                "label": request.label or self.project.name,
                "entry": request.entry or self.project.entry,
                "all_modes": request.all_modes,
            },
        ):
            analyzer = self.analyzer(request.options)
            entry = request.entry or self.project.entry
            if request.all_modes:
                reports = analyzer.analyze_all_modes(entry=entry)
            else:
                reports = {
                    request.mode: analyzer.analyze(
                        entry=entry,
                        mode=request.mode,
                        error_scenario=request.error_scenario,
                    )
                }
            guidelines = self.check_guidelines() if request.check_guidelines else None
        after = self.summary_cache.stats()
        return AnalysisResult(
            label=request.label or self.project.name,
            entry=entry or self.project.build().entry,
            processor=self.project.processor.name,
            reports=reports,
            guidelines=guidelines,
            cache_stats={
                key: after[key] - before.get(key, 0) for key in after
            },
            seconds=time.perf_counter() - started,
        )

    def analyze_iter(
        self,
        requests: Sequence[AnalysisRequest],
        jobs: Optional[int] = None,
    ) -> Iterator[Tuple[int, AnalysisResult]]:
        """Serve many requests, yielding each result **as it finishes**.

        Yields ``(index, AnalysisResult)`` in completion order (request order
        when serial); each result equals what :meth:`analyze` returns for
        that request.  ``jobs``: ``None``/1 serial, ``0`` all cores, else
        that many worker processes.  Serial runs share this service's
        in-process cache; each pool worker keeps one of its own, backed by
        this service's persistent store (if any).
        """
        requests = list(requests)
        jobs = batch.resolve_jobs(jobs)
        if jobs <= 1 or len(requests) <= 1:
            for index, request in enumerate(requests):
                yield index, self.analyze(request)
            return
        # Build once here, so the pickled project carries the program (and a
        # mini-C project's AST, for guideline checks) instead of every task
        # recompiling it.
        self.project.build()
        store = self.summary_cache.store
        tasks = [(self.project, index, request) for index, request in enumerate(requests)]
        with multiprocessing.Pool(
            processes=min(jobs, len(requests)),
            initializer=batch._init_batch_worker,
            initargs=(store.path if store is not None else None,),
        ) as pool:
            yield from pool.imap_unordered(_analyze_in_worker, tasks)

    def analyze_many(
        self,
        requests: Sequence[AnalysisRequest],
        jobs: Optional[int] = None,
        on_result: Optional[Callable[[int, AnalysisResult], None]] = None,
    ) -> List[AnalysisResult]:
        """Serve many requests, optionally across a process pool.

        Results come back in request order; each carries its own cache-stat
        delta and wall time.  ``on_result(index, result)`` — if given — is
        invoked once per request *as it finishes* (completion order), so
        callers can report progress without switching to
        :meth:`analyze_iter`.  ``jobs`` is as for :meth:`analyze_iter`.
        """
        requests = list(requests)
        results: List[Optional[AnalysisResult]] = [None] * len(requests)
        for index, result in self.analyze_iter(requests, jobs=jobs):
            results[index] = result
            if on_result is not None:
                on_result(index, result)
        return list(results)

    def check_guidelines(self) -> GuidelineReport:
        """Run the MISRA predictability checker over the project's source."""
        return GuidelineChecker().check_unit(self.project.compilation_unit())


def _analyze_in_worker(
    task: Tuple[Project, int, AnalysisRequest],
) -> Tuple[int, AnalysisResult]:
    """Pool-worker side of :meth:`AnalysisService.analyze_iter`."""
    project, index, request = task
    service = AnalysisService(project, summary_cache=batch._WORKER_CACHE)
    return index, service.analyze(request)
