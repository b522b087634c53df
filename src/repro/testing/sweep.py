"""Differential sweeps over many programs, optionally parallel across processes.

:func:`run_sweep` checks many generated programs (and/or explicit cases)
through the differential oracle and aggregates the outcome.  With ``jobs > 1``
the per-program checks are distributed over a :class:`repro.pool.SupervisedPool`
(the repo's one worker pool) — each program is an independent
compile→analyze→replay pipeline, so the sweep scales with cores, and a
worker that dies or hangs costs its program a retry rather than the sweep.
When the oracle configuration names a ``cache_dir``, every worker shares the
same persistent function-summary store, so repeated sweeps over the same
seeds skip the analysis work entirely.

The parallel and serial paths produce identical results (same seeds, same
oracle configuration, same deterministic input enumeration); only wall-clock
differs.  ``WCETReport`` objects are dropped from the returned results by
default — they are large, and shipping them back through the pool pickling
layer would dominate the win of parallelism.  Pass ``keep_reports=True`` when
the caller needs them: serial sweeps keep the full reports, parallel sweeps
ship the :meth:`~repro.wcet.report.WCETReport.slim` form (everything except
the per-block timing tables) across the pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.summaries import merge_stats
from repro.pool import SupervisedPool, resolve_jobs
from repro.testing.generator import generate_case
from repro.testing.oracle import DifferentialOracle, OracleConfig, OracleResult


@dataclass
class SweepResult:
    """Aggregated outcome of one differential sweep."""

    results: List[OracleResult]
    seconds: float
    jobs: int

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def failures(self) -> List[OracleResult]:
        return [result for result in self.results if not result.ok]

    @property
    def total_runs(self) -> int:
        return sum(len(result.runs) for result in self.results)

    def cache_stats(self) -> Dict[str, int]:
        """Function-summary cache counters summed over all checked programs."""
        totals: Dict[str, int] = {}
        for result in self.results:
            merge_stats(totals, result.cache_stats)
        return totals

    def bounds_by_case(self) -> Dict[str, tuple]:
        """``case name -> (wcet, bcet)`` — the identity fingerprint of a sweep."""
        return {
            result.case_name: (result.wcet_cycles, result.bcet_cycles)
            for result in self.results
        }


def _worker_check(
    config: OracleConfig, keep_reports: bool
) -> Callable[[int], OracleResult]:
    """Pool-worker setup: one oracle per worker checks every seed it gets."""
    oracle = DifferentialOracle(config)

    def check(seed: int) -> OracleResult:
        result = oracle.check(generate_case(seed))
        if result.report is not None:
            # Full reports are heavy; ship the slim form when the caller
            # asked for reports at all, nothing otherwise.
            result.report = result.report.slim() if keep_reports else None
        return result

    return check


def run_sweep(
    seeds: Sequence[int],
    config: Optional[OracleConfig] = None,
    jobs: Optional[int] = None,
    keep_reports: bool = False,
) -> SweepResult:
    """Differential-check the programs generated from ``seeds``.

    ``jobs`` selects the worker-pool width: ``None`` or ``1`` runs serially in
    this process, ``0`` (or any non-positive value) uses every CPU this
    process may run on, and any other value that many worker processes.
    Results are returned in seed order regardless of the completion order
    across workers.  A pool raises :class:`~repro.pool.WorkerCrashed` or
    :class:`~repro.pool.JobTimeout` once a program's retries are spent.
    """
    config = config or OracleConfig()
    jobs = resolve_jobs(jobs)
    started = time.perf_counter()

    seeds = list(seeds)
    if jobs <= 1 or len(seeds) <= 1:
        oracle = DifferentialOracle(config)
        results = []
        for seed in seeds:
            result = oracle.check(generate_case(seed))
            if not keep_reports:
                result.report = None
            results.append(result)
        return SweepResult(results, time.perf_counter() - started, jobs=1)

    results = [None] * len(seeds)
    pool = SupervisedPool(_worker_check, jobs, setup_args=(config, keep_reports))
    for index, result in pool.imap_unordered(seeds):
        results[index] = result
    return SweepResult(results, time.perf_counter() - started, jobs=jobs)
