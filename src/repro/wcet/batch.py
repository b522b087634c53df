"""Process-pool helpers shared by every parallel entry point.

:func:`resolve_jobs` normalises a ``--jobs`` value and :func:`pool_map` is
``Pool.map`` with the repo's standard chunking (the differential sweep of
:mod:`repro.testing.sweep`).  :func:`_init_batch_worker` gives a worker
process its own in-process :class:`~repro.analysis.summaries.SummaryCache`
over the shared persistent store; the pool behind
:meth:`repro.api.service.AnalysisService.analyze_iter` and the analysis
server's supervised workers both start from it, so worker cache wiring has
exactly one implementation.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Optional, Sequence

from repro.analysis.summaries import SummaryCache
from repro.cache import SummaryStore


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/1 → serial, <=0 → all cores."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return multiprocessing.cpu_count()
    return jobs


def pool_map(
    function: Callable,
    items: Sequence,
    jobs: int,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
) -> List:
    """``pool.map`` with the repo's standard chunking, preserving item order."""
    chunksize = max(1, len(items) // (jobs * 4))
    with multiprocessing.Pool(
        processes=jobs, initializer=initializer, initargs=initargs
    ) as pool:
        return pool.map(function, items, chunksize=chunksize)


#: The summary cache of a pool worker process, set by :func:`_init_batch_worker`.
_WORKER_CACHE: Optional[SummaryCache] = None


def _init_batch_worker(cache_dir: Optional[str]) -> None:
    global _WORKER_CACHE
    store = SummaryStore(cache_dir) if cache_dir else None
    _WORKER_CACHE = SummaryCache(store=store)
