"""Persistent, content-addressed result caching (tier 2 of the summary cache).

The analyzer's function-summary cache has two tiers: an in-process tier
(:class:`repro.analysis.summaries.SummaryCache`) and this package's optional
on-disk :class:`SummaryStore`, shared across processes and runs.  Because
every key is a content digest of *all* analysis inputs (function IR +
program layout, processor configuration, annotation facts, call context,
analysis options), a stored summary can never be served for changed inputs —
invalidation is structural, not time-based, and a warm cache is guaranteed
to reproduce the cold path's results bit for bit.

A store is always wired in explicitly:

* per analyzer:
  ``WCETAnalyzer(..., summary_cache=SummaryCache(store=SummaryStore(p)))``
  (:class:`repro.analysis.summaries.SummaryCache`);
* per project: ``Project(..., cache=p)``, or ``cache="auto"`` (the default),
  which opens ``REPRO_CACHE_DIR`` when that is set
  (:func:`repro.api.resolve_summary_store`);
* per oracle sweep: ``OracleConfig(cache_dir=p)`` (each worker process opens
  the same directory).
"""

from repro.cache.store import SummaryStore

__all__ = ["SummaryStore"]
