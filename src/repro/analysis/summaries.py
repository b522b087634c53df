"""Content-addressed function-summary cache (Section 4.3 made structural).

The paper's core observation is that the *same* code is analysed over and
over — per call-site context, per operating mode, per error scenario, per
sweep worker.  This module makes that repetition free: the complete analysis
outcome of one function in one context (its :class:`FunctionSummary`) is
memoised under a key that digests **every input the result depends on**:

* the laid-out program content (:meth:`repro.ir.program.Program.content_digest`
  — instruction stream with addresses, data objects with addresses/initial
  values, entry point),
* the processor configuration (latencies, branch penalty, memory map, cache
  geometry),
* the analysis options,
* the annotation facts visible to the function and its transitive callees
  (plus all control-flow hints),
* the :class:`~repro.wcet.contexts.CallContext`, and
* an engine version stamp (bumped whenever analysis semantics change).

Equal key ⟹ bit-identical result, so serving a summary can never change a
bound — only skip recomputing it.  The cache has two tiers: an in-process
dictionary (shared across ``analyze()`` runs, operating modes and batch
requests inside one process) and an optional on-disk
:class:`~repro.cache.store.SummaryStore` shared across processes and runs.

A summary is a *closure* over the function's analysis subtree: besides the
:class:`~repro.wcet.report.FunctionReport` it records the challenge messages
emitted and the callee contexts registered while the subtree was analysed, so
replaying a hit reconstructs exactly the run state a cold analysis would have
produced (same report set, same challenge lists, same context-cap bookkeeping).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.obs import metrics as obs_metrics

_M_CACHE = obs_metrics.REGISTRY.counter(
    "repro_summary_cache_requests_total",
    "Summary-cache lookups by tier (1 = in-process, 2 = disk) and result.",
    labelnames=("tier", "result"),
)
_M_PUTS = obs_metrics.REGISTRY.counter(
    "repro_summary_cache_puts_total", "Function summaries added to the cache."
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.annotations.registry import AnnotationSet
    from repro.cache.store import SummaryStore
    from repro.cfg.callgraph import CallGraph
    from repro.hardware.processor import ProcessorConfig
    from repro.wcet.contexts import CallContext
    from repro.wcet.report import FunctionReport

#: Bump when analysis semantics change: stale on-disk summaries from an older
#: engine must read as misses, never as results.
ENGINE_VERSION = "3"


def _hexdigest(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:32]


# --------------------------------------------------------------------------- #
# Key derivation
# --------------------------------------------------------------------------- #
def processor_digest(processor: "ProcessorConfig") -> str:
    """Canonical digest of everything timing-relevant in the platform model.

    Computed once per config and kept on it: :class:`ProcessorConfig` is
    frozen (``MemoryMap.latency_bounds`` memoises on the same immutability).
    """
    digest = vars(processor).get("_summary_digest")
    if digest is not None:
        return digest
    latencies = ",".join(
        f"{op.value}={cycles}"
        for op, cycles in sorted(
            processor.op_latencies.items(), key=lambda item: item[0].value
        )
    )
    modules = ";".join(str(module) for module in processor.memory_map)
    digest = _hexdigest(
        processor.name,
        latencies,
        f"bp={processor.branch_penalty}",
        f"ihit={processor.icache_hit_cycles},dhit={processor.dcache_hit_cycles}",
        f"icache={processor.icache!r}",
        f"dcache={processor.dcache!r}",
        modules,
    )
    object.__setattr__(processor, "_summary_digest", digest)
    return digest


def options_digest(options) -> str:
    """Digest of the :class:`~repro.wcet.analyzer.AnalysisOptions` knobs."""
    fields = sorted(vars(options).items())
    return _hexdigest(";".join(f"{name}={value!r}" for name, value in fields))


def hints_digest(annotations: "AnnotationSet") -> str:
    hints = annotations.control_flow_hints
    calls = ";".join(
        f"{address:#x}->{targets}"
        for address, targets in sorted(hints.indirect_call_targets.items())
    )
    branches = ";".join(
        f"{address:#x}->{targets}"
        for address, targets in sorted(hints.indirect_branch_targets.items())
    )
    return _hexdigest(calls, branches)


def function_annotation_digest(
    annotations: "AnnotationSet",
    closure: Set[str],
    hints: str,
) -> str:
    """Digest of every annotation fact a function's summary can depend on.

    ``closure`` is the function itself plus its transitive callees: a callee's
    loop bound or argument range changes the caller's callee-cost table, so
    the whole closure's facts are part of the key.  Facts are serialised via
    their dataclass ``repr`` (strings, ints and tuples only — deterministic
    across processes).
    """
    parts: List[str] = [hints]
    for name in sorted(closure):
        parts.append(f"fn {name}")
        parts.append(repr(annotations.loop_bounds_for(name)))
        parts.append(repr(annotations.flow_constraints_for(name)))
        parts.append(repr(annotations.infeasible_for(name)))
        parts.append(repr(annotations.argument_ranges_for(name)))
        parts.append(repr(annotations.memory_regions_for(name)))
        parts.append(repr(annotations.recursion_bound_for(name)))
    return _hexdigest(*parts)


def bucket_digest(
    program_digest: str, processor: "ProcessorConfig", options
) -> str:
    """Bucket key: one on-disk file per (program, platform, options) triple."""
    return _hexdigest(
        ENGINE_VERSION, program_digest, processor_digest(processor), options_digest(options)
    )


def summary_item_key(
    function: str, context: "CallContext", annotation_digest: str
) -> str:
    return _hexdigest(
        function, repr(context.argument_summary), annotation_digest
    )


def callee_closure(callgraph: "CallGraph", function: str) -> Set[str]:
    """The function plus its transitive callees (the summary's input scope)."""
    closure: Set[str] = set()
    frontier = [function]
    while frontier:
        name = frontier.pop()
        if name in closure:
            continue
        closure.add(name)
        frontier.extend(callgraph.callees(name))
    return closure


# --------------------------------------------------------------------------- #
# Summaries and the two-tier cache
# --------------------------------------------------------------------------- #
@dataclass
class FunctionSummary:
    """The complete, replayable outcome of one function-analysis subtree."""

    report: "FunctionReport"
    #: Default-context reports of callees first analysed inside this subtree
    #: (name -> report); replayed into ``run.reports`` on a hit.
    subtree_reports: Dict[str, "FunctionReport"] = field(default_factory=dict)
    #: Callee (context, report) registrations made inside this subtree, in
    #: registration order — replayed so the ``max_contexts_per_function``
    #: bookkeeping sees the same population a cold run would build.
    contexts: Tuple = ()
    #: Tier-two challenge messages emitted inside this subtree (a tier-one
    #: challenge raises, so no summary is recorded for it).
    tier_two: Tuple[str, ...] = ()


class SummaryCache:
    """Two-tier lookup: in-process dictionary over an optional on-disk store."""

    def __init__(self, store: Optional["SummaryStore"] = None):
        self.store = store
        self._memory: Dict[Tuple[str, str], FunctionSummary] = {}
        self.tier1_hits = 0
        self.tier1_misses = 0
        self.tier2_hits = 0
        self.tier2_misses = 0
        self.puts = 0

    # ------------------------------------------------------------------ #
    def get(self, bucket: str, item: str) -> Optional[FunctionSummary]:
        summary = self._memory.get((bucket, item))
        if summary is not None:
            self.tier1_hits += 1
            _M_CACHE.inc(tier="1", result="hit")
            return summary
        self.tier1_misses += 1
        _M_CACHE.inc(tier="1", result="miss")
        if self.store is not None:
            summary = self.store.get(bucket, item)
            if summary is not None:
                self.tier2_hits += 1
                _M_CACHE.inc(tier="2", result="hit")
                self._memory[(bucket, item)] = summary
                return summary
            self.tier2_misses += 1
            _M_CACHE.inc(tier="2", result="miss")
        return None

    def put(self, bucket: str, item: str, summary: FunctionSummary) -> None:
        self.puts += 1
        _M_PUTS.inc()
        self._memory[(bucket, item)] = summary
        if self.store is not None:
            self.store.put(bucket, item, summary)

    def flush(self) -> None:
        if self.store is not None:
            self.store.flush()

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        stats = {
            "tier1_hits": self.tier1_hits,
            "tier1_misses": self.tier1_misses,
            "tier2_hits": self.tier2_hits,
            "tier2_misses": self.tier2_misses,
            "puts": self.puts,
        }
        if self.store is not None and getattr(self.store, "corruptions", 0):
            # Quarantined bucket files, so a result's ``cache_stats`` shows
            # the corruption its own lookups ran into.
            stats["store_corruptions"] = self.store.corruptions
        return stats

    def __len__(self) -> int:
        return len(self._memory)


def merge_stats(total: Dict[str, int], delta: Dict[str, int]) -> Dict[str, int]:
    """Accumulate per-worker/per-analyzer stat dictionaries."""
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value
    return total
