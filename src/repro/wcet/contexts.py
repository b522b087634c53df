"""Call-site contexts for context-sensitive callee analysis.

The paper's Section 4.3 repeatedly makes the point that the *same* code has
very different worst-case behaviour in different execution contexts (operating
modes, argument values, buffer sizes).  The analyzer therefore supports
analysing a callee separately per call site, seeding its value analysis with
the argument register values known at that call site.  A :class:`CallContext`
identifies such an analysis instance; the :class:`ContextCache` memoises
results so identical contexts are analysed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Optional, Tuple, TypeVar

from repro.analysis.domains.interval import Interval

Result = TypeVar("Result")


@dataclass(frozen=True)
class CallContext:
    """Identifies one analysis context of a function.

    ``argument_summary`` is a canonicalised tuple of the argument registers'
    intervals at the call site: two call sites passing the same abstract
    argument values share one context (and one analysis).
    The context-insensitive analysis of a function uses :meth:`default`.
    """

    function: str
    argument_summary: Tuple[Tuple[str, Optional[int], Optional[int]], ...] = ()

    @staticmethod
    def default(function: str) -> "CallContext":
        return CallContext(function=function)

    @staticmethod
    def from_arguments(
        function: str, arguments: Dict[str, Interval]
    ) -> "CallContext":
        summary = tuple(
            (register, interval.lo, interval.hi)
            for register, interval in sorted(arguments.items())
            if not interval.is_top and not interval.is_bottom
        )
        return CallContext(function=function, argument_summary=summary)

    @property
    def is_default(self) -> bool:
        return not self.argument_summary

    def argument_intervals(self) -> Dict[str, Interval]:
        return {
            register: Interval(lo, hi)
            for register, lo, hi in self.argument_summary
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_default:
            return f"{self.function}[*]"
        arguments = ", ".join(
            f"{register}={Interval(lo, hi)}" for register, lo, hi in self.argument_summary
        )
        return f"{self.function}[{arguments}]"


class ContextCache(Generic[Result]):
    """Memoises per-context analysis results (one analysis run's tier 0)."""

    def __init__(self) -> None:
        self._cache: Dict[CallContext, Result] = {}
        #: Per-function view of ``_cache`` so the per-call-site context-cap
        #: check in ``_callee_report`` is O(1) instead of a scan of every
        #: cached context of every function.
        self._by_function: Dict[str, Dict[CallContext, Result]] = {}

    def get(self, context: CallContext) -> Optional[Result]:
        return self._cache.get(context)

    def put(self, context: CallContext, result: Result) -> Result:
        self._cache[context] = result
        self._by_function.setdefault(context.function, {})[context] = result
        return result

    def contexts_for(self, function: str) -> Dict[CallContext, Result]:
        """All cached contexts of ``function`` (live view; do not mutate)."""
        index = self._by_function.get(function)
        return index if index is not None else {}

    def __len__(self) -> int:
        return len(self._cache)
