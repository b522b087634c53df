"""Structured reports produced by the WCET analyzer.

A :class:`WCETReport` records, for one analysed task (entry function):

* the WCET and BCET bounds in processor cycles,
* one :class:`FunctionReport` per analysed function (loop bounds, cache
  classification statistics, per-block times, worst-case path),
* a :class:`ChallengeReport` separating the *tier-one* problems (things that
  would have prevented a bound altogether and had to be solved by annotations)
  from the *tier-two* precision losses (imprecise memory accesses, unclassified
  cache accesses, annotation-supplied loop bounds), mirroring Section 3.2 of
  the paper,
* per-phase wall-clock timings matching the phase structure of Figure 1.

Every report type here serialises to a versioned, stable JSON form and back
exactly — see :mod:`repro.api.serialize`; the ``to_json``/``from_json``
methods below are thin conveniences over that module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.hardware.pipeline import BlockTimeBounds


@dataclass
class LoopReport:
    """One loop of one function, with how (or whether) it was bounded."""

    function: str
    header: int
    bound: Optional[int]
    source: str                 # "analysis", "annotation", "unbounded"
    irreducible: bool = False
    failure_reason: str = ""
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        state = "unbounded" if self.bound is None else f"<= {self.bound} iterations"
        extra = " (irreducible)" if self.irreducible else ""
        return f"{self.function}@{self.header:#x}: {state} [{self.source}]{extra}"


@dataclass
class PhaseTiming:
    """Wall-clock duration of one analysis phase (Figure 1 box)."""

    phase: str
    seconds: float
    detail: str = ""
    #: Work counter attributing the wall time: fixpoint solver iterations
    #: for "loop/value analysis", simplex pivots for "path analysis",
    #: 0 where no counter applies.
    iterations: int = 0


@dataclass
class ChallengeReport:
    """Tier-one / tier-two analysis challenges encountered (Section 3.2)."""

    tier_one: List[str] = field(default_factory=list)
    tier_two: List[str] = field(default_factory=list)

    def add_tier_one(self, message: str) -> None:
        self.tier_one.append(message)

    def add_tier_two(self, message: str) -> None:
        self.tier_two.append(message)

    @property
    def is_clean(self) -> bool:
        return not self.tier_one and not self.tier_two

    def to_json(self) -> dict:
        from repro.api import serialize

        return serialize.to_json(self)

    @classmethod
    def from_json(cls, data: dict) -> "ChallengeReport":
        from repro.api import serialize

        return serialize.from_json(data, cls)


@dataclass
class FunctionReport:
    """Analysis results of one function (in one context)."""

    name: str
    wcet_cycles: int
    bcet_cycles: int
    loop_reports: List[LoopReport] = field(default_factory=list)
    block_times: Dict[int, BlockTimeBounds] = field(default_factory=dict)
    block_counts: Dict[int, int] = field(default_factory=dict)
    icache_summary: Dict[str, int] = field(default_factory=dict)
    dcache_summary: Dict[str, int] = field(default_factory=dict)
    unreachable_blocks: List[int] = field(default_factory=list)
    imprecise_accesses: int = 0
    unknown_accesses: int = 0
    callee_wcet: Dict[int, int] = field(default_factory=dict)
    ilp_nodes: int = 1
    context: str = ""

    def worst_case_blocks(self) -> List[int]:
        return sorted(b for b, count in self.block_counts.items() if count > 0)

    def total_loop_bound_iterations(self) -> int:
        return sum(r.bound or 0 for r in self.loop_reports)

    def to_json(self) -> dict:
        from repro.api import serialize

        return serialize.to_json(self)

    @classmethod
    def from_json(cls, data: dict) -> "FunctionReport":
        from repro.api import serialize

        return serialize.from_json(data, cls)


@dataclass
class WCETReport:
    """Complete report for one analysed task."""

    entry: str
    processor: str
    wcet_cycles: int
    bcet_cycles: int
    functions: Dict[str, FunctionReport] = field(default_factory=dict)
    phases: List[PhaseTiming] = field(default_factory=list)
    challenges: ChallengeReport = field(default_factory=ChallengeReport)
    mode: Optional[str] = None
    error_scenario: Optional[str] = None
    annotation_summary: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def entry_report(self) -> FunctionReport:
        return self.functions[self.entry]

    def function_names(self) -> List[str]:
        return sorted(self.functions)

    def phase_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for timing in self.phases:
            totals[timing.phase] = totals.get(timing.phase, 0.0) + timing.seconds
        return totals

    def loop_reports(self) -> List[LoopReport]:
        result: List[LoopReport] = []
        for function_report in self.functions.values():
            result.extend(function_report.loop_reports)
        return result

    def slim(self) -> "WCETReport":
        """A copy without the per-block timing tables.

        ``block_times`` dominates a report's pickled size (one
        :class:`~repro.hardware.pipeline.BlockTimeBounds` per basic block);
        everything a caller aggregating sweep results needs — bounds, loop
        reports, cache summaries, worst-case path block counts, challenges —
        survives.  This is what parallel sweeps ship back across the worker
        pool when ``keep_reports=True``.
        """
        slim_functions = {
            name: replace(function_report, block_times={})
            for name, function_report in self.functions.items()
        }
        return replace(self, functions=slim_functions)

    def to_json(self) -> dict:
        """Versioned JSON form (round-trips exactly via :meth:`from_json`)."""
        from repro.api import serialize

        return serialize.to_json(self)

    @classmethod
    def from_json(cls, data: dict) -> "WCETReport":
        from repro.api import serialize

        return serialize.from_json(data, cls)

    # ------------------------------------------------------------------ #
    def format_text(self) -> str:
        """Human-readable multi-line report."""
        lines: List[str] = []
        title = f"WCET analysis of task {self.entry!r} on {self.processor}"
        if self.mode:
            title += f" [mode: {self.mode}]"
        if self.error_scenario:
            title += f" [error scenario: {self.error_scenario}]"
        lines.append(title)
        lines.append("=" * len(title))
        lines.append(f"WCET bound : {self.wcet_cycles} cycles")
        lines.append(f"BCET bound : {self.bcet_cycles} cycles")
        lines.append("")

        lines.append("Analysis phases (Figure 1):")
        for timing in self.phases:
            detail = timing.detail
            if timing.iterations:
                unit = "pivots" if timing.phase == "path analysis" else "iterations"
                counter = f"{timing.iterations} {unit}"
                detail = f"{detail} ({counter})" if detail else counter
            lines.append(f"  {timing.phase:<22s} {timing.seconds * 1000.0:8.2f} ms  {detail}")
        lines.append("")

        lines.append("Per-function bounds:")
        for name in sorted(self.functions):
            report = self.functions[name]
            lines.append(
                f"  {name:<24s} WCET {report.wcet_cycles:>8d}  BCET {report.bcet_cycles:>8d}"
                f"  (i$ {report.icache_summary}, d$ {report.dcache_summary})"
            )
        lines.append("")

        loop_reports = self.loop_reports()
        if loop_reports:
            lines.append("Loop bounds:")
            for loop in loop_reports:
                lines.append(f"  {loop}")
            lines.append("")

        if self.challenges.tier_one:
            lines.append("Tier-one challenges (resolved via annotations or fatal):")
            for item in self.challenges.tier_one:
                lines.append(f"  - {item}")
            lines.append("")
        if self.challenges.tier_two:
            lines.append("Tier-two challenges (precision losses):")
            for item in self.challenges.tier_two:
                lines.append(f"  - {item}")
            lines.append("")
        if self.annotation_summary:
            lines.append(f"Annotations used: {self.annotation_summary}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WCETReport({self.entry!r}, wcet={self.wcet_cycles}, "
            f"bcet={self.bcet_cycles}, functions={len(self.functions)})"
        )
