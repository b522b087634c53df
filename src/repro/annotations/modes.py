"""Operating modes.

Many embedded control systems have distinct operating modes (the paper's
example: *plane is on ground* vs. *plane is in air*) whose behaviours — and
therefore worst-case paths — are mutually exclusive.  A mode bundles the
annotations that hold only in that mode; the analyzer computes one (much
tighter) bound per mode instead of a single bound that mixes all modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

from repro.annotations.flowfacts import (
    ArgumentRange,
    FlowConstraint,
    InfeasiblePath,
    LoopBoundAnnotation,
)
from repro.annotations.memregions import MemoryRegionAnnotation

ModeFact = Union[
    LoopBoundAnnotation,
    FlowConstraint,
    InfeasiblePath,
    ArgumentRange,
    MemoryRegionAnnotation,
]


@dataclass
class OperatingMode:
    """A named operating mode with its mode-specific facts."""

    name: str
    description: str = ""
    facts: List[ModeFact] = field(default_factory=list)

    def add(self, fact: ModeFact) -> "OperatingMode":
        self.facts.append(fact)
        return self

    def infeasible_paths(self) -> List[InfeasiblePath]:
        return [fact for fact in self.facts if isinstance(fact, InfeasiblePath)]

    def loop_bounds(self) -> List[LoopBoundAnnotation]:
        return [fact for fact in self.facts if isinstance(fact, LoopBoundAnnotation)]

    def flow_constraints(self) -> List[FlowConstraint]:
        return [fact for fact in self.facts if isinstance(fact, FlowConstraint)]

    def argument_ranges(self) -> List[ArgumentRange]:
        return [fact for fact in self.facts if isinstance(fact, ArgumentRange)]

    def memory_regions(self) -> List[MemoryRegionAnnotation]:
        return [fact for fact in self.facts if isinstance(fact, MemoryRegionAnnotation)]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"mode {self.name!r} ({len(self.facts)} facts)"
