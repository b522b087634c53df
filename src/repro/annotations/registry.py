"""The :class:`AnnotationSet`: everything the designer told the analyzer.

The set aggregates flow facts, memory-region annotations, control-flow hints
for indirect branches/calls, operating modes and error scenarios, and can be
*resolved for a mode*: :meth:`AnnotationSet.for_mode` returns a new set in
which the selected mode's facts are merged into the base facts, which is how
the analyzer produces one bound per operating mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AnnotationError
from repro.annotations.errors_model import ErrorScenario
from repro.annotations.flowfacts import (
    ArgumentRange,
    FlowConstraint,
    InfeasiblePath,
    Location,
    LoopBoundAnnotation,
    RecursionBound,
)
from repro.annotations.memregions import MemoryRegionAnnotation
from repro.annotations.modes import OperatingMode
from repro.cfg.reconstruct import ControlFlowHints


@dataclass
class AnnotationSet:
    """All design-level information available to one analysis run."""

    loop_bounds: List[LoopBoundAnnotation] = field(default_factory=list)
    flow_constraints: List[FlowConstraint] = field(default_factory=list)
    infeasible_paths: List[InfeasiblePath] = field(default_factory=list)
    recursion_bounds: List[RecursionBound] = field(default_factory=list)
    argument_ranges: List[ArgumentRange] = field(default_factory=list)
    memory_regions: List[MemoryRegionAnnotation] = field(default_factory=list)
    modes: Dict[str, OperatingMode] = field(default_factory=dict)
    error_scenarios: List[ErrorScenario] = field(default_factory=list)
    control_flow_hints: ControlFlowHints = field(default_factory=ControlFlowHints)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def add_loop_bound(
        self,
        function: str,
        location: Location,
        max_iterations: int,
        comment: str = "",
    ) -> "AnnotationSet":
        self.loop_bounds.append(
            LoopBoundAnnotation(function, location, max_iterations, comment=comment)
        )
        return self

    def add_flow_constraint(
        self,
        function: str,
        terms: Sequence[Tuple[Location, int]],
        relation: str,
        bound: int,
        name: str = "",
    ) -> "AnnotationSet":
        self.flow_constraints.append(
            FlowConstraint(function, tuple(terms), relation, bound, name=name)
        )
        return self

    def add_infeasible(
        self, function: str, location: Location, reason: str = ""
    ) -> "AnnotationSet":
        self.infeasible_paths.append(InfeasiblePath(function, location, reason=reason))
        return self

    def add_recursion_bound(self, function: str, max_depth: int) -> "AnnotationSet":
        self.recursion_bounds.append(RecursionBound(function, max_depth))
        return self

    def add_argument_range(
        self, function: str, register: str, low: int, high: int
    ) -> "AnnotationSet":
        self.argument_ranges.append(ArgumentRange(function, register, low, high))
        return self

    def add_memory_regions(
        self, function: str, regions: Sequence[str], comment: str = ""
    ) -> "AnnotationSet":
        self.memory_regions.append(
            MemoryRegionAnnotation(function, tuple(regions), comment=comment)
        )
        return self

    def add_mode(self, mode: OperatingMode) -> "AnnotationSet":
        if mode.name in self.modes:
            raise AnnotationError(f"duplicate operating mode {mode.name!r}")
        self.modes[mode.name] = mode
        return self

    def add_error_scenario(self, scenario: ErrorScenario) -> "AnnotationSet":
        self.error_scenarios.append(scenario)
        return self

    def add_call_targets(
        self, address: int, functions: Sequence[str]
    ) -> "AnnotationSet":
        self.control_flow_hints.add_call_targets(address, functions)
        return self

    def add_branch_targets(self, address: int, labels: Sequence[str]) -> "AnnotationSet":
        self.control_flow_hints.add_branch_targets(address, labels)
        return self

    # ------------------------------------------------------------------ #
    # Queries (used by the WCET analyzer)
    # ------------------------------------------------------------------ #
    def loop_bounds_for(self, function: str) -> List[LoopBoundAnnotation]:
        return [a for a in self.loop_bounds if a.function == function]

    def flow_constraints_for(self, function: str) -> List[FlowConstraint]:
        return [a for a in self.flow_constraints if a.function == function]

    def infeasible_for(self, function: str) -> List[InfeasiblePath]:
        return [a for a in self.infeasible_paths if a.function == function]

    def recursion_bound_for(self, function: str) -> Optional[RecursionBound]:
        for annotation in self.recursion_bounds:
            if annotation.function == function:
                return annotation
        return None

    def argument_ranges_for(self, function: str) -> List[ArgumentRange]:
        return [a for a in self.argument_ranges if a.function == function]

    def memory_regions_for(self, function: str) -> Optional[MemoryRegionAnnotation]:
        for annotation in self.memory_regions:
            if annotation.function == function:
                return annotation
        return None

    def mode_names(self) -> List[str]:
        return sorted(self.modes)

    # ------------------------------------------------------------------ #
    # Mode resolution & error-scenario lowering
    # ------------------------------------------------------------------ #
    def for_mode(self, mode_name: Optional[str]) -> "AnnotationSet":
        """Return a copy with the selected mode's facts merged in.

        ``None`` returns a copy of the base annotations (the mode-unaware
        analysis the paper calls pessimistic).
        """
        merged = AnnotationSet(
            loop_bounds=list(self.loop_bounds),
            flow_constraints=list(self.flow_constraints),
            infeasible_paths=list(self.infeasible_paths),
            recursion_bounds=list(self.recursion_bounds),
            argument_ranges=list(self.argument_ranges),
            memory_regions=list(self.memory_regions),
            modes=dict(self.modes),
            error_scenarios=list(self.error_scenarios),
            control_flow_hints=self.control_flow_hints,
        )
        if mode_name is None:
            return merged
        if mode_name not in self.modes:
            raise AnnotationError(f"unknown operating mode {mode_name!r}")
        mode = self.modes[mode_name]
        merged.loop_bounds.extend(mode.loop_bounds())
        merged.flow_constraints.extend(mode.flow_constraints())
        merged.infeasible_paths.extend(mode.infeasible_paths())
        merged.argument_ranges.extend(mode.argument_ranges())
        merged.memory_regions.extend(mode.memory_regions())
        return merged

    def with_error_scenario(self, scenario_name: str) -> "AnnotationSet":
        """Return a copy with one error scenario lowered into flow facts."""
        for scenario in self.error_scenarios:
            if scenario.name == scenario_name:
                merged = self.for_mode(None)
                infeasible, constraints = scenario.to_flow_facts()
                merged.infeasible_paths.extend(infeasible)
                merged.flow_constraints.extend(constraints)
                return merged
        raise AnnotationError(f"unknown error scenario {scenario_name!r}")

    # ------------------------------------------------------------------ #
    def merge(self, other: "AnnotationSet") -> "AnnotationSet":
        """Union of two annotation sets (modes must not collide)."""
        result = self.for_mode(None)
        result.loop_bounds.extend(other.loop_bounds)
        result.flow_constraints.extend(other.flow_constraints)
        result.infeasible_paths.extend(other.infeasible_paths)
        result.recursion_bounds.extend(other.recursion_bounds)
        result.argument_ranges.extend(other.argument_ranges)
        result.memory_regions.extend(other.memory_regions)
        result.error_scenarios.extend(other.error_scenarios)
        for name, mode in other.modes.items():
            result.add_mode(mode)
        for address, targets in other.control_flow_hints.indirect_call_targets.items():
            result.control_flow_hints.add_call_targets(address, targets)
        for address, targets in other.control_flow_hints.indirect_branch_targets.items():
            result.control_flow_hints.add_branch_targets(address, targets)
        return result

    def summary(self) -> Dict[str, int]:
        return {
            "loop_bounds": len(self.loop_bounds),
            "flow_constraints": len(self.flow_constraints),
            "infeasible_paths": len(self.infeasible_paths),
            "recursion_bounds": len(self.recursion_bounds),
            "argument_ranges": len(self.argument_ranges),
            "memory_regions": len(self.memory_regions),
            "modes": len(self.modes),
            "error_scenarios": len(self.error_scenarios),
        }
