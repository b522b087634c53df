"""Error-handling scenarios.

Section 4.3 ("Error Handling") distinguishes three treatments of error-handling
code during WCET analysis:

1. the error case is *not relevant* for the worst case — all error paths can be
   excluded (large bound reduction, but needs a documented justification);
2. errors are relevant, but the assumption that *all* errors fire at once is
   unrealistic — a scenario bounds how many handlers can run per activation;
3. nothing is documented — the analysis has to assume every handler runs,
   which is safe but very pessimistic.

:class:`ErrorScenario` expresses cases 1 and 2 and lowers them onto ordinary
flow facts (infeasible paths / flow constraints) that the IPET system consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import AnnotationError
from repro.annotations.flowfacts import FlowConstraint, InfeasiblePath, Location


@dataclass(frozen=True)
class ErrorHandlerRef:
    """Reference to one error-handling block: function + label/address."""

    function: str
    location: Location
    description: str = ""


@dataclass
class ErrorScenario:
    """A documented error-handling scenario.

    ``max_simultaneous`` is the maximum number of the listed handlers that can
    execute in one activation of the task; ``0`` means the error case has been
    argued out of the worst case entirely (all handlers infeasible).
    """

    name: str
    handlers: List[ErrorHandlerRef] = field(default_factory=list)
    max_simultaneous: int = 0
    justification: str = ""

    def __post_init__(self) -> None:
        if self.max_simultaneous < 0:
            raise AnnotationError("max_simultaneous must be >= 0")

    def add_handler(
        self, function: str, location: Location, description: str = ""
    ) -> "ErrorScenario":
        self.handlers.append(ErrorHandlerRef(function, location, description))
        return self

    # ------------------------------------------------------------------ #
    def to_flow_facts(self) -> Tuple[List[InfeasiblePath], List[FlowConstraint]]:
        """Lower the scenario to infeasible paths / flow constraints."""
        if not self.handlers:
            return [], []
        if self.max_simultaneous == 0:
            infeasible = [
                InfeasiblePath(
                    function=handler.function,
                    location=handler.location,
                    reason=f"error scenario {self.name!r}: error case excluded "
                    f"({self.justification})",
                )
                for handler in self.handlers
            ]
            return infeasible, []
        constraints: List[FlowConstraint] = []
        by_function: dict = {}
        for handler in self.handlers:
            by_function.setdefault(handler.function, []).append(handler)
        for function, handlers in by_function.items():
            constraints.append(
                FlowConstraint(
                    function=function,
                    terms=tuple((handler.location, 1) for handler in handlers),
                    relation="<=",
                    bound=self.max_simultaneous,
                    name=f"error-scenario:{self.name}",
                )
            )
        return [], constraints
