"""Flow facts: loop bounds, flow constraints, infeasible paths, value ranges.

Locations are given symbolically — by a code *label* inside a function or by an
instruction address — and are resolved against the reconstructed CFG by the
WCET analyzer.  All counts are *per invocation* of the surrounding function,
matching how the IPET system of :mod:`repro.wcet.ipet` normalises frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import AnnotationError

#: A code location: either a label name or an absolute instruction address.
Location = Union[str, int]


@dataclass(frozen=True)
class LoopBoundAnnotation:
    """Designer-supplied iteration bound for one loop.

    ``max_iterations`` bounds the number of loop-body executions per entry into
    the loop (equivalently: how often the loop's back edges may be taken).
    ``location`` identifies the loop by a label on (or an address inside) its
    header block.
    """

    function: str
    location: Location
    max_iterations: int
    mode: Optional[str] = None
    comment: str = ""

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise AnnotationError(
                f"loop bound for {self.function}/{self.location} must be >= 0"
            )


@dataclass(frozen=True)
class FlowConstraint:
    """A linear constraint over block execution counts.

    ``terms`` is a list of ``(location, coefficient)`` pairs; the constraint is

        sum(coefficient * count(location))  <relation>  bound * count(function entry)

    with ``relation`` one of ``<=``, ``==``, ``>=``.  Scaling by the entry count
    makes the constraint meaningful both for a single invocation and when the
    function is inlined into a larger IPET system.  A mutual-exclusion fact such
    as "the read path and the write path of the message handler can never
    execute in the same cycle" (Section 4.3) is expressed as
    ``read + write <= 1``.
    """

    function: str
    terms: Tuple[Tuple[Location, int], ...]
    relation: str
    bound: int
    mode: Optional[str] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.relation not in ("<=", "==", ">="):
            raise AnnotationError(f"bad flow-constraint relation {self.relation!r}")
        if not self.terms:
            raise AnnotationError("flow constraint needs at least one term")
        object.__setattr__(self, "terms", tuple((loc, int(c)) for loc, c in self.terms))


@dataclass(frozen=True)
class InfeasiblePath:
    """Marks a block (by label/address) as never executed.

    Used for mode exclusions ("in ground mode the in-air branch is infeasible")
    and for excluding error handling from the worst-case when the designer has
    established that the error case is not relevant (Section 4.3).
    """

    function: str
    location: Location
    mode: Optional[str] = None
    reason: str = ""


@dataclass(frozen=True)
class RecursionBound:
    """Maximum recursion depth for a (directly or indirectly) recursive function.

    MISRA rule 16.2 forbids recursion precisely because this number cannot be
    derived automatically; the annotation lets the analyzer handle legacy code
    that still uses it.
    """

    function: str
    max_depth: int
    mode: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise AnnotationError(
                f"recursion bound for {self.function} must be at least 1"
            )


@dataclass(frozen=True)
class ArgumentRange:
    """Value range of an argument register at function entry.

    This is the "design-level information about data values" used e.g. to bound
    the amount of data a message handler transfers (Section 4.3): knowing that
    ``r3`` (the length argument) is in ``[0, 16]`` lets the loop-bound analysis
    bound the copy loop automatically.
    """

    function: str
    register: str
    low: int
    high: int
    mode: Optional[str] = None

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise AnnotationError(
                f"argument range for {self.function}:{self.register} is empty"
            )
