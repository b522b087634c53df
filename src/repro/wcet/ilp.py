"""Integer linear programming for the IPET path analysis.

The path analysis hands over an :class:`ILPSystem` (linear constraints over
non-negative integer columns) and one objective per bound.  The system is
solved by the two-phase simplex of :mod:`repro.wcet.simplex`, wrapped in a
classic branch-and-bound loop for integrality.  IPET systems are
network-flow-like and almost always have integral LP relaxations, so the
branch-and-bound loop usually terminates after the root relaxation; it exists
so that extra annotation constraints (which can break total unimodularity)
still yield correct integer results.

The in-tree simplex is the only solver.  :class:`repro.wcet.ipet.IPETBuilder`
presolves each system before it gets here, which leaves a handful of columns
for a paper function; the test suite checks every result against scipy's
HiGHS as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InfeasibleILPError, PathAnalysisError, UnboundedILPError
from repro.wcet import simplex
from repro.wcet.simplex import SparseRow

#: Branch-and-bound gives up after exploring this many nodes.
_MAX_NODES = 2000

#: Per-column ``(lower, upper)`` bounds added by branching.
_Bounds = Dict[int, Tuple[float, Optional[float]]]


@dataclass
class ILPSystem:
    """``a_ub x <= b_ub`` and ``a_eq x == b_eq`` over integer columns ``x >= 0``.

    Rows are sparse ``{column: coefficient}`` dicts.  The objective is not
    part of the system, so one system serves both the WCET and the BCET
    objective.
    """

    num_columns: int
    a_ub: List[SparseRow] = field(default_factory=list)
    b_ub: List[float] = field(default_factory=list)
    a_eq: List[SparseRow] = field(default_factory=list)
    b_eq: List[float] = field(default_factory=list)
    name: str = "ilp"


@dataclass
class ILPSolution:
    """Optimal integral solution of an ILP."""

    objective: float
    #: One value per column.
    values: List[float]
    #: Number of branch-and-bound nodes explored (1 = integral root relaxation).
    nodes: int = 1
    #: Simplex pivots spent producing this solution.
    pivots: int = 0

    def int_value(self, column: int) -> int:
        return int(round(self.values[column]))


def _dot(objective: Sequence[float], values: Sequence[float]) -> float:
    return sum(c * v for c, v in zip(objective, values) if c)


def _checked(system: ILPSystem, result: simplex.SimplexResult) -> List[float]:
    if result.status == "infeasible":
        raise InfeasibleILPError(f"{system.name}: path analysis ILP is infeasible")
    if result.status == "unbounded":
        raise UnboundedILPError(
            f"{system.name}: path analysis ILP is unbounded — some loop has no "
            "iteration bound constraint"
        )
    return list(result.values or [])


def _relaxation(
    system: ILPSystem, objective: Sequence[float], maximise: bool, bounds: _Bounds
) -> ILPSolution:
    """Solve the LP relaxation with branching ``bounds`` encoded as rows."""
    a_ub = list(system.a_ub)
    b_ub = list(system.b_ub)
    for column in sorted(bounds):
        lower, upper = bounds[column]
        if lower > 0:
            a_ub.append({column: -1.0})
            b_ub.append(-lower)
        if upper is not None:
            a_ub.append({column: 1.0})
            b_ub.append(upper)
    result = simplex.solve_sparse_lp(
        objective, a_ub, b_ub, system.a_eq, system.b_eq, maximise=maximise
    )
    values = _checked(system, result)
    return ILPSolution(_dot(objective, values), values, pivots=result.pivots)


def _first_fractional(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    for column, value in enumerate(values):
        if abs(value - round(value)) > 1e-6:
            return column, value
    return None


def _rounded(
    objective: Sequence[float], values: Sequence[float], nodes: int, pivots: int
) -> ILPSolution:
    integral = [float(round(value)) for value in values]
    return ILPSolution(_dot(objective, integral), integral, nodes=nodes, pivots=pivots)


def solve_ilp(
    system: ILPSystem,
    objective: Sequence[float],
    maximise: bool = True,
    root: Optional[ILPSolution] = None,
) -> ILPSolution:
    """Optimise ``objective`` over ``system`` by branch and bound.

    ``root`` is the already-solved root relaxation, if the caller has one.
    Raises :class:`InfeasibleILPError` when no integral point exists and
    :class:`UnboundedILPError` when the root relaxation is unbounded.
    """
    if root is None:
        root = _relaxation(system, objective, maximise, {})
    best: Optional[ILPSolution] = None
    nodes = 0
    total_pivots = root.pivots
    stack: List[Tuple[_Bounds, Optional[ILPSolution]]] = [({}, root)]
    while stack:
        bounds, solved = stack.pop()
        nodes += 1
        if nodes > _MAX_NODES:
            raise PathAnalysisError(
                "branch-and-bound node limit exceeded; the ILP is unexpectedly hard"
            )
        if solved is not None:
            solution = solved
        else:
            try:
                solution = _relaxation(system, objective, maximise, bounds)
            except InfeasibleILPError:
                continue
            total_pivots += solution.pivots
        if best is not None:
            if maximise and solution.objective <= best.objective + 1e-6:
                continue
            if not maximise and solution.objective >= best.objective - 1e-6:
                continue
        fractional = _first_fractional(solution.values)
        if fractional is None:
            candidate = _rounded(objective, solution.values, nodes, 0)
            if (
                best is None
                or (maximise and candidate.objective > best.objective)
                or (not maximise and candidate.objective < best.objective)
            ):
                best = candidate
            continue
        column, value = fractional
        lower, upper = bounds.get(column, (0.0, None))
        floor_branch = dict(bounds)
        floor_branch[column] = (lower, math.floor(value))
        ceil_branch = dict(bounds)
        ceil_branch[column] = (math.ceil(value), upper)
        stack.append((floor_branch, None))
        stack.append((ceil_branch, None))

    if best is None:
        raise InfeasibleILPError(
            f"{system.name}: no integral solution exists for the path analysis ILP"
        )
    best.nodes = nodes
    best.pivots = total_pivots
    return best


def solve_ilp_pair(
    system: ILPSystem,
    maximise_objective: Sequence[float],
    minimise_objective: Sequence[float],
) -> Tuple[ILPSolution, ILPSolution]:
    """Maximise one objective and minimise another over one system.

    The IPET path analysis solves each function's constraint system twice —
    maximise for the WCET bound, minimise for the BCET bound.  Phase 1 of the
    two-phase simplex (finding a feasible basis) never inspects the
    objective, so it runs once and both phase-2 optimisations start from the
    same prepared tableau, giving bit-identical results to two independent
    solves at roughly half the pivot count.  A root relaxation that turns out
    fractional goes on to :func:`solve_ilp`'s branch and bound.
    """
    prepared = simplex.prepare_sparse_tableau(
        system.num_columns, system.a_ub, system.b_ub, system.a_eq, system.b_eq
    )
    if not prepared.feasible:
        raise InfeasibleILPError(f"{system.name}: path analysis ILP is infeasible")
    solutions: List[ILPSolution] = []
    # Phase 1 runs once for the pair; attribute its pivots to the first
    # solution so a sum over both counts every pivot exactly once.
    phase1_pivots = prepared.pivots
    for objective, maximise in (
        (maximise_objective, True), (minimise_objective, False)
    ):
        result = simplex.optimise_prepared(prepared, objective, maximise, clone=True)
        values = _checked(system, result)
        pivots = phase1_pivots + result.pivots
        phase1_pivots = 0
        if _first_fractional(values) is not None:
            root = ILPSolution(_dot(objective, values), values, pivots=pivots)
            solutions.append(solve_ilp(system, objective, maximise, root=root))
        else:
            solutions.append(_rounded(objective, values, 1, pivots))
    return solutions[0], solutions[1]
