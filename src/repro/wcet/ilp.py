"""Integer linear programming front end for the IPET path analysis.

:class:`ILPProblem` provides a small modelling layer (named variables, linear
constraints, maximise/minimise) and solves through either

* the self-contained two-phase simplex of :mod:`repro.wcet.simplex`, or
* scipy's ``linprog`` (HiGHS) when available (default),

wrapped in a classic branch-and-bound loop for integrality.  IPET systems are
network-flow-like and almost always have integral LP relaxations, so the
branch-and-bound loop usually terminates after the root relaxation; it exists
so that extra annotation constraints (which can break total unimodularity)
still yield correct integer results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InfeasibleILPError, PathAnalysisError, UnboundedILPError
from repro.wcet import simplex

try:  # scipy is an optional (but normally installed) backend
    from scipy.optimize import linprog as _scipy_linprog  # type: ignore
except Exception:  # pragma: no cover - exercised only without scipy
    _scipy_linprog = None

#: Problems with at most this many variables are solved by the in-tree sparse
#: simplex under the "auto" backend: IPET systems of this size solve in well
#: under a millisecond there, while scipy's linprog spends multiples of that
#: on input validation and option handling alone.  Larger systems go to HiGHS,
#: whose constant factor amortises.
_AUTO_SIMPLEX_MAX_VARIABLES = 400


class LinearExpression:
    """A linear combination of problem variables plus a constant."""

    def __init__(self, terms: Optional[Dict[str, float]] = None, constant: float = 0.0):
        self.terms: Dict[str, float] = dict(terms or {})
        self.constant = constant

    # ------------------------------------------------------------------ #
    def add_term(self, variable: str, coefficient: float) -> "LinearExpression":
        self.terms[variable] = self.terms.get(variable, 0.0) + coefficient
        if self.terms[variable] == 0.0:
            del self.terms[variable]
        return self

    def scaled(self, factor: float) -> "LinearExpression":
        return LinearExpression(
            {variable: coefficient * factor for variable, coefficient in self.terms.items()},
            self.constant * factor,
        )

    def plus(self, other: "LinearExpression") -> "LinearExpression":
        result = LinearExpression(dict(self.terms), self.constant + other.constant)
        for variable, coefficient in other.terms.items():
            result.add_term(variable, coefficient)
        return result

    def evaluate(self, assignment: Dict[str, float]) -> float:
        return self.constant + sum(
            coefficient * assignment.get(variable, 0.0)
            for variable, coefficient in self.terms.items()
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{coefficient:+g}*{variable}" for variable, coefficient in sorted(self.terms.items())]
        if self.constant:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts) if parts else "0"


@dataclass
class Constraint:
    """``expression (<=|==|>=) bound``."""

    expression: LinearExpression
    relation: str
    bound: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.relation not in ("<=", "==", ">="):
            raise PathAnalysisError(f"unsupported constraint relation {self.relation!r}")


@dataclass
class ILPSolution:
    """Optimal solution of an ILP."""

    objective: float
    values: Dict[str, float]
    status: str = "optimal"
    #: Number of branch-and-bound nodes explored (1 = integral root relaxation).
    nodes: int = 1
    #: Simplex pivots spent producing this solution (0 for the scipy backend).
    pivots: int = 0

    def value(self, variable: str) -> float:
        return self.values.get(variable, 0.0)

    def int_value(self, variable: str) -> int:
        return int(round(self.value(variable)))


class ILPProblem:
    """A named-variable ILP: maximise/minimise a linear objective."""

    def __init__(self, name: str = "ilp", maximise: bool = True):
        self.name = name
        self.maximise = maximise
        self._variables: Dict[str, Tuple[float, Optional[float], bool]] = {}
        self._order: List[str] = []
        self.constraints: List[Constraint] = []
        self.objective = LinearExpression()

    # ------------------------------------------------------------------ #
    # Modelling
    # ------------------------------------------------------------------ #
    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: Optional[float] = None,
        integer: bool = True,
    ) -> str:
        if name in self._variables:
            return name
        if lower < 0:
            raise PathAnalysisError("ILP variables must have non-negative lower bounds")
        self._variables[name] = (lower, upper, integer)
        self._order.append(name)
        return name

    def has_variable(self, name: str) -> bool:
        return name in self._variables

    @property
    def variables(self) -> List[str]:
        return list(self._order)

    def set_objective_coefficient(self, variable: str, coefficient: float) -> None:
        if variable not in self._variables:
            raise PathAnalysisError(f"unknown ILP variable {variable!r}")
        self.objective.add_term(variable, coefficient)

    def add_constraint(
        self,
        expression: LinearExpression,
        relation: str,
        bound: float,
        name: str = "",
    ) -> Constraint:
        for variable in expression.terms:
            if variable not in self._variables:
                raise PathAnalysisError(f"unknown ILP variable {variable!r} in constraint {name!r}")
        constraint = Constraint(expression, relation, bound, name)
        self.constraints.append(constraint)
        return constraint

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self, backend: str = "auto", integer: bool = True) -> ILPSolution:
        """Solve the problem.

        ``backend`` is one of ``"auto"`` (scipy if present, else simplex),
        ``"scipy"`` or ``"simplex"``.  ``integer=False`` returns the LP
        relaxation (useful for tests and diagnostics).
        """
        backend = self._resolve_backend(backend)

        relaxed = self._solve_relaxation(backend, extra_bounds={})
        if not integer:
            return relaxed

        # Branch and bound on fractional variables.  The root relaxation has
        # already been solved above; IPET systems are network-flow-like, so it
        # is almost always integral and the loop ends after inspecting it.
        best: Optional[ILPSolution] = None
        nodes = 0
        total_pivots = relaxed.pivots
        stack: List[Tuple[Dict[str, Tuple[float, Optional[float]]], Optional[ILPSolution]]] = [
            ({}, relaxed)
        ]
        while stack:
            extra, presolved = stack.pop()
            nodes += 1
            if nodes > 2000:
                raise PathAnalysisError(
                    "branch-and-bound node limit exceeded; the ILP is unexpectedly hard"
                )
            if presolved is not None:
                solution = presolved
            else:
                try:
                    solution = self._solve_relaxation(backend, extra_bounds=extra)
                    total_pivots += solution.pivots
                except InfeasibleILPError:
                    continue
            if best is not None:
                if self.maximise and solution.objective <= best.objective + 1e-6:
                    continue
                if not self.maximise and solution.objective >= best.objective - 1e-6:
                    continue
            fractional = self._first_fractional(solution)
            if fractional is None:
                rounded = {
                    variable: float(round(value))
                    for variable, value in solution.values.items()
                }
                candidate = ILPSolution(
                    objective=self.objective.evaluate(rounded),
                    values=rounded,
                    nodes=nodes,
                )
                if (
                    best is None
                    or (self.maximise and candidate.objective > best.objective)
                    or (not self.maximise and candidate.objective < best.objective)
                ):
                    best = candidate
                continue
            variable, value = fractional
            lower, upper, _ = self._variables[variable]
            current = extra.get(variable, (lower, upper))
            floor_branch = dict(extra)
            floor_branch[variable] = (current[0], math.floor(value))
            ceil_branch = dict(extra)
            ceil_branch[variable] = (math.ceil(value), current[1])
            stack.append((floor_branch, None))
            stack.append((ceil_branch, None))

        if best is None:
            raise InfeasibleILPError(
                f"{self.name}: no integral solution exists for the path analysis ILP"
            )
        best.nodes = nodes
        best.pivots = total_pivots
        return best

    # ------------------------------------------------------------------ #
    def _resolve_backend(self, backend: str) -> str:
        if backend == "auto":
            if _scipy_linprog is None or len(self._order) <= _AUTO_SIMPLEX_MAX_VARIABLES:
                return "simplex"
            return "scipy"
        if backend == "scipy" and _scipy_linprog is None:
            raise PathAnalysisError("scipy backend requested but scipy is unavailable")
        return backend

    def _default_bounds(self) -> List[Tuple[float, Optional[float]]]:
        return [
            (self._variables[variable][0], self._variables[variable][1])
            for variable in self._order
        ]

    def _system_signature(self):
        """Hashable identity of the constraint system (excluding objective)."""
        return (
            tuple(self._order),
            tuple(sorted(self._variables.items())),
            tuple(
                (
                    constraint.relation,
                    constraint.bound,
                    constraint.expression.constant,
                    tuple(sorted(constraint.expression.terms.items())),
                )
                for constraint in self.constraints
            ),
        )

    def _first_fractional(self, solution: ILPSolution) -> Optional[Tuple[str, float]]:
        for variable in self._order:
            _, _, integer = self._variables[variable]
            if not integer:
                continue
            value = solution.values.get(variable, 0.0)
            if abs(value - round(value)) > 1e-6:
                return variable, value
        return None

    def _solve_relaxation(
        self, backend: str, extra_bounds: Dict[str, Tuple[float, Optional[float]]]
    ) -> ILPSolution:
        order = self._order
        index = {variable: position for position, variable in enumerate(order)}
        objective = [0.0] * len(order)
        for variable, coefficient in self.objective.terms.items():
            objective[index[variable]] = coefficient

        # Variable bounds.
        bounds: List[Tuple[float, Optional[float]]] = []
        for variable in order:
            lower, upper, _ = self._variables[variable]
            if variable in extra_bounds:
                extra_lower, extra_upper = extra_bounds[variable]
                lower = max(lower, extra_lower)
                if upper is None:
                    upper = extra_upper
                elif extra_upper is not None:
                    upper = min(upper, extra_upper)
            bounds.append((lower, upper))

        if backend == "scipy":
            return self._solve_scipy_dense(objective, index, bounds)
        return self._solve_simplex_sparse(objective, index, bounds)

    def _solve_scipy_dense(self, objective, index, bounds) -> ILPSolution:
        order = self._order
        a_ub: List[List[float]] = []
        b_ub: List[float] = []
        a_eq: List[List[float]] = []
        b_eq: List[float] = []

        def row_of(expression: LinearExpression) -> List[float]:
            row = [0.0] * len(order)
            for variable, coefficient in expression.terms.items():
                row[index[variable]] = coefficient
            return row

        for constraint in self.constraints:
            row = row_of(constraint.expression)
            bound = constraint.bound - constraint.expression.constant
            if constraint.relation == "<=":
                a_ub.append(row)
                b_ub.append(bound)
            elif constraint.relation == ">=":
                a_ub.append([-value for value in row])
                b_ub.append(-bound)
            else:
                a_eq.append(row)
                b_eq.append(bound)
        return self._solve_scipy(objective, a_ub, b_ub, a_eq, b_eq, bounds)

    # ------------------------------------------------------------------ #
    def _solve_scipy(self, objective, a_ub, b_ub, a_eq, b_eq, bounds) -> ILPSolution:
        sign = -1.0 if self.maximise else 1.0
        result = _scipy_linprog(
            c=[sign * value for value in objective],
            A_ub=a_ub or None,
            b_ub=b_ub or None,
            A_eq=a_eq or None,
            b_eq=b_eq or None,
            bounds=bounds,
            method="highs",
        )
        if result.status == 2:
            raise InfeasibleILPError(f"{self.name}: path analysis ILP is infeasible")
        if result.status == 3:
            raise UnboundedILPError(
                f"{self.name}: path analysis ILP is unbounded — some loop has no "
                "iteration bound constraint"
            )
        if not result.success:
            raise PathAnalysisError(f"{self.name}: LP solver failed: {result.message}")
        values = {
            variable: float(value) for variable, value in zip(self._order, result.x)
        }
        return ILPSolution(
            objective=self.objective.evaluate(values) ,
            values=values,
        )

    def _sparse_system(self, index, bounds):
        """Constraint rows + bound rows in the sparse simplex input form."""
        a_ub: List[Dict[int, float]] = []
        b_ub: List[float] = []
        a_eq: List[Dict[int, float]] = []
        b_eq: List[float] = []
        for constraint in self.constraints:
            row = {
                index[variable]: coefficient
                for variable, coefficient in constraint.expression.terms.items()
            }
            bound = constraint.bound - constraint.expression.constant
            if constraint.relation == "<=":
                a_ub.append(row)
                b_ub.append(bound)
            elif constraint.relation == ">=":
                a_ub.append({position: -value for position, value in row.items()})
                b_ub.append(-bound)
            else:
                a_eq.append(row)
                b_eq.append(bound)
        # The bespoke simplex only supports x >= 0; encode other bounds as rows.
        for position, (lower, upper) in enumerate(bounds):
            if lower > 0:
                a_ub.append({position: -1.0})
                b_ub.append(-lower)
            if upper is not None:
                a_ub.append({position: 1.0})
                b_ub.append(upper)
        return a_ub, b_ub, a_eq, b_eq

    def _solve_simplex_sparse(self, objective, index, bounds) -> ILPSolution:
        """Hand constraint rows to the bespoke sparse/dense-row simplex."""
        a_ub, b_ub, a_eq, b_eq = self._sparse_system(index, bounds)
        result = simplex.solve_sparse_lp(
            objective, a_ub, b_ub, a_eq, b_eq, maximise=self.maximise
        )
        if result.status == "infeasible":
            raise InfeasibleILPError(f"{self.name}: path analysis ILP is infeasible")
        if result.status == "unbounded":
            raise UnboundedILPError(
                f"{self.name}: path analysis ILP is unbounded — some loop has no "
                "iteration bound constraint"
            )
        values = {
            variable: float(value)
            for variable, value in zip(self._order, result.values or [])
        }
        return ILPSolution(
            objective=self.objective.evaluate(values),
            values=values,
            pivots=result.pivots,
        )


def solve_ilp(problem: ILPProblem, backend: str = "auto") -> ILPSolution:
    """Convenience wrapper around :meth:`ILPProblem.solve`."""
    return problem.solve(backend=backend)


def solve_ilp_pair(
    first: ILPProblem, second: ILPProblem, backend: str = "auto"
) -> Tuple[ILPSolution, ILPSolution]:
    """Solve two ILPs that share variables, bounds and constraints.

    The IPET path analysis solves each function's constraint system twice —
    maximise for the WCET bound, minimise for the BCET bound.  Phase 1 of the
    two-phase simplex (finding a feasible basis) never inspects the
    objective, so under the bespoke backend it runs once and both phase-2
    optimisations start from the same prepared tableau, giving bit-identical
    results to two independent solves at roughly half the pivot count.

    Falls back to two independent solves for the scipy backend, for problems
    whose systems differ, or when a root relaxation turns out fractional
    (then full branch-and-bound handles that objective).
    """
    resolved = first._resolve_backend(backend)
    if resolved != "simplex" or first._system_signature() != second._system_signature():
        return first.solve(backend=backend), second.solve(backend=backend)

    order = first._order
    index = {variable: position for position, variable in enumerate(order)}
    bounds = first._default_bounds()
    a_ub, b_ub, a_eq, b_eq = first._sparse_system(index, bounds)
    prepared = simplex.prepare_sparse_tableau(len(order), a_ub, b_ub, a_eq, b_eq)

    solutions: List[ILPSolution] = []
    # Phase 1 runs once for the pair; attribute its pivots to the first
    # solution so a sum over both counts every pivot exactly once.
    phase1_pivots = prepared.pivots
    for problem in (first, second):
        if not prepared.feasible:
            raise InfeasibleILPError(f"{problem.name}: path analysis ILP is infeasible")
        objective = [0.0] * len(order)
        for variable, coefficient in problem.objective.terms.items():
            objective[index[variable]] = coefficient
        result = simplex.optimise_prepared(
            prepared, objective, problem.maximise, clone=True
        )
        if result.status == "infeasible":
            raise InfeasibleILPError(f"{problem.name}: path analysis ILP is infeasible")
        if result.status == "unbounded":
            raise UnboundedILPError(
                f"{problem.name}: path analysis ILP is unbounded — some loop has no "
                "iteration bound constraint"
            )
        values = {
            variable: float(value)
            for variable, value in zip(order, result.values or [])
        }
        pivots = phase1_pivots + result.pivots
        phase1_pivots = 0
        relaxed = ILPSolution(
            objective=problem.objective.evaluate(values), values=values
        )
        if problem._first_fractional(relaxed) is not None:
            # Rare: hand this objective to the full branch-and-bound.
            solutions.append(problem.solve(backend="simplex"))
            continue
        rounded = {
            variable: float(round(value)) for variable, value in values.items()
        }
        solutions.append(
            ILPSolution(
                objective=problem.objective.evaluate(rounded),
                values=rounded,
                nodes=1,
                pivots=pivots,
            )
        )
    return solutions[0], solutions[1]
