"""A small, dependency-free two-phase simplex solver over sparse rows.

This is the only LP solver of the IPET path analysis: after the presolve in
:mod:`repro.wcet.ipet`, a paper function's system has a handful of columns,
and :mod:`repro.wcet.ilp` runs branch and bound on top of it.  The library
needs no scipy; the test suite uses scipy's HiGHS as an independent oracle.

The solver handles problems of the form::

    maximise    c·x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                x >= 0

using the standard two-phase primal simplex method with Bland's pivoting rule
(which guarantees termination).

Representation
--------------

IPET tableaus are network-flow-like: each structural constraint mentions only
the handful of edges around one basic block, so the dense tableau is almost
entirely zeros (and the slack/artificial columns make it wider still).  Rows
are therefore stored as ``{column: coefficient}`` dicts with the right-hand
side kept separately: a pivot touches only the nonzero entries of the pivot
row and the rows that actually contain the pivot column.  The arithmetic per
touched entry is exactly the dense update ``row[c] -= factor * pivot[c]``, so
results are bit-identical to the dense implementation — including fill-in and
the tiny cancellation residues the epsilon comparisons were tuned for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PathAnalysisError

_EPSILON = 1e-9

#: A sparse tableau row: column index -> nonzero coefficient.
SparseRow = Dict[int, float]


@dataclass
class SimplexResult:
    """Solution of a linear program."""

    status: str               # "optimal", "infeasible", "unbounded"
    objective: float = 0.0
    values: Optional[List[float]] = None
    #: Simplex pivots performed to produce this result (all phases run by
    #: the producing call; see ``optimise_prepared`` for the split).
    pivots: int = 0


def _build_column_index(rows: List[SparseRow]) -> Dict[int, set]:
    """``column -> {row indices with a stored entry}`` for the whole tableau.

    Kept additively up to date across pivots (entries that cancel to ~0 stay
    registered, exactly as the dense tableau kept explicit zeros): a lookup
    may yield a structurally-zero row, but never misses a nonzero one.
    """
    index: Dict[int, set] = {}
    get = index.get
    for r, row in enumerate(rows):
        for column in row:
            members = get(column)
            if members is None:
                index[column] = {r}
            else:
                members.add(r)
    return index


def _pivot(
    rows: List[SparseRow],
    rhs: List[float],
    basis: List[int],
    col_rows: Dict[int, set],
    row: int,
    col: int,
) -> None:
    """Pivot on ``(row, col)``: normalise the pivot row, eliminate elsewhere."""
    pivot_row = rows[row]
    pivot_value = pivot_row[col]
    if pivot_value != 1.0:
        for column in pivot_row:
            pivot_row[column] /= pivot_value
        rhs[row] /= pivot_value
    pivot_items = list(pivot_row.items())
    pivot_rhs = rhs[row]
    for r in list(col_rows.get(col, ())):
        if r == row:
            continue
        current = rows[r]
        factor = current.get(col)
        if factor is not None and (factor > _EPSILON or factor < -_EPSILON):
            get = current.get
            for column, value in pivot_items:
                existing = get(column)
                if existing is None:
                    current[column] = 0.0 - factor * value
                    col_rows.setdefault(column, set()).add(r)
                else:
                    current[column] = existing - factor * value
            rhs[r] -= factor * pivot_rhs
    basis[row] = col


def _run_simplex(
    rows: List[SparseRow],
    rhs: List[float],
    objective: SparseRow,
    objective_rhs: List[float],
    basis: List[int],
    col_rows: Dict[int, set],
    num_columns: int,
) -> Tuple[str, int]:
    """Run primal simplex; ``objective``/``objective_rhs[0]`` is the cost row.

    Returns ``(status, pivots)`` where status is "optimal" or "unbounded".
    Uses Bland's rule to avoid cycling.
    """
    max_pivots = 20_000
    neg_epsilon = -_EPSILON
    for pivots in range(max_pivots):
        # Bland's rule: choose the lowest-index column with a negative reduced cost.
        pivot_col = min(
            (
                col
                for col, value in objective.items()
                if value < neg_epsilon and col < num_columns
            ),
            default=-1,
        )
        if pivot_col < 0:
            return "optimal", pivots
        # Ratio test over the rows that actually carry the pivot column
        # (ascending row index, so Bland tie-breaking matches a full scan).
        pivot_row = -1
        best_ratio = None
        for row in sorted(col_rows.get(pivot_col, ())):
            coefficient = rows[row].get(pivot_col, 0.0)
            if coefficient > _EPSILON:
                ratio = rhs[row] / coefficient
                if best_ratio is None or ratio < best_ratio - _EPSILON or (
                    abs(ratio - (best_ratio or 0.0)) <= _EPSILON
                    and basis[row] < basis[pivot_row]
                ):
                    best_ratio = ratio
                    pivot_row = row
        if pivot_row < 0:
            return "unbounded", pivots
        _pivot(rows, rhs, basis, col_rows, pivot_row, pivot_col)
        # Eliminate the pivot column from the objective row as well.
        factor = objective.get(pivot_col, 0.0)
        if abs(factor) > _EPSILON:
            for column, value in rows[pivot_row].items():
                objective[column] = objective.get(column, 0.0) - factor * value
            objective_rhs[0] -= factor * rhs[pivot_row]
        # else: like the dense implementation, a sub-epsilon residue in the
        # objective row is left untouched (it can never be chosen by Bland's
        # rule, which requires < -epsilon).
    raise PathAnalysisError("simplex did not terminate (pivot limit reached)")


@dataclass
class PreparedTableau:
    """A tableau after phase 1: a feasible basis, independent of objective.

    Phase 1 (artificial-variable elimination) never looks at the real
    objective, so one prepared tableau can serve several phase-2 runs — the
    IPET path analysis exploits this to solve the WCET (maximise) and BCET
    (minimise) objectives of one function against a single feasibility basis.
    """

    num_vars: int
    num_slack: int
    rows: List[SparseRow]
    rhs: List[float]
    basis: List[int]
    col_rows: Dict[int, set]
    artificial_columns: List[int]
    feasible: bool
    #: Pivots spent by phase 1 (including driving artificials out).
    pivots: int = 0


def solve_sparse_lp(
    objective: Sequence[float],
    a_ub: Sequence[SparseRow],
    b_ub: Sequence[float],
    a_eq: Sequence[SparseRow],
    b_eq: Sequence[float],
    maximise: bool = True,
) -> SimplexResult:
    """Solve the LP; see module docstring for the problem form.

    Constraint rows are ``{variable index: coefficient}`` dicts (explicit
    zeros are ignored); the objective remains a dense sequence.
    """
    prepared = prepare_sparse_tableau(len(objective), a_ub, b_ub, a_eq, b_eq)
    result = optimise_prepared(prepared, objective, maximise, clone=False)
    result.pivots += prepared.pivots
    return result


def prepare_sparse_tableau(
    num_vars: int,
    a_ub: Sequence[SparseRow],
    b_ub: Sequence[float],
    a_eq: Sequence[SparseRow],
    b_eq: Sequence[float],
) -> PreparedTableau:
    """Build the tableau and run phase 1 (minimise artificial variables)."""
    rows_in: List[Tuple[SparseRow, float, str]] = []
    for coefficients, bound in zip(a_ub, b_ub):
        rows_in.append((_nonzero(coefficients), float(bound), "<="))
    for coefficients, bound in zip(a_eq, b_eq):
        rows_in.append((_nonzero(coefficients), float(bound), "=="))

    # Normalise to non-negative right-hand sides.
    normalised: List[Tuple[SparseRow, float, str]] = []
    for coefficients, bound, kind in rows_in:
        if bound < 0:
            coefficients = {col: -value for col, value in coefficients.items()}
            bound = -bound
            kind = {"<=": ">=", ">=": "<=", "==": "=="}[kind]
        normalised.append((coefficients, bound, kind))

    num_slack = sum(1 for _, _, kind in normalised if kind in ("<=", ">="))
    num_artificial = sum(1 for _, _, kind in normalised if kind in (">=", "=="))
    total_columns = num_vars + num_slack + num_artificial

    rows: List[SparseRow] = []
    rhs: List[float] = []
    basis: List[int] = []
    slack_index = num_vars
    artificial_index = num_vars + num_slack
    artificial_columns: List[int] = []

    for coefficients, bound, kind in normalised:
        row = dict(coefficients)
        if kind == "<=":
            row[slack_index] = 1.0
            basis.append(slack_index)
            slack_index += 1
        elif kind == ">=":
            row[slack_index] = -1.0
            slack_index += 1
            row[artificial_index] = 1.0
            basis.append(artificial_index)
            artificial_columns.append(artificial_index)
            artificial_index += 1
        else:  # ==
            row[artificial_index] = 1.0
            basis.append(artificial_index)
            artificial_columns.append(artificial_index)
            artificial_index += 1
        rows.append(row)
        rhs.append(bound)

    col_rows = _build_column_index(rows)
    pivots = 0

    # ------------------------------------------------------------------ #
    # Phase 1: minimise the sum of artificial variables.
    # ------------------------------------------------------------------ #
    if artificial_columns:
        artificial_set = set(artificial_columns)
        phase1: SparseRow = {column: 1.0 for column in artificial_columns}
        phase1_rhs = [0.0]
        # Express the phase-1 objective in terms of non-basic variables.
        for row, bound, basic_column in zip(rows, rhs, basis):
            if basic_column in artificial_set:
                for column, value in row.items():
                    phase1[column] = phase1.get(column, 0.0) - value
                phase1_rhs[0] -= bound
        status, pivots = _run_simplex(
            rows, rhs, phase1, phase1_rhs, basis, col_rows, total_columns
        )
        if status == "unbounded":
            raise PathAnalysisError("phase-1 simplex reported an unbounded problem")
        phase1_value = -phase1_rhs[0]
        if phase1_value > 1e-6:
            return PreparedTableau(
                num_vars, num_slack, rows, rhs, basis, col_rows,
                artificial_columns, feasible=False, pivots=pivots,
            )
        # Drive any artificial variable still in the basis out of it.
        for row_index, basic_column in enumerate(list(basis)):
            if basic_column in artificial_set:
                current = rows[row_index]
                for column in range(num_vars + num_slack):
                    if abs(current.get(column, 0.0)) > _EPSILON:
                        _pivot(rows, rhs, basis, col_rows, row_index, column)
                        pivots += 1
                        break

    return PreparedTableau(
        num_vars, num_slack, rows, rhs, basis, col_rows,
        artificial_columns, feasible=True, pivots=pivots,
    )


def optimise_prepared(
    prepared: PreparedTableau,
    objective: Sequence[float],
    maximise: bool,
    clone: bool = True,
) -> SimplexResult:
    """Phase 2: optimise ``objective`` over a prepared (phase-1) tableau.

    With ``clone=True`` the prepared tableau is left untouched so further
    objectives can be optimised against the same feasibility basis.  The
    returned ``pivots`` counts this phase-2 run only; the caller owns adding
    ``prepared.pivots`` (phase 1) once, however many objectives it optimises.
    """
    if not prepared.feasible:
        return SimplexResult(status="infeasible")
    num_vars = prepared.num_vars
    num_slack = prepared.num_slack
    if clone:
        rows = [dict(row) for row in prepared.rows]
        rhs = list(prepared.rhs)
        basis = list(prepared.basis)
        col_rows = {column: set(members) for column, members in prepared.col_rows.items()}
    else:
        rows = prepared.rows
        rhs = prepared.rhs
        basis = prepared.basis
        col_rows = prepared.col_rows
    sign = 1.0 if maximise else -1.0

    # Optimise the real objective (artificials pinned to zero).
    objective_row: SparseRow = {}
    for index in range(num_vars):
        value = -sign * float(objective[index])
        if value:
            objective_row[index] = value
    for column in prepared.artificial_columns:
        objective_row[column] = 1e9  # forbid re-entering the basis
    objective_rhs = [0.0]
    # Express in terms of the current basis.
    for row, bound, basic_column in zip(rows, rhs, basis):
        coefficient = objective_row.get(basic_column, 0.0)
        if abs(coefficient) > _EPSILON:
            for column, value in row.items():
                objective_row[column] = (
                    objective_row.get(column, 0.0) - coefficient * value
                )
            objective_rhs[0] -= coefficient * bound

    status, pivots = _run_simplex(
        rows, rhs, objective_row, objective_rhs, basis, col_rows, num_vars + num_slack
    )
    if status == "unbounded":
        return SimplexResult(status="unbounded", pivots=pivots)

    values = [0.0] * num_vars
    for row_index, basic_column in enumerate(basis):
        if basic_column < num_vars:
            values[basic_column] = rhs[row_index]
    objective_value = sum(c * v for c, v in zip(objective, values))
    return SimplexResult(
        status="optimal", objective=objective_value, values=values, pivots=pivots
    )


def _nonzero(row: SparseRow) -> SparseRow:
    """Drop explicit zeros and coerce coefficients to float."""
    return {index: float(value) for index, value in row.items() if float(value) != 0.0}
