"""Implicit Path Enumeration Technique (IPET) path analysis.

The final phase of Figure 1: given per-block execution-time weights, loop
bounds and flow facts, find the most expensive (for WCET) or cheapest (for
BCET) assignment of execution counts to basic blocks that is consistent with
the control-flow structure.  The model is the classic one (Li & Malik, DAC
1995):

* one non-negative integer count per basic block and per CFG edge, including
  the virtual entry and exit edges;
* flow conservation: the count of a block equals the sum of its incoming edge
  counts and the sum of its outgoing edge counts;
* the virtual entry edge executes exactly once per task activation (and so
  does the exit, when the function has one);
* every loop contributes ``sum(back edges) <= bound * sum(entry edges)``;
* annotations contribute infeasibility (``x = 0``) and linear flow constraints;
* the objective is ``sum(weight_b * x_b)``.

Most of those rows only say that two counts are equal: a block with a single
incoming (or outgoing) edge runs exactly as often as that edge.  The builder
therefore presolves the model straight from the CFG (Andersen & Andersen,
"Presolving in linear programming", Math. Programming 1995) before the
simplex sees it:

1. counts are merged into classes with a union-find: a block with exactly one
   in-edge or one out-edge shares that edge's count, a single entry (exit)
   edge is fixed at 1 and infeasible blocks and edges at 0;
2. every remaining row is rewritten over the classes, with fixed counts folded
   into its right-hand side.  A row left with one term fixes that class, a
   row ``x_a - x_b = 0`` merges two classes, and a row ``sum(c_i x_i) = 0``
   (or ``<= 0``) with positive ``c_i`` fixes every term at 0; this repeats
   until nothing changes.  A contradiction is an infeasible ILP;
3. the rows that are left become an :class:`~repro.wcet.ilp.ILPSystem` with
   one integer column per free class, in the order of each class's first
   block or edge.  After the solve, every block and edge takes its class's
   count.

If a loop has no bound the ILP is unbounded — which is exactly the situation
the paper describes as "no WCET bound can be computed at all"; the error
message lists the offending loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import InfeasibleILPError, PathAnalysisError, UnboundedILPError
from repro.cfg.graph import ENTRY, EXIT, ControlFlowGraph
from repro.cfg.loops import LoopForest
from repro.wcet.ilp import ILPSolution, ILPSystem, solve_ilp_pair

_RELATIONS = ("<=", "==", ">=")


@dataclass(frozen=True)
class ResolvedFlowConstraint:
    """A flow constraint whose locations have been resolved to block ids."""

    terms: Tuple[Tuple[int, int], ...]
    relation: str
    bound: int
    name: str = ""


@dataclass
class PathAnalysisResult:
    """Outcome of one IPET solve."""

    function_name: str
    objective: str               # "wcet" or "bcet"
    bound_cycles: int
    block_counts: Dict[int, int] = field(default_factory=dict)
    edge_counts: Dict[Tuple[int, int], int] = field(default_factory=dict)
    ilp_nodes: int = 1
    #: Simplex pivots spent on this objective; the phase 1 both objectives
    #: share is counted on the WCET result.
    ilp_pivots: int = 0

    def worst_case_blocks(self) -> List[int]:
        """Blocks on the critical path (non-zero execution count), sorted."""
        return sorted(block for block, count in self.block_counts.items() if count > 0)


#: A presolve row: ``(terms, rhs, is_equality)`` with integer ``terms`` of
#: ``(element, coefficient)``; an inequality reads ``sum <= rhs``.
_Row = Tuple[List[Tuple[int, int]], int, bool]


class _Presolve:
    """The reduced IPET system of one function (steps 1-3 of the module doc).

    Elements are the blocks (``0 .. len(blocks) - 1``, in address order)
    followed by the edges (in :meth:`ControlFlowGraph.edges` order).
    """

    def __init__(self, cfg: ControlFlowGraph, loops: LoopForest, loop_bounds,
                 infeasible_blocks, infeasible_edges, flow_constraints):
        self.function_name = cfg.function_name
        self.name = f"ipet:{cfg.function_name}"
        self.blocks = cfg.node_ids()
        self.edges = [(edge.source, edge.target) for edge in cfg.edges()]
        block_element = {block: position for position, block in enumerate(self.blocks)}
        base = len(self.blocks)
        edge_element = {edge: base + position for position, edge in enumerate(self.edges)}
        self._parent = list(range(base + len(self.edges)))
        self._fixed: Dict[int, int] = {}

        incoming: List[List[int]] = [[] for _ in self.blocks]
        outgoing: List[List[int]] = [[] for _ in self.blocks]
        entry_edges: List[int] = []
        exit_edges: List[int] = []
        for element, (source, target) in enumerate(self.edges, base):
            position = block_element.get(source)
            if position is not None:
                outgoing[position].append(element)
            elif source == ENTRY:
                entry_edges.append(element)
            position = block_element.get(target)
            if position is not None:
                incoming[position].append(element)
            elif target == EXIT:
                exit_edges.append(element)
        if not entry_edges:
            raise PathAnalysisError(
                f"{cfg.function_name}: control-flow graph has no entry edge"
            )

        rows: List[_Row] = [([(element, 1) for element in entry_edges], 1, True)]
        if exit_edges:
            rows.append(([(element, 1) for element in exit_edges], 1, True))
        # Flow conservation: a single in- or out-edge shares the block's count.
        for block, (ins, outs) in enumerate(zip(incoming, outgoing)):
            for edges in (ins, outs):
                if len(edges) == 1:
                    self._union(block, edges[0])
                else:
                    terms = [(element, 1) for element in edges]
                    rows.append((terms + [(block, -1)], 0, True))

        for loop in loops.loops:
            bound = loop_bounds.get(loop.header)
            if bound is None:
                continue
            terms = [(edge_element[edge], 1) for edge in sorted(set(loop.back_edges))]
            # A natural loop is entered through its header; an irreducible
            # cycle through any of its entry nodes.  Anchoring the constraint
            # on the header alone would find no entry edge for a cycle whose
            # external predecessors all target a different entry — forcing
            # zero iterations and undercutting the bound.  A loop without
            # entry edges is unreachable and gets zero iterations.
            for node in sorted(loop.entries or {loop.header}):
                for pred in cfg.predecessors(node):
                    if pred not in loop.blocks:
                        terms.append((edge_element[(pred, node)], -bound))
            rows.append((terms, 0, False))

        for block in infeasible_blocks:
            if block not in block_element:
                raise PathAnalysisError(
                    f"{self.name}: infeasible block {block:#x} is not in the CFG"
                )
            self._fix(block_element[block], 0)
        for edge in infeasible_edges:
            element = edge_element.get(edge)
            if element is not None:
                self._fix(element, 0)

        # Designer flow constraints (counts are per invocation; the entry edge
        # executes exactly once, so the plain bound is already normalised).
        for constraint in flow_constraints:
            if constraint.relation not in _RELATIONS:
                raise PathAnalysisError(
                    f"unsupported constraint relation {constraint.relation!r}"
                )
            terms = []
            for block, coefficient in constraint.terms:
                if block not in block_element:
                    raise PathAnalysisError(
                        f"{self.name}: flow constraint "
                        f"{constraint.name or 'flow-fact'!r} names block "
                        f"{block:#x}, which is not in the CFG"
                    )
                terms.append((block_element[block], coefficient))
            if constraint.relation == ">=":
                rows.append(([(e, -c) for e, c in terms], -constraint.bound, False))
            else:
                rows.append((terms, constraint.bound, constraint.relation == "=="))

        self.rows = self._reduce(rows)
        roots = [self._find(element) for element in range(len(self._parent))]
        self.roots = roots
        free = sorted({root for root in roots if root not in self._fixed})
        self.column = {root: column for column, root in enumerate(free)}

    # ------------------------------------------------------------------ #
    def _find(self, element: int) -> int:
        parent = self._parent
        while parent[element] != element:
            parent[element] = parent[parent[element]]
            element = parent[element]
        return element

    def _union(self, a: int, b: int) -> None:
        a, b = self._find(a), self._find(b)
        if a == b:
            return
        if b < a:
            a, b = b, a
        # The smaller element stays the root, so a class's column order is
        # the order of its first block or edge.
        self._parent[b] = a
        fixed = self._fixed.pop(b, None)
        if fixed is not None:
            self._fix(a, fixed)

    def _fix(self, element: int, value: int) -> None:
        root = self._find(element)
        if value < 0 or self._fixed.get(root, value) != value:
            raise self._infeasible()
        self._fixed[root] = value

    def _infeasible(self) -> InfeasibleILPError:
        return InfeasibleILPError(f"{self.name}: path analysis ILP is infeasible")

    def _reduce(self, rows: List[_Row]) -> List[Tuple[Dict[int, int], int, bool]]:
        """Rewrite ``rows`` over the classes until no row merges or fixes one."""
        find, fixed = self._find, self._fixed
        changed = True
        while changed:
            changed = False
            reduced = []
            for terms, rhs, equality in rows:
                merged: Dict[int, int] = {}
                for element, coefficient in terms:
                    root = find(element)
                    value = fixed.get(root)
                    if value is None:
                        merged[root] = merged.get(root, 0) + coefficient
                    else:
                        rhs -= coefficient * value
                kept = [(root, c) for root, c in merged.items() if c]
                if not kept:
                    if rhs < 0 or (equality and rhs != 0):
                        raise self._infeasible()
                    continue
                signs = {c > 0 for _, c in kept}
                if equality and len(kept) == 1:
                    root, coefficient = kept[0]
                    if rhs % coefficient:
                        raise self._infeasible()  # no integral count fits
                    self._fix(root, rhs // coefficient)
                elif rhs == 0 and (signs == {True} or (equality and signs == {False})):
                    # Non-negative counts held to a zero sum are all zero.
                    for root, _ in kept:
                        self._fix(root, 0)
                elif equality and rhs == 0 and len(kept) == 2 and (
                    kept[0][1] == -kept[1][1]
                ):
                    self._union(kept[0][0], kept[1][0])
                else:
                    reduced.append((kept, rhs, equality))
                    continue
                changed = True
            rows = reduced
        return [(dict(terms), rhs, equality) for terms, rhs, equality in rows]

    # ------------------------------------------------------------------ #
    def system(self) -> ILPSystem:
        column = self.column
        system = ILPSystem(len(column), name=self.name)
        for terms, rhs, equality in self.rows:
            row = {column[root]: float(c) for root, c in terms.items()}
            if equality:
                system.a_eq.append(row)
                system.b_eq.append(float(rhs))
            else:
                system.a_ub.append(row)
                system.b_ub.append(float(rhs))
        return system

    def objective(self, weights: Dict[int, int]) -> Tuple[List[float], int]:
        """Column coefficients and the fixed counts' constant for ``weights``."""
        coefficients = [0.0] * len(self.column)
        constant = 0
        for position, block in enumerate(self.blocks):
            weight = weights.get(block, 0)
            if weight:
                root = self.roots[position]
                if root in self._fixed:
                    constant += weight * self._fixed[root]
                else:
                    coefficients[self.column[root]] += weight
        return coefficients, constant

    def result(
        self, solution: ILPSolution, constant: int, maximise: bool
    ) -> PathAnalysisResult:
        counts = [
            self._fixed[root] if root in self._fixed
            else solution.int_value(self.column[root])
            for root in self.roots
        ]
        base = len(self.blocks)
        return PathAnalysisResult(
            function_name=self.function_name,
            objective="wcet" if maximise else "bcet",
            bound_cycles=constant + int(round(solution.objective)),
            block_counts=dict(zip(self.blocks, counts)),
            edge_counts=dict(zip(self.edges, counts[base:])),
            ilp_nodes=solution.nodes,
            ilp_pivots=solution.pivots,
        )


class IPETBuilder:
    """Builds and solves the IPET ILP for one function."""

    def __init__(self, cfg: ControlFlowGraph, loops: LoopForest):
        self.cfg = cfg
        self.loops = loops

    def solve_pair(
        self,
        wcet_weights: Dict[int, int],
        bcet_weights: Dict[int, int],
        loop_bounds: Dict[int, int],
        infeasible_blocks: Iterable[int] = (),
        infeasible_edges: Iterable[Tuple[int, int]] = (),
        flow_constraints: Sequence[ResolvedFlowConstraint] = (),
    ) -> Tuple[PathAnalysisResult, PathAnalysisResult]:
        """Solve the WCET (maximise) and BCET (minimise) objectives together.

        Both objectives run over one presolved system and share one phase-1
        feasibility basis (see :func:`repro.wcet.ilp.solve_ilp_pair`).
        ``loop_bounds`` maps loop headers to the maximum number of back-edge
        executions per loop entry.  A missing bound surfaces as an
        :class:`UnboundedILPError` naming the loops without one.
        """
        presolve = _Presolve(
            self.cfg, self.loops, loop_bounds, infeasible_blocks, infeasible_edges,
            flow_constraints,
        )
        wcet_objective, wcet_constant = presolve.objective(wcet_weights)
        bcet_objective, bcet_constant = presolve.objective(bcet_weights)
        try:
            wcet, bcet = solve_ilp_pair(presolve.system(), wcet_objective, bcet_objective)
        except UnboundedILPError as exc:
            raise self._unbounded(loop_bounds) from exc
        return (
            presolve.result(wcet, wcet_constant, True),
            presolve.result(bcet, bcet_constant, False),
        )

    def _unbounded(self, loop_bounds: Dict[int, int]) -> UnboundedILPError:
        unbounded = [
            f"{loop.header:#x}" for loop in self.loops.loops
            if loop.header not in loop_bounds
        ]
        return UnboundedILPError(
            f"{self.cfg.function_name}: the path analysis ILP is unbounded; "
            f"loops without iteration bounds: {', '.join(unbounded) or 'unknown'}"
        )
