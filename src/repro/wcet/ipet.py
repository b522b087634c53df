"""Implicit Path Enumeration Technique (IPET) path analysis.

The final phase of Figure 1: given per-block execution-time weights, loop
bounds and flow facts, find the most expensive (for WCET) or cheapest (for
BCET) assignment of execution counts to basic blocks that is consistent with
the control-flow structure.  The formulation is the classic one:

* one non-negative integer variable per basic block (``x_<addr>``) and per CFG
  edge (``f_<src>_<dst>``), including the virtual entry and exit edges;
* flow conservation: the count of a block equals the sum of its incoming edge
  frequencies and the sum of its outgoing edge frequencies;
* the virtual entry edge executes exactly once per task activation;
* every loop contributes ``sum(back edges) <= bound * sum(entry edges)``;
* annotations contribute infeasibility (``x = 0``) and linear flow constraints;
* the objective is ``sum(weight_b * x_b)``.

If a loop has no bound the ILP is unbounded — which is exactly the situation
the paper describes as "no WCET bound can be computed at all"; the error
message lists the offending loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import PathAnalysisError, UnboundedILPError
from repro.cfg.graph import ENTRY, EXIT, ControlFlowGraph
from repro.cfg.loops import LoopForest
from repro.wcet.ilp import ILPProblem, ILPSolution, LinearExpression, solve_ilp_pair


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
    #: Simplex pivots spent on this objective (0 for the scipy backend).
    ilp_pivots: int = 0

    def count_of(self, block_id: int) -> int:
        return self.block_counts.get(block_id, 0)

    def worst_case_blocks(self) -> List[int]:
        """Blocks on the critical path (non-zero execution count), sorted."""
        return sorted(block for block, count in self.block_counts.items() if count > 0)


def _block_variable(block_id: int) -> str:
    return f"x_{block_id:#x}"


def _edge_variable(source: int, target: int) -> str:
    def name(node: int) -> str:
        if node == ENTRY:
            return "entry"
        if node == EXIT:
            return "exit"
        return f"{node:#x}"

    return f"f_{name(source)}_{name(target)}"


class IPETBuilder:
    """Builds and solves the IPET ILP for one function."""

    def __init__(self, cfg: ControlFlowGraph, loops: LoopForest):
        self.cfg = cfg
        self.loops = loops

    # ------------------------------------------------------------------ #
    def build(
        self,
        block_weights: Dict[int, int],
        loop_bounds: Dict[int, int],
        infeasible_blocks: Iterable[int] = (),
        infeasible_edges: Iterable[Tuple[int, int]] = (),
        flow_constraints: Sequence[ResolvedFlowConstraint] = (),
        maximise: bool = True,
    ) -> ILPProblem:
        """Construct the ILP.

        ``loop_bounds`` maps loop headers to the maximum number of back-edge
        executions per loop entry.  Missing bounds are not detected here; they
        surface as an unbounded ILP when solving.
        """
        problem = ILPProblem(
            name=f"ipet:{self.cfg.function_name}:{'wcet' if maximise else 'bcet'}",
            maximise=maximise,
        )

        blocks = self.cfg.node_ids()
        edges = self.cfg.edges()

        for block_id in blocks:
            problem.add_variable(_block_variable(block_id))
        for edge in edges:
            problem.add_variable(_edge_variable(edge.source, edge.target))

        # Objective.
        for block_id in blocks:
            weight = block_weights.get(block_id, 0)
            if weight:
                problem.set_objective_coefficient(_block_variable(block_id), weight)

        # The task is activated exactly once.
        entry_edges = self.cfg.out_edges(ENTRY)
        if not entry_edges:
            raise PathAnalysisError(
                f"{self.cfg.function_name}: control-flow graph has no entry edge"
            )
        entry_expression = LinearExpression()
        for edge in entry_edges:
            entry_expression.add_term(_edge_variable(edge.source, edge.target), 1.0)
        problem.add_constraint(entry_expression, "==", 1, name="entry-once")

        exit_edges = self.cfg.in_edges(EXIT)
        if exit_edges:
            exit_expression = LinearExpression()
            for edge in exit_edges:
                exit_expression.add_term(_edge_variable(edge.source, edge.target), 1.0)
            problem.add_constraint(exit_expression, "==", 1, name="exit-once")

        # Flow conservation per block.
        for block_id in blocks:
            incoming = LinearExpression()
            for edge in self.cfg.in_edges(block_id):
                incoming.add_term(_edge_variable(edge.source, edge.target), 1.0)
            incoming.add_term(_block_variable(block_id), -1.0)
            problem.add_constraint(incoming, "==", 0, name=f"in-flow:{block_id:#x}")

            outgoing = LinearExpression()
            for edge in self.cfg.out_edges(block_id):
                outgoing.add_term(_edge_variable(edge.source, edge.target), 1.0)
            outgoing.add_term(_block_variable(block_id), -1.0)
            problem.add_constraint(outgoing, "==", 0, name=f"out-flow:{block_id:#x}")

        # Loop bounds.
        for loop in self.loops.loops:
            bound = loop_bounds.get(loop.header)
            if bound is None:
                continue
            expression = LinearExpression()
            back_edges = set(loop.back_edges)
            for tail, head in back_edges:
                expression.add_term(_edge_variable(tail, head), 1.0)
            # A natural loop is entered through its header; an irreducible
            # cycle through any of its entry nodes.  Anchoring the constraint
            # on the header alone would find no entry edge for a cycle whose
            # external predecessors all target a different entry — forcing
            # zero iterations and undercutting the bound.
            entry_nodes = loop.entries or {loop.header}
            entry_edges_of_loop = [
                (pred, node)
                for node in sorted(entry_nodes)
                for pred in self.cfg.predecessors(node)
                if pred not in loop.blocks
            ]
            if not entry_edges_of_loop:
                # Unreachable loop: force zero iterations.
                problem.add_constraint(
                    expression, "<=", 0, name=f"loop-bound:{loop.header:#x}"
                )
                continue
            for source, target in entry_edges_of_loop:
                expression.add_term(_edge_variable(source, target), -float(bound))
            problem.add_constraint(
                expression, "<=", 0, name=f"loop-bound:{loop.header:#x}"
            )

        # Infeasible blocks and edges.
        for block_id in infeasible_blocks:
            problem.add_constraint(
                LinearExpression({_block_variable(block_id): 1.0}),
                "==",
                0,
                name=f"infeasible-block:{block_id:#x}",
            )
        for source, target in infeasible_edges:
            variable = _edge_variable(source, target)
            if problem.has_variable(variable):
                problem.add_constraint(
                    LinearExpression({variable: 1.0}),
                    "==",
                    0,
                    name=f"infeasible-edge:{variable}",
                )

        # Designer flow constraints (counts are per invocation; the entry edge
        # executes exactly once, so the plain bound is already normalised).
        for constraint in flow_constraints:
            expression = LinearExpression()
            for block_id, coefficient in constraint.terms:
                expression.add_term(_block_variable(block_id), float(coefficient))
            problem.add_constraint(
                expression,
                constraint.relation,
                constraint.bound,
                name=constraint.name or "flow-fact",
            )

        return problem

    # ------------------------------------------------------------------ #
    def solve(
        self,
        block_weights: Dict[int, int],
        loop_bounds: Dict[int, int],
        infeasible_blocks: Iterable[int] = (),
        infeasible_edges: Iterable[Tuple[int, int]] = (),
        flow_constraints: Sequence[ResolvedFlowConstraint] = (),
        maximise: bool = True,
        backend: str = "auto",
    ) -> PathAnalysisResult:
        problem = self.build(
            block_weights,
            loop_bounds,
            infeasible_blocks=infeasible_blocks,
            infeasible_edges=infeasible_edges,
            flow_constraints=flow_constraints,
            maximise=maximise,
        )
        try:
            solution = problem.solve(backend=backend)
        except UnboundedILPError as exc:
            unbounded = [
                f"{loop.header:#x}" for loop in self.loops.loops
                if loop.header not in loop_bounds
            ]
            raise UnboundedILPError(
                f"{self.cfg.function_name}: the path analysis ILP is unbounded; "
                f"loops without iteration bounds: {', '.join(unbounded) or 'unknown'}"
            ) from exc
        return self._result_from_solution(solution, maximise)

    def solve_pair(
        self,
        wcet_weights: Dict[int, int],
        bcet_weights: Dict[int, int],
        loop_bounds: Dict[int, int],
        infeasible_blocks: Iterable[int] = (),
        infeasible_edges: Iterable[Tuple[int, int]] = (),
        flow_constraints: Sequence[ResolvedFlowConstraint] = (),
        backend: str = "auto",
    ) -> Tuple[PathAnalysisResult, PathAnalysisResult]:
        """Solve the WCET (maximise) and BCET (minimise) objectives together.

        Both objectives run over the identical constraint system, so the
        bespoke simplex backend shares one phase-1 feasibility basis between
        them (see :func:`repro.wcet.ilp.solve_ilp_pair`); results are
        identical to two separate :meth:`solve` calls.
        """
        infeasible_blocks = tuple(infeasible_blocks)
        infeasible_edges = tuple(infeasible_edges)
        wcet_problem = self.build(
            wcet_weights,
            loop_bounds,
            infeasible_blocks=infeasible_blocks,
            infeasible_edges=infeasible_edges,
            flow_constraints=flow_constraints,
            maximise=True,
        )
        bcet_problem = self.build(
            bcet_weights,
            loop_bounds,
            infeasible_blocks=infeasible_blocks,
            infeasible_edges=infeasible_edges,
            flow_constraints=flow_constraints,
            maximise=False,
        )
        try:
            wcet_solution, bcet_solution = solve_ilp_pair(
                wcet_problem, bcet_problem, backend=backend
            )
        except UnboundedILPError as exc:
            unbounded = [
                f"{loop.header:#x}" for loop in self.loops.loops
                if loop.header not in loop_bounds
            ]
            raise UnboundedILPError(
                f"{self.cfg.function_name}: the path analysis ILP is unbounded; "
                f"loops without iteration bounds: {', '.join(unbounded) or 'unknown'}"
            ) from exc
        return (
            self._result_from_solution(wcet_solution, True),
            self._result_from_solution(bcet_solution, False),
        )

    def _result_from_solution(
        self, solution: ILPSolution, maximise: bool
    ) -> PathAnalysisResult:
        block_counts = {
            block_id: solution.int_value(_block_variable(block_id))
            for block_id in self.cfg.node_ids()
        }
        edge_counts = {
            (edge.source, edge.target): solution.int_value(
                _edge_variable(edge.source, edge.target)
            )
            for edge in self.cfg.edges()
        }
        bound = int(round(solution.objective))
        return PathAnalysisResult(
            function_name=self.cfg.function_name,
            objective="wcet" if maximise else "bcet",
            bound_cycles=bound,
            block_counts=block_counts,
            edge_counts=edge_counts,
            ilp_nodes=solution.nodes,
            ilp_pivots=solution.pivots,
        )
