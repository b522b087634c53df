"""Delta-debugging shrinker for violating generated programs.

Works on the structured program model (:class:`GeneratedCase`), not on source
text: transformations remove statements, inline branches, shorten loops and
drop whole functions, then re-render — so line-number-based loop annotations
are recomputed and never go stale.  A candidate is kept only when the oracle
still reports a violation of the *same kind* as the original failure; this
stops the shrink from wandering to an unrelated failure (e.g. turning a
WCET undercut into a compile error by deleting a called function).

The algorithm is a greedy fixpoint over a candidate queue (classic ddmin
spirit, simplified): repeatedly try every applicable transformation, restart
whenever one sticks, stop when a full pass changes nothing or the check
budget is exhausted.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.testing.generator import (
    GeneratedCase,
    SAssign,
    SFnPtrCall,
    SFor,
    SGotoLoop,
    SIf,
    SWhileBreak,
    Stmt,
)
from repro.testing.oracle import DifferentialOracle, OracleConfig, OracleResult


@dataclass
class ShrinkResult:
    """Outcome of one shrink run."""

    case: GeneratedCase
    result: OracleResult
    line_count: int
    checks: int
    reductions: int


class Shrinker:
    """Minimises a violating case while preserving the violation kind."""

    def __init__(
        self,
        config: Optional[OracleConfig] = None,
        max_checks: int = 400,
    ):
        self.oracle = DifferentialOracle(config)
        self.max_checks = max_checks
        self.checks = 0

    # ------------------------------------------------------------------ #
    def shrink(self, case: GeneratedCase) -> ShrinkResult:
        """Shrink ``case``; it must currently fail the oracle."""
        baseline = self.oracle.check(case)
        if baseline.ok:
            raise ValueError(
                f"case {case.name!r} passes the oracle; nothing to shrink"
            )
        target_kinds = set(baseline.violation_kinds())
        self.checks = 1
        reductions = 0

        current = copy.deepcopy(case)
        progress = True
        while progress and self.checks < self.max_checks:
            progress = False
            for candidate in self._candidates(current):
                if self.checks >= self.max_checks:
                    break
                result = self.oracle.check(candidate)
                self.checks += 1
                if result.violations and target_kinds & set(result.violation_kinds()):
                    current = candidate
                    reductions += 1
                    progress = True
                    break   # restart candidate generation from the smaller case

        final_result = self.oracle.check(current)
        return ShrinkResult(
            case=current,
            result=final_result,
            line_count=len(final_result.source.splitlines()),
            checks=self.checks,
            reductions=reductions,
        )

    # ------------------------------------------------------------------ #
    # Candidate generation (ordered: big cuts first)
    # ------------------------------------------------------------------ #
    def _candidates(self, case: GeneratedCase):
        yield from self._drop_functions(case)
        yield from self._drop_statements(case)
        yield from self._inline_branches(case)
        yield from self._shorten_loops(case)
        yield from self._drop_locals(case)
        yield from self._drop_globals(case)
        yield from self._simplify_exprs(case)

    def _drop_functions(self, case: GeneratedCase):
        for index, function in enumerate(case.functions):
            if function.name == case.entry:
                continue
            candidate = copy.deepcopy(case)
            del candidate.functions[index]
            yield candidate   # invalid if still called — oracle rejects that

    def _drop_statements(self, case: GeneratedCase):
        for path in _statement_paths(case):
            candidate = copy.deepcopy(case)
            block = _resolve_block(candidate, path[:-1])
            del block[path[-1]]
            yield candidate

    def _inline_branches(self, case: GeneratedCase):
        for path in _statement_paths(case):
            stmt = _resolve_stmt(case, path)
            if isinstance(stmt, SIf):
                for branch in ("then", "els"):
                    body = getattr(stmt, branch)
                    if not body and branch == "els":
                        continue
                    candidate = copy.deepcopy(case)
                    block = _resolve_block(candidate, path[:-1])
                    block[path[-1] : path[-1] + 1] = copy.deepcopy(body)
                    yield candidate
            elif isinstance(stmt, (SFor, SWhileBreak, SGotoLoop)) and stmt.body:
                candidate = copy.deepcopy(case)
                _resolve_stmt(candidate, path).body = []
                yield candidate

    def _shorten_loops(self, case: GeneratedCase):
        for path in _statement_paths(case):
            stmt = _resolve_stmt(case, path)
            if isinstance(stmt, (SFor, SWhileBreak)) and stmt.bound > 1:
                candidate = copy.deepcopy(case)
                loop = _resolve_stmt(candidate, path)
                loop.bound = 1
                if isinstance(loop, SWhileBreak) and loop.annotate is not None:
                    loop.annotate = min(loop.annotate, 1)
                if isinstance(loop, SFor) and loop.annotate is not None:
                    loop.annotate = 1
                yield candidate
            if isinstance(stmt, SWhileBreak) and stmt.break_cond is not None:
                candidate = copy.deepcopy(case)
                _resolve_stmt(candidate, path).break_cond = None
                yield candidate
            if isinstance(stmt, SGotoLoop) and stmt.bound > 1:
                candidate = copy.deepcopy(case)
                loop = _resolve_stmt(candidate, path)
                loop.bound = 1
                loop.annotate = 1
                yield candidate
            if isinstance(stmt, SFnPtrCall) and stmt.alternate is not None:
                candidate = copy.deepcopy(case)
                call = _resolve_stmt(candidate, path)
                call.alternate = None
                call.cond = None
                yield candidate

    def _drop_locals(self, case: GeneratedCase):
        for findex, function in enumerate(case.functions):
            for lindex in range(len(function.locals_)):
                candidate = copy.deepcopy(case)
                del candidate.functions[findex].locals_[lindex]
                yield candidate   # invalid if the local is used — rejected

    def _drop_globals(self, case: GeneratedCase):
        for gindex in range(len(case.globals_)):
            candidate = copy.deepcopy(case)
            del candidate.globals_[gindex]
            yield candidate

    def _simplify_exprs(self, case: GeneratedCase):
        for path in _statement_paths(case):
            stmt = _resolve_stmt(case, path)
            if isinstance(stmt, SAssign) and stmt.expr not in ("0", "1"):
                candidate = copy.deepcopy(case)
                _resolve_stmt(candidate, path).expr = "0"
                yield candidate
        for findex, function in enumerate(case.functions):
            if function.return_expr not in ("0",) and not function.returns_void:
                candidate = copy.deepcopy(case)
                candidate.functions[findex].return_expr = "0"
                yield candidate


# --------------------------------------------------------------------------- #
# Statement addressing: a path is (function index, branch selectors..., index)
# --------------------------------------------------------------------------- #
def _blocks_of(stmt: Stmt) -> List[Tuple[str, List[Stmt]]]:
    if isinstance(stmt, SIf):
        return [("then", stmt.then), ("els", stmt.els)]
    if isinstance(stmt, (SFor, SWhileBreak, SGotoLoop)):
        return [("body", stmt.body)]
    return []


def _statement_paths(case: GeneratedCase) -> List[Tuple]:
    """Every statement position, as (findex, (sel, idx)..., idx) paths."""
    paths: List[Tuple] = []

    def visit(block: Sequence[Stmt], prefix: Tuple) -> None:
        for index, stmt in enumerate(block):
            paths.append(prefix + (index,))
            for selector, inner in _blocks_of(stmt):
                visit(inner, prefix + (index, selector))

    for findex, function in enumerate(case.functions):
        visit(function.body, (findex,))
    return paths


def _resolve_block(case: GeneratedCase, prefix: Tuple) -> List[Stmt]:
    """The statement list addressed by ``prefix`` (a path minus its last index)."""
    function = case.functions[prefix[0]]
    block: List[Stmt] = function.body
    i = 1
    while i < len(prefix):
        stmt = block[prefix[i]]
        selector = prefix[i + 1]
        block = dict(_blocks_of(stmt))[selector]
        i += 2
    return block


def _resolve_stmt(case: GeneratedCase, path: Tuple) -> Stmt:
    return _resolve_block(case, path[:-1])[path[-1]]


# --------------------------------------------------------------------------- #
def shrink_case(
    case: GeneratedCase,
    config: Optional[OracleConfig] = None,
    max_checks: int = 400,
) -> ShrinkResult:
    """Convenience wrapper: shrink one failing case."""
    return Shrinker(config, max_checks=max_checks).shrink(case)
