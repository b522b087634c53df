"""Data-flow based loop bound analysis.

Implements the counter-loop detection that state-of-the-art WCET analyzers
rely on (cf. the Cullmann/Martin and Ermedahl et al. approaches the paper
cites): a loop gets an automatic bound when it has

* an exit test comparing a *counter* register against a loop-invariant limit,
* counter updates that are constant-step additions/subtractions executed on
  every iteration, and
* integer (not floating point) arithmetic throughout.

Every way this pattern can break corresponds to a discussion in the paper and
is reported as a distinct :class:`LoopBoundFailure` reason:

============================  ====================================================
reason                        paper reference
============================  ====================================================
``irreducible``               Section 3.2, irreducible loops (goto / rule 14.4)
``float-condition``           MISRA rule 13.4 (float loop conditions)
``complex-update``            MISRA rule 13.6 (counter modified in loop body)
``predicated-update``         single-path transformation discussion (Section 2)
``data-dependent-limit``      Section 4.3, data-dependent algorithms
``unknown-initial-value``     Section 4.3, data-dependent algorithms
``diverging``                 counter moves away from the limit
``no-exit-condition``         no analysable exit test found
``unsigned-range``            unsigned comparison over possibly-negative range
============================  ====================================================

Bounds are expressed as the maximum number of times the loop's *back edges*
can be taken per entry of the loop, which is the quantity the IPET path
analysis constrains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.domains.interval import Interval
from repro.analysis.value import ValueAnalysisResult
from repro.cfg.dominators import DominatorInfo, compute_dominators
from repro.cfg.graph import ControlFlowGraph, EdgeKind
from repro.cfg.loops import Loop, LoopForest
from repro.ir.instructions import Imm, Instruction, Opcode, Reg


@dataclass(frozen=True)
class LoopBound:
    """A derived (or annotated) iteration bound for one loop.

    ``max_back_edges`` bounds how often the loop's back edges may be taken per
    entry into the loop; the loop header therefore executes at most
    ``max_back_edges + 1`` times per entry.
    """

    max_back_edges: int
    source: str = "analysis"
    counter_register: Optional[str] = None
    detail: str = ""

    @property
    def max_header_executions(self) -> int:
        return self.max_back_edges + 1


@dataclass(frozen=True)
class LoopBoundFailure:
    """Explanation of why no automatic bound could be derived for a loop."""

    reason: str
    message: str


@dataclass
class LoopBoundResult:
    """Loop bounds (and failures) for all loops of one function."""

    function_name: str
    bounds: Dict[int, LoopBound] = field(default_factory=dict)
    failures: Dict[int, LoopBoundFailure] = field(default_factory=dict)

    @property
    def all_bounded(self) -> bool:
        return not self.failures

    def add_annotation(self, header: int, max_back_edges: int, detail: str = "") -> None:
        """Install a designer-supplied bound, overriding an analysis failure."""
        self.bounds[header] = LoopBound(
            max_back_edges=max_back_edges, source="annotation", detail=detail
        )
        self.failures.pop(header, None)


#: Relations in canonical "counter REL limit" form.
_REL_LT, _REL_LE, _REL_GT, _REL_GE, _REL_EQ, _REL_NE = "<", "<=", ">", ">=", "==", "!="

_NEGATION = {
    _REL_LT: _REL_GE,
    _REL_LE: _REL_GT,
    _REL_GT: _REL_LE,
    _REL_GE: _REL_LT,
    _REL_EQ: _REL_NE,
    _REL_NE: _REL_EQ,
}

_SWAP = {
    _REL_LT: _REL_GT,
    _REL_LE: _REL_GE,
    _REL_GT: _REL_LT,
    _REL_GE: _REL_LE,
    _REL_EQ: _REL_EQ,
    _REL_NE: _REL_NE,
}

_SIGNED_RELATIONS = {
    Opcode.SLT: _REL_LT,
    Opcode.SLE: _REL_LE,
    Opcode.SGT: _REL_GT,
    Opcode.SGE: _REL_GE,
    Opcode.SEQ: _REL_EQ,
    Opcode.SNE: _REL_NE,
}

_UNSIGNED_RELATIONS = {
    Opcode.SLTU: _REL_LT,
    Opcode.SGEU: _REL_GE,
}

_FLOAT_COMPARES = {Opcode.FSEQ, Opcode.FSNE, Opcode.FSLT, Opcode.FSLE}


@dataclass
class _CounterUpdate:
    instruction: Instruction
    block: int
    step: int
    predicated: bool


class LoopBoundAnalysis:
    """Derive iteration bounds for all loops of one function."""

    def __init__(
        self,
        cfg: ControlFlowGraph,
        loops: LoopForest,
        values: ValueAnalysisResult,
        dominators: Optional[DominatorInfo] = None,
    ):
        self.cfg = cfg
        self.loops = loops
        self.values = values
        self.dominators = dominators or compute_dominators(cfg)

    # ------------------------------------------------------------------ #
    def run(self) -> LoopBoundResult:
        result = LoopBoundResult(function_name=self.cfg.function_name)
        for loop in self.loops.loops:
            header = loop.header
            if loop.irreducible:
                result.failures[header] = LoopBoundFailure(
                    "irreducible",
                    "loop has multiple entry points; no automatic bound is possible "
                    "(manual annotation required, cf. MISRA rules 14.4/16.2/20.7)",
                )
                continue
            outcome = self._bound_loop(loop)
            if isinstance(outcome, LoopBound):
                result.bounds[header] = outcome
            else:
                result.failures[header] = outcome
        return result

    # ------------------------------------------------------------------ #
    def _bound_loop(self, loop: Loop):
        exit_tests = self._exit_tests(loop)
        if not exit_tests:
            return LoopBoundFailure(
                "no-exit-condition",
                "no conditional exit test comparing a register against a limit "
                "was found in the loop",
            )
        failures: List[LoopBoundFailure] = []
        bounds: List[LoopBound] = []
        for block_id, branch, compare, continue_when_true in exit_tests:
            outcome = self._bound_from_test(loop, block_id, branch, compare, continue_when_true)
            if isinstance(outcome, LoopBound):
                bounds.append(outcome)
            else:
                failures.append(outcome)
        if bounds:
            return min(bounds, key=lambda b: b.max_back_edges)
        # Report the most informative failure (prefer specific reasons over
        # the generic missing-exit one).
        priority = {
            "float-condition": 0,
            "complex-update": 1,
            "predicated-update": 2,
            "data-dependent-limit": 3,
            "unknown-initial-value": 4,
            "diverging": 5,
            "unsigned-range": 6,
            "no-exit-condition": 7,
        }
        failures.sort(key=lambda f: priority.get(f.reason, 99))
        return failures[0]

    # ------------------------------------------------------------------ #
    def _exit_tests(
        self, loop: Loop
    ) -> List[Tuple[int, Instruction, Optional[Instruction], bool]]:
        """Find conditional branches in the loop with one successor outside.

        Returns tuples ``(block, branch, compare, continue_when_true)`` where
        ``compare`` is the instruction defining the branch condition (if found
        inside the same block) and ``continue_when_true`` tells whether the
        loop keeps running when the comparison evaluates to true.
        """
        tests = []
        for block_id in sorted(loop.blocks):
            block = self.cfg.block(block_id)
            last = block.last
            if not last.is_conditional_branch:
                continue
            successors = self.cfg.out_edges(block_id)
            inside = [e for e in successors if e.target in loop.blocks]
            outside = [e for e in successors if e.target not in loop.blocks]
            if not inside or not outside:
                continue
            taken_edge = next((e for e in successors if e.kind is EdgeKind.TAKEN), None)
            if taken_edge is None:
                continue
            taken_stays = taken_edge.target in loop.blocks
            # For `bt`: condition true -> take the branch.  The loop continues
            # on the edge that stays inside.
            if last.opcode is Opcode.BT:
                continue_when_true = taken_stays
            else:  # BF: condition false -> take the branch
                continue_when_true = not taken_stays
            condition_reg = last.operands[0]
            compare = self._defining_compare(block, condition_reg)
            tests.append((block_id, last, compare, continue_when_true))
        return tests

    @staticmethod
    def _defining_compare(block, condition_reg) -> Optional[Instruction]:
        for instr in reversed(block.instructions[:-1]):
            if instr.defined_register() == condition_reg.name:
                if instr.is_compare:
                    return instr
                return None
        return None

    # ------------------------------------------------------------------ #
    def _bound_from_test(
        self,
        loop: Loop,
        block_id: int,
        branch: Instruction,
        compare: Optional[Instruction],
        continue_when_true: bool,
    ):
        if compare is None:
            return LoopBoundFailure(
                "no-exit-condition",
                f"the exit branch at {branch.address:#x} is not fed by a "
                "comparison in the same basic block",
            )
        if compare.opcode in _FLOAT_COMPARES:
            return LoopBoundFailure(
                "float-condition",
                f"the loop exit test at {compare.address:#x} compares floating-"
                "point values; interval-based loop analysis cannot bound it "
                "(MISRA rule 13.4)",
            )
        relation = _SIGNED_RELATIONS.get(compare.opcode) or _UNSIGNED_RELATIONS.get(
            compare.opcode
        )
        if relation is None:
            return LoopBoundFailure(
                "no-exit-condition",
                f"unsupported comparison {compare.opcode.value!r} in loop exit test",
            )
        unsigned = compare.opcode in _UNSIGNED_RELATIONS
        if not continue_when_true:
            relation = _NEGATION[relation]

        lhs, rhs = compare.operands
        lhs_updates = self._counter_updates(loop, lhs) if isinstance(lhs, Reg) else None
        rhs_updates = self._counter_updates(loop, rhs) if isinstance(rhs, Reg) else None

        lhs_is_counter = bool(lhs_updates)
        rhs_is_counter = bool(rhs_updates)
        if lhs_is_counter and rhs_is_counter:
            return LoopBoundFailure(
                "complex-update",
                "both comparison operands are modified inside the loop; no "
                "simple counter pattern (MISRA rule 13.6)",
            )
        if not lhs_is_counter and not rhs_is_counter:
            # Neither side changes in the loop: the exit test is loop
            # invariant, so it either exits immediately or never does.
            return LoopBoundFailure(
                "data-dependent-limit",
                "the exit test does not involve any register modified in the "
                "loop; the loop is either not taken or unbounded",
            )
        if rhs_is_counter:
            lhs, rhs = rhs, lhs
            relation = _SWAP[relation]
            updates = rhs_updates
        else:
            updates = lhs_updates
        assert updates is not None
        counter = lhs
        limit = rhs

        # Validate the updates (rule 13.6 / single-path discussion).
        if any(u.step is None for u in updates):
            return LoopBoundFailure(
                "complex-update",
                f"register {counter.name} is modified by a non-constant-step "
                "operation inside the loop (MISRA rule 13.6)",
            )
        if any(u.predicated for u in updates):
            return LoopBoundFailure(
                "predicated-update",
                f"register {counter.name} is only updated under a predicate; "
                "progress towards the loop exit cannot be guaranteed",
            )
        steps = [u.step for u in updates]
        if any(s == 0 for s in steps):
            return LoopBoundFailure(
                "complex-update", f"register {counter.name} has a zero-step update"
            )
        if any((s > 0) != (steps[0] > 0) for s in steps):
            return LoopBoundFailure(
                "complex-update",
                f"register {counter.name} is both incremented and decremented "
                "inside the loop (MISRA rule 13.6)",
            )
        step = min(abs(s) for s in steps) * (1 if steps[0] > 0 else -1)

        # At least one update must execute on every iteration: some update's
        # block has to dominate every latch block.
        latches = loop.latch_blocks()
        if not any(
            all(self.dominators.dominates(u.block, latch) for latch in latches)
            for u in updates
        ):
            return LoopBoundFailure(
                "complex-update",
                f"no update of {counter.name} is executed on every loop "
                "iteration; the counter may stall",
            )

        # The limit must be loop invariant.
        if isinstance(limit, Reg) and self._is_modified_in_loop(loop, limit.name):
            return LoopBoundFailure(
                "data-dependent-limit",
                f"the comparison limit {limit.name} is itself modified inside "
                "the loop",
            )

        init = self._value_at_loop_entry(loop, counter.name)
        limit_interval = self._limit_interval(loop, limit)

        if unsigned and not (init.is_nonnegative() and limit_interval.is_nonnegative()):
            return LoopBoundFailure(
                "unsigned-range",
                "the exit test uses an unsigned comparison but the operands may "
                "be negative when read as signed integers",
            )

        return self._compute_bound(counter.name, relation, step, init, limit_interval)

    # ------------------------------------------------------------------ #
    def _counter_updates(self, loop: Loop, reg: Reg) -> List[_CounterUpdate]:
        updates: List[_CounterUpdate] = []
        for block_id in loop.blocks:
            block = self.cfg.block(block_id)
            for instr in block.instructions:
                if instr.defined_register() != reg.name:
                    continue
                step = self._constant_step(instr, reg.name)
                updates.append(
                    _CounterUpdate(
                        instruction=instr,
                        block=block_id,
                        step=step,
                        predicated=instr.is_predicated,
                    )
                )
        return updates

    @staticmethod
    def _constant_step(instr: Instruction, register: str) -> Optional[int]:
        """Step of ``register += c`` / ``register -= c`` updates, else None."""
        if instr.opcode not in (Opcode.ADD, Opcode.SUB):
            return None
        a, b = instr.operands
        if instr.opcode is Opcode.ADD:
            if isinstance(a, Reg) and a.name == register and isinstance(b, Imm) and isinstance(b.value, int):
                return b.value
            if isinstance(b, Reg) and b.name == register and isinstance(a, Imm) and isinstance(a.value, int):
                return a.value
            return None
        # SUB: only register - constant keeps the counter pattern.
        if isinstance(a, Reg) and a.name == register and isinstance(b, Imm) and isinstance(b.value, int):
            return -b.value
        return None

    def _is_modified_in_loop(self, loop: Loop, register: str) -> bool:
        for block_id in loop.blocks:
            for instr in self.cfg.block(block_id).instructions:
                if instr.defined_register() == register:
                    return True
        return False

    def _loop_entry_edges(self, loop: Loop) -> List[Tuple[int, int]]:
        return [
            (pred, loop.header)
            for pred in self.cfg.predecessors(loop.header)
            if pred not in loop.blocks
        ]

    def _value_at_loop_entry(self, loop: Loop, register: str) -> Interval:
        # One batched join of every entry edge, cached on the value-analysis
        # result; each per-register probe then reads the merged state directly.
        state = self.values.joined_edge_state(tuple(self._loop_entry_edges(loop)))
        if not state.reachable:
            return Interval.bottom()
        value = state.get(register)
        if value.is_float:
            return Interval.top()
        return value.interval

    def _limit_interval(self, loop: Loop, limit) -> Interval:
        if isinstance(limit, Imm) and isinstance(limit.value, int):
            return Interval.const(limit.value)
        if isinstance(limit, Imm):
            return Interval.top()
        assert isinstance(limit, Reg)
        return self._value_at_loop_entry(loop, limit.name)

    # ------------------------------------------------------------------ #
    def _compute_bound(
        self, counter: str, relation: str, step: int, init: Interval, limit: Interval
    ):
        def failure_unknown(what: str) -> LoopBoundFailure:
            return LoopBoundFailure(
                "data-dependent-limit" if what == "limit" else "unknown-initial-value",
                f"the {what} of loop counter {counter} is not statically known "
                f"(init={init}, limit={limit}); the loop is input-data dependent",
            )

        if init.is_bottom:
            # The loop entry is unreachable according to the value analysis.
            return LoopBound(0, counter_register=counter, detail="loop entry unreachable")

        if relation in (_REL_LT, _REL_LE):
            if step < 0:
                return LoopBoundFailure(
                    "diverging",
                    f"loop counter {counter} decreases but the loop continues "
                    f"while it is below the limit; it may never terminate",
                )
            if limit.hi is None:
                return failure_unknown("limit")
            if init.lo is None:
                return failure_unknown("initial value")
            distance = limit.hi - init.lo
            if relation == _REL_LT:
                iterations = _ceil_div(distance, step)
            else:
                iterations = distance // step + 1
            return LoopBound(
                max(0, iterations),
                counter_register=counter,
                detail=f"{counter} from {init} by {step:+} while {relation} {limit}",
            )

        if relation in (_REL_GT, _REL_GE):
            if step > 0:
                return LoopBoundFailure(
                    "diverging",
                    f"loop counter {counter} increases but the loop continues "
                    f"while it is above the limit; it may never terminate",
                )
            if limit.lo is None:
                return failure_unknown("limit")
            if init.hi is None:
                return failure_unknown("initial value")
            distance = init.hi - limit.lo
            if relation == _REL_GT:
                iterations = _ceil_div(distance, -step)
            else:
                iterations = distance // (-step) + 1
            return LoopBound(
                max(0, iterations),
                counter_register=counter,
                detail=f"{counter} from {init} by {step:+} while {relation} {limit}",
            )

        if relation == _REL_NE:
            if not (init.is_constant and limit.is_constant):
                return failure_unknown("limit")
            difference = limit.constant_value - init.constant_value
            if difference % step != 0 or (difference > 0) != (step > 0) and difference != 0:
                return LoopBoundFailure(
                    "diverging",
                    f"loop counter {counter} steps by {step:+} but can skip over "
                    f"the != limit; the loop may wrap around",
                )
            return LoopBound(
                abs(difference // step),
                counter_register=counter,
                detail=f"{counter} from {init} by {step:+} until == {limit}",
            )

        if relation == _REL_EQ:
            # The loop only continues while counter == limit; a non-zero step
            # leaves that value after one iteration.
            return LoopBound(
                1,
                counter_register=counter,
                detail=f"{counter} must stay equal to {limit}; one iteration at most",
            )

        return LoopBoundFailure("no-exit-condition", f"unsupported relation {relation!r}")


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)
