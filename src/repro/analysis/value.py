"""Register/memory value analysis by abstract interpretation.

This is the "Loop/Value Analysis" box of Figure 1: a forward abstract
interpretation of one function over the combined interval/address domain of
:mod:`repro.analysis.domains.memstate`.  Its products feed every later phase:

* abstract register contents and memory cells (loop-bound analysis,
  feasibility of branches),
* the abstract *address* of every load and store (data-cache analysis and
  memory-module classification — the "imprecise memory accesses" discussion of
  Section 4.3),
* per-edge refined states, so that branch conditions exclude impossible paths.

Calls are handled conservatively (caller-saved registers and non-stack memory
are forgotten) because the analysis is intraprocedural; the WCET analyzer
composes per-function results bottom-up over the call graph.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import AnalysisError
from repro.analysis.domains.interval import Interval
from repro.analysis.domains.memstate import (
    STACK_BASE,
    AbstractState,
    AbstractValue,
    PredicateFact,
)
from repro.analysis.fixpoint import ForwardSolver
from repro.analysis.wto import compute_wto
from repro.cfg.graph import BasicBlock, ControlFlowGraph
from repro.cfg.loops import LoopForest
from repro.ir.instructions import (
    CALLER_SAVED_REGISTERS,
    Imm,
    Instruction,
    Opcode,
    Reg,
    Sym,
)
from repro.ir.program import Program, STACK_SIZE, STACK_TOP, WORD_SIZE
from repro.obs import metrics as obs_metrics


@dataclass
class AccessInfo:
    """Abstract description of one memory-access instruction.

    ``absolute`` is the interval of byte addresses the access may touch; when
    nothing is known about the pointer it spans the whole address space, which
    forces the timing analysis to assume the slowest memory module and to
    invalidate the abstract data cache — exactly the penalty the paper
    attributes to imprecise memory accesses.
    """

    instruction_address: int
    is_load: bool
    size: int
    bases: FrozenSet[str]
    offset: Interval
    absolute: Interval
    #: True when the pointer value was completely unknown.
    unknown: bool = False

    def span(self) -> Optional[int]:
        return self.absolute.width()


@dataclass
class ValueAnalysisResult:
    """Outcome of :class:`ValueAnalysis.run` for one function."""

    function_name: str
    block_in: Dict[int, AbstractState] = field(default_factory=dict)
    edge_out: Dict[Tuple[int, int], AbstractState] = field(default_factory=dict)
    accesses: Dict[int, AccessInfo] = field(default_factory=dict)
    iterations: int = 0
    # Query caches: entry states are immutable once the fixpoint is done, so
    # repeated lookups (loop-bound queries probe one register at a time) reuse
    # one shared unreachable state and one joined state per edge set instead
    # of rebuilding them per call.
    _unreachable: Optional[AbstractState] = field(
        default=None, init=False, repr=False, compare=False
    )
    _edge_join_cache: Dict[Tuple[Tuple[int, int], ...], AbstractState] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    def _unreachable_state(self) -> AbstractState:
        state = self._unreachable
        if state is None:
            state = AbstractState.unreachable()
            self._unreachable = state
        return state

    def state_at_block_entry(self, block_id: int) -> AbstractState:
        state = self.block_in.get(block_id)
        if state is None:
            return self._unreachable_state()
        return state

    def edge_state(self, source: int, target: int) -> AbstractState:
        state = self.edge_out.get((source, target))
        if state is None:
            return self._unreachable_state()
        return state

    def joined_edge_state(self, edges: Tuple[Tuple[int, int], ...]) -> AbstractState:
        """The join of the states flowing along ``edges``, in one batched pass.

        Unreachable and missing edges contribute nothing; an empty or fully
        unreachable edge set yields an unreachable state.  The result is
        cached per edge tuple, so per-register queries against the same merge
        point (loop-entry probes) pay for the join once.
        """
        key = tuple(edges)
        cached = self._edge_join_cache.get(key)
        if cached is None:
            states = []
            for edge in key:
                state = self.edge_out.get(edge)
                if state is not None:
                    states.append(state)
            cached = AbstractState.join_all(states)
            self._edge_join_cache[key] = cached
        return cached

    def infeasible_edges(self) -> List[Tuple[int, int]]:
        return [
            edge for edge, state in self.edge_out.items() if not state.reachable
        ]


#: Compiled per-block transfer kernels, shared process-wide and keyed by
#: (program content digest, function name).  Kernels close over instruction
#: operands and interned abstract constants only — everything program- or
#: run-specific (memory resolution, access recording) is reached through the
#: analysis instance passed at call time — so two ValueAnalysis instances
#: over byte-identical code (different call contexts, different modes, the
#: summary-cache replay path) reuse one compilation.  Each entry is a
#: ``(kernels, run_counts)`` pair: a block is first interpreted through the
#: per-instruction appliers and only compiled into a fused kernel once its
#: program-wide run count crosses ``_KERNEL_JIT_THRESHOLD`` — CPython's
#: ``compile()`` costs ~15µs per generated line, so eagerly compiling blocks
#: that run two or three times is a net loss on one-shot analyses, while hot
#: loop bodies and repeatedly-analysed functions amortise it many times over.
#: The cache is least-recently-used: a use moves an entry to the newest end
#: (dicts keep insertion order) and a full cache evicts the oldest entry.
#: The limit holds the paper pass's 33 entries and the server's warm set many
#: times over, while a stream of novel programs (sweeps, fuzzing, the
#: server's one-off requests) cannot grow it past a few megabytes.
_KERNEL_CACHE: Dict[Tuple[str, str], Tuple[Dict[int, object], Dict[int, int]]] = {}
_KERNEL_CACHE_LIMIT = 256
_KERNEL_CACHE_LOCK = threading.Lock()
_KERNEL_JIT_THRESHOLD = 8

_M_COMPILES = obs_metrics.REGISTRY.counter(
    "repro_kernel_jit_compiles_total",
    "Basic blocks compiled into fused value-analysis kernels.",
)
_M_INTERPRETED = obs_metrics.REGISTRY.counter(
    "repro_kernel_interpreted_blocks_total",
    "Tiered-execution block runs served by the interpreter.",
)

#: Generated-source -> code-object cache.  Blocks with identical instruction
#: shapes (constants are bound by positional name, so only the shape matters)
#: compile once per process; each use still gets its own exec() with its own
#: constant environment.
_CODE_CACHE: Dict[str, object] = {}
_CODE_CACHE_LIMIT = 16384

#: Safety limit on one function's fixpoint iterations.
_MAX_FIXPOINT_ITERATIONS = 50_000


class ValueAnalysis:
    """Abstract interpretation of one function.

    At entry, read-only data objects hold their initial values; mutable
    globals are unknown, since an earlier activation may have written them.

    Parameters
    ----------
    program:
        The laid-out program (for symbol addresses and data objects).
    cfg:
        The function's control-flow graph.
    loops:
        The function's decoded loop forest (its headers are the widening
        points).
    initial_registers:
        Abstract values of registers at function entry (e.g. argument ranges
        supplied by an annotation); unspecified registers start as top.
    """

    def __init__(
        self,
        program: Program,
        cfg: ControlFlowGraph,
        loops: LoopForest,
        initial_registers: Optional[Dict[str, AbstractValue]] = None,
    ):
        program.ensure_layout()
        self.program = program
        self.cfg = cfg
        self.loops = loops
        self.initial_registers = dict(initial_registers or {})
        self._recording: Optional[Dict[int, AccessInfo]] = None
        # Per-instruction transfer closures, compiled on first use.  A block
        # is re-interpreted once per fixpoint visit (typically 10-30 times),
        # so resolving opcode dispatch, operand kinds and immediate abstract
        # values once per instruction instead of once per application pays for
        # itself many times over.
        self._appliers_by_block: Dict[int, list] = {}
        self._applier_by_address: Dict[int, object] = {}
        # One compiled kernel per hot basic block, memoised on the function's
        # content digest so repeated analyses (per-context runs, modes, cache
        # replays) skip recompilation entirely.
        key = (program.content_digest(), cfg.function_name)
        with _KERNEL_CACHE_LOCK:
            entry = _KERNEL_CACHE.pop(key, None)
            if entry is None:
                if len(_KERNEL_CACHE) >= _KERNEL_CACHE_LIMIT:
                    del _KERNEL_CACHE[next(iter(_KERNEL_CACHE))]
                entry = ({}, {})
            _KERNEL_CACHE[key] = entry
        self._kernels, self._kernel_runs = entry

    # ------------------------------------------------------------------ #
    # Entry state
    # ------------------------------------------------------------------ #
    def entry_state(self) -> AbstractState:
        state = AbstractState()
        state.set("r29", AbstractValue.address(STACK_BASE, Interval.const(0)))
        state.set("r30", AbstractValue.address(STACK_BASE, Interval.const(0)))
        for register, value in self.initial_registers.items():
            state.set(register, value)
        memory = state.memory
        for obj in self.program.data_objects.values():
            if obj.readonly:
                for index, word in enumerate(obj.initial):
                    memory.store_strong(obj.name, index * WORD_SIZE, AbstractValue.const(word))
        return state

    # ------------------------------------------------------------------ #
    def run(self) -> ValueAnalysisResult:
        solver = ForwardSolver(
            cfg=self.cfg,
            transfer=self._transfer,
            join=lambda a, b: a.join(b),
            widen=lambda a, b: a.widen(b),
            includes=lambda old, new: old.includes(new),
            wto=compute_wto(self.cfg, self.loops),
            max_iterations=_MAX_FIXPOINT_ITERATIONS,
        )
        fixpoint = solver.solve(self.entry_state())

        result = ValueAnalysisResult(function_name=self.cfg.function_name)
        result.block_in = fixpoint.block_in
        result.edge_out = fixpoint.edge_out
        result.iterations = fixpoint.iterations

        # Final recording pass: replay each block on its converged entry state
        # to collect the abstract addresses of all memory accesses.  Only the
        # instruction effects matter here — edge propagation (branch
        # refinement, per-successor copies) is skipped.
        self._recording = result.accesses
        for block_id, in_state in fixpoint.block_in.items():
            if in_state.reachable:
                self._run_block(block_id, in_state.copy())
        self._recording = None

        # Blocks never reached get explicit unreachable entry states.
        for block_id in self.cfg.node_ids():
            result.block_in.setdefault(block_id, AbstractState.unreachable())
        return result

    # ------------------------------------------------------------------ #
    # Replay (used by the analyzer to inspect states at call sites)
    # ------------------------------------------------------------------ #
    def state_before(
        self, result: ValueAnalysisResult, block_id: int, address: int
    ) -> AbstractState:
        """Abstract state immediately before the instruction at ``address``.

        The block's converged entry state is replayed instruction by
        instruction up to (but excluding) ``address`` — the WCET analyzer uses
        this to read argument register values at call sites for context-
        sensitive callee analysis.
        """
        state = result.state_at_block_entry(block_id).copy()
        if not state.reachable:
            return state
        for instr in self.cfg.block(block_id).instructions:
            if instr.address == address:
                break
            state = self._apply_instruction(instr, state)
        return state

    # ------------------------------------------------------------------ #
    # Block transfer
    # ------------------------------------------------------------------ #
    def _transfer(self, block_id: int, in_state: AbstractState) -> Dict[int, AbstractState]:
        state = in_state.copy()
        if not state.reachable:
            return {succ: AbstractState.unreachable() for succ in self.cfg.successors(block_id)}

        state = self._run_block(block_id, state)

        return self._propagate(self.cfg.block(block_id), state)

    def _run_block(self, block_id: int, state: AbstractState) -> AbstractState:
        """Apply every instruction effect of one block to ``state``."""
        kernel = self._kernels.get(block_id)
        if kernel is None:
            # Tiered execution: interpret through the appliers until the
            # block's program-wide run count (shared across analysis
            # instances via the kernel cache) shows the compile will pay off.
            # Both paths are value-identical, so the switch point is purely a
            # performance decision.
            runs = self._kernel_runs
            count = runs.get(block_id, 0) + 1
            if count < _KERNEL_JIT_THRESHOLD:
                runs[block_id] = count
                _M_INTERPRETED.inc()
                for apply_instruction in self._appliers(block_id):
                    state = apply_instruction(state)
                return state
            kernel = _compile_block_kernel(
                self.cfg.block(block_id), self.cfg.function_name
            )
            self._kernels[block_id] = kernel
            _M_COMPILES.inc()
        return kernel(self, state)

    def _appliers(self, block_id: int) -> list:
        appliers = self._appliers_by_block.get(block_id)
        if appliers is None:
            instructions = self.cfg.block(block_id).instructions
            appliers = [self._compile_instruction(instr) for instr in instructions]
            self._appliers_by_block[block_id] = appliers
            for instr, applier in zip(instructions, appliers):
                self._applier_by_address[instr.address] = applier
        return appliers

    # ------------------------------------------------------------------ #
    def _abstract_getter(self, operand):
        """Compile one operand into a ``state -> AbstractValue`` accessor."""
        if isinstance(operand, Reg):
            name = operand.name
            return lambda state: state.get(name)
        if isinstance(operand, Imm):
            if isinstance(operand.value, float):
                constant = AbstractValue.float_value()
            else:
                constant = AbstractValue.const(int(operand.value))
            return lambda state: constant
        if isinstance(operand, Sym):
            constant = AbstractValue.address(operand.name, Interval.const(0))
            return lambda state: constant
        raise AnalysisError(f"unexpected operand {operand!r} in value analysis")

    @staticmethod
    def _fact_operand(operand) -> Tuple[str, object]:
        if isinstance(operand, Reg):
            return ("reg", operand.name)
        if isinstance(operand, Imm) and isinstance(operand.value, int):
            return ("const", operand.value)
        return ("other", None)

    def _apply_instruction(self, instr: Instruction, state: AbstractState) -> AbstractState:
        applier = self._applier_by_address.get(instr.address)
        if applier is None:
            applier = self._compile_instruction(instr)
            self._applier_by_address[instr.address] = applier
        return applier(state)

    def _compile_instruction(self, instr: Instruction):
        """Compile one instruction into a ``state -> state`` transfer closure."""
        apply_unpredicated = self._compile_unpredicated(instr)
        if instr.pred is not None:
            # A predicated instruction may or may not take effect: the result
            # is the join of both outcomes.
            def apply_predicated(state: AbstractState) -> AbstractState:
                skipped = state.copy()
                taken = apply_unpredicated(state.copy())
                return skipped.join(taken)
            return apply_predicated
        return apply_unpredicated

    def _compile_unpredicated(self, instr: Instruction):
        op = instr.opcode
        if op in _NO_EFFECT_OPCODES:
            return _identity
        if op in (Opcode.CALL, Opcode.ICALL):
            return self._apply_call

        dest = instr.dest.name if instr.dest is not None else None

        if op is Opcode.MOV:
            get = self._abstract_getter(instr.operands[0])

            def apply_mov(state: AbstractState) -> AbstractState:
                state.set(dest, get(state))
                return state
            return apply_mov

        if op is Opcode.LA:
            constant = AbstractValue.address(instr.operands[0].name, Interval.const(0))

            def apply_la(state: AbstractState) -> AbstractState:
                state.set(dest, constant)
                return state
            return apply_la

        if op in _ARITH_HANDLERS:
            compute = _ARITH_HANDLERS[op]
            get_a = self._abstract_getter(instr.operands[0])
            get_b = self._abstract_getter(instr.operands[1])

            def apply_arith(state: AbstractState) -> AbstractState:
                state.set(dest, compute(get_a(state), get_b(state)))
                return state
            return apply_arith

        if op in (Opcode.NOT, Opcode.NEG):
            get = self._abstract_getter(instr.operands[0])
            negate = op is Opcode.NEG

            def apply_unary(state: AbstractState) -> AbstractState:
                interval = get(state).interval
                state.set(
                    dest,
                    AbstractValue(interval.neg() if negate else interval.bit_not()),
                )
                return state
            return apply_unary

        if op in _COMPARE_HANDLERS:
            compute = _COMPARE_HANDLERS[op]
            get_a = self._abstract_getter(instr.operands[0])
            get_b = self._abstract_getter(instr.operands[1])
            lhs = self._fact_operand(instr.operands[0])
            rhs = self._fact_operand(instr.operands[1])
            fact = None
            if lhs[0] != "other" and rhs[0] != "other":
                fact = PredicateFact(op, lhs, rhs)

            def apply_compare(state: AbstractState) -> AbstractState:
                a = get_a(state)
                b = get_b(state)
                state.set(dest, AbstractValue(compute(a, b)))
                if fact is not None and not (a.is_float or b.is_float):
                    state.set_fact(dest, fact)
                return state
            return apply_compare

        if op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FNEG, Opcode.ITOF):
            constant = AbstractValue.float_value()
        elif op is Opcode.FTOI:
            constant = AbstractValue.top()
        elif op in (Opcode.FSEQ, Opcode.FSNE, Opcode.FSLT, Opcode.FSLE):
            constant = AbstractValue(Interval(0, 1))
        else:
            constant = None
        if constant is not None:
            def apply_constant(state: AbstractState) -> AbstractState:
                state.set(dest, constant)
                return state
            return apply_constant

        if op in (Opcode.LOAD, Opcode.LOADB):
            get_pointer = self._abstract_getter(instr.operands[0])

            def apply_load(state: AbstractState) -> AbstractState:
                return self._apply_load(instr, get_pointer(state), state)
            return apply_load
        if op in (Opcode.STORE, Opcode.STOREB):
            get_value = self._abstract_getter(instr.operands[0])
            get_pointer = self._abstract_getter(instr.operands[1])

            def apply_store(state: AbstractState) -> AbstractState:
                return self._apply_store(
                    instr, get_value(state), get_pointer(state), state
                )
            return apply_store

        raise AnalysisError(f"value analysis: unhandled opcode {op.value!r}")

    # ------------------------------------------------------------------ #
    def _apply_call(self, state: AbstractState) -> AbstractState:
        state.havoc_registers(CALLER_SAVED_REGISTERS)
        # Callees may modify any global memory; only the caller's stack frame
        # slots (addressed relative to the incoming stack pointer) survive.
        state.memory.clobber_all(keep_bases={STACK_BASE})
        return state

    # ------------------------------------------------------------------ #
    def _resolve_access(
        self, pointer: AbstractValue, byte_offset: int
    ) -> Tuple[FrozenSet[str], Interval, Interval, bool]:
        """Return (bases, per-base offset interval, absolute interval, unknown)."""
        if byte_offset:
            offset = pointer.interval.add(Interval.const(byte_offset))
        else:
            offset = pointer.interval
        if pointer.bases:
            absolute = Interval.bottom()
            for base in pointer.bases:
                if base == STACK_BASE:
                    base_abs = _STACK_ABSOLUTE
                elif self.program.has_data(base):
                    base_abs = offset.add(Interval.const(self.program.data(base).address))
                elif self.program.has_function(base):
                    base_abs = offset.add(
                        Interval.const(self.program.function(base).entry_address)
                    )
                else:
                    base_abs = Interval.top()
                absolute = absolute.join(base_abs)
            return pointer.bases, offset, absolute, False
        if offset.is_constant:
            address = offset.constant_value
            obj = self.program.data_object_at(address) if address is not None else None
            if obj is not None:
                return (
                    frozenset({obj.name}),
                    Interval.const(address - obj.address),
                    offset,
                    False,
                )
            return frozenset(), offset, offset, False
        if offset.is_finite:
            return frozenset(), offset, offset, False
        return frozenset(), offset, Interval.top(), True

    def _record_access(
        self, instr: Instruction, bases, offset, absolute, unknown
    ) -> None:
        if self._recording is None:
            return
        self._recording[instr.address] = AccessInfo(
            instruction_address=instr.address,
            is_load=instr.is_load,
            size=WORD_SIZE if instr.opcode in (Opcode.LOAD, Opcode.STORE) else 1,
            bases=frozenset(bases),
            offset=offset,
            absolute=absolute,
            unknown=unknown,
        )

    def _apply_load(
        self, instr: Instruction, pointer: AbstractValue, state: AbstractState
    ) -> AbstractState:
        bases, offset, absolute, unknown = self._resolve_access(pointer, instr.offset)
        self._record_access(instr, bases, offset, absolute, unknown)
        value = AbstractValue.top()
        single = next(iter(bases)) if len(bases) == 1 else None
        if single is not None and offset.is_constant:
            value = state.memory.load(single, offset.constant_value)
        if instr.opcode is Opcode.LOADB:
            value = AbstractValue(value.interval.meet(Interval(0, 255)))
            if value.interval.is_bottom:
                value = AbstractValue(Interval(0, 255))
        state.set(instr.dest.name, value)
        return state

    def _apply_store(
        self,
        instr: Instruction,
        value: AbstractValue,
        pointer: AbstractValue,
        state: AbstractState,
    ) -> AbstractState:
        bases, offset, absolute, unknown = self._resolve_access(pointer, instr.offset)
        self._record_access(instr, bases, offset, absolute, unknown)
        if instr.opcode is Opcode.STOREB:
            # Byte stores only partially update a word cell; treat as weak.
            value = AbstractValue.top()
        if unknown or not bases:
            if offset.is_constant and bases:
                pass  # handled below
            elif unknown:
                # A write through a completely unknown pointer destroys all
                # knowledge about memory (Section 4.3, imprecise accesses).
                state.memory.clobber_all()
                return state
        if len(bases) == 1 and offset.is_constant:
            state.memory.store_strong(next(iter(bases)), offset.constant_value, value)
            return state
        if bases:
            for base in bases:
                state.memory.store_weak(base, value)
                if offset.is_constant:
                    continue
                # Unknown offset within the object: existing knowledge about
                # the object's cells can no longer be trusted to be precise,
                # but joining the stored value in keeps soundness.
            return state
        # No symbolic base but a finite numeric address range: weak-update any
        # data object the range may intersect.
        for obj in self.program.data_objects.values():
            object_range = Interval(obj.address, obj.address + obj.size - 1)
            if not absolute.meet(object_range).is_bottom:
                state.memory.store_weak(obj.name, value)
        return state

    # ------------------------------------------------------------------ #
    # Edge propagation with branch refinement
    # ------------------------------------------------------------------ #
    def _propagate(self, block: BasicBlock, state: AbstractState) -> Dict[int, AbstractState]:
        successors = self.cfg.successors(block.id)
        result: Dict[int, AbstractState] = {}
        last = block.last if block.instructions else None

        if last is None or not last.is_conditional_branch or len(successors) < 2:
            for successor in successors:
                result[successor] = state.copy() if len(successors) > 1 else state
            return result

        condition = last.operands[0]
        assert isinstance(condition, Reg)
        target_label = last.branch_target()
        taken_target = None
        fallthrough_target = None
        for edge in self.cfg.out_edges(block.id):
            if edge.kind.value == "taken":
                taken_target = edge.target
            else:
                fallthrough_target = edge.target

        cond_value = state.get(condition.name)
        branch_on_true = last.opcode is Opcode.BT

        taken_state = state.copy()
        fall_state = state.copy()

        # Constant conditions make one edge infeasible outright.
        if cond_value.is_constant and not cond_value.is_float:
            is_zero = cond_value.constant_value == 0
            taken_feasible = (not is_zero) if branch_on_true else is_zero
            if not taken_feasible:
                taken_state = AbstractState.unreachable()
            else:
                fall_state = AbstractState.unreachable()
        else:
            fact = state.facts.get(condition.name)
            if fact is not None:
                self._refine_with_fact(taken_state, fact, positive=branch_on_true)
                self._refine_with_fact(fall_state, fact, positive=not branch_on_true)
            # The condition register itself is non-zero on the "true" side and
            # zero on the "false" side (when its interval allows refinement).
            true_state = taken_state if branch_on_true else fall_state
            false_state = fall_state if branch_on_true else taken_state
            if true_state.reachable:
                refined = true_state.get(condition.name).interval.refine_ne(Interval.const(0))
                true_state.replace_value(
                    condition.name,
                    true_state.get(condition.name).with_interval(refined),
                )
            if false_state.reachable:
                refined = false_state.get(condition.name).interval.meet(Interval.const(0))
                if refined.is_bottom:
                    false_state.reachable = False
                else:
                    false_state.replace_value(
                        condition.name,
                        false_state.get(condition.name).with_interval(refined),
                    )

        if taken_target is not None:
            result[taken_target] = taken_state
        if fallthrough_target is not None:
            result[fallthrough_target] = fall_state
        for successor in successors:
            result.setdefault(successor, state.copy())
        return result

    def _refine_with_fact(
        self, state: AbstractState, fact: PredicateFact, positive: bool
    ) -> None:
        if not state.reachable:
            return

        def value_of(operand) -> Interval:
            kind, payload = operand
            if kind == "reg":
                return state.get(payload).interval
            if kind == "const":
                return Interval.const(payload)
            return Interval.top()

        def set_value(operand, interval: Interval) -> None:
            kind, payload = operand
            if kind != "reg":
                return
            if interval.is_bottom:
                state.reachable = False
                return
            state.replace_value(payload, state.get(payload).with_interval(interval))

        lhs = value_of(fact.lhs)
        rhs = value_of(fact.rhs)
        relation = fact.relation

        # Reduce every relation to one of lt / le / eq / ne between lhs and rhs
        # under the branch polarity.
        swapped = {
            Opcode.SGT: Opcode.SLT,
            Opcode.SGE: Opcode.SLE,
        }
        lhs_op, rhs_op = fact.lhs, fact.rhs
        if relation in swapped:
            relation = swapped[relation]
            lhs, rhs = rhs, lhs
            lhs_op, rhs_op = rhs_op, lhs_op
        if relation is Opcode.SGEU:
            # a >=u b  <=>  not (a <u b)
            relation = Opcode.SLTU
            positive = not positive

        unsigned = relation is Opcode.SLTU
        if unsigned:
            if not (lhs.is_nonnegative() and rhs.is_nonnegative()):
                return
            relation = Opcode.SLT

        if relation is Opcode.SLT:
            if positive:
                set_value(lhs_op, lhs.refine_lt(rhs))
                set_value(rhs_op, value_of(rhs_op).refine_gt(lhs))
            else:
                set_value(lhs_op, lhs.refine_ge(rhs))
                set_value(rhs_op, value_of(rhs_op).refine_le(lhs))
        elif relation is Opcode.SLE:
            if positive:
                set_value(lhs_op, lhs.refine_le(rhs))
                set_value(rhs_op, value_of(rhs_op).refine_ge(lhs))
            else:
                set_value(lhs_op, lhs.refine_gt(rhs))
                set_value(rhs_op, value_of(rhs_op).refine_lt(lhs))
        elif relation is Opcode.SEQ:
            if positive:
                meet = lhs.meet(rhs)
                set_value(lhs_op, meet)
                set_value(rhs_op, meet)
            else:
                set_value(lhs_op, lhs.refine_ne(rhs))
                set_value(rhs_op, rhs.refine_ne(lhs))
        elif relation is Opcode.SNE:
            if positive:
                set_value(lhs_op, lhs.refine_ne(rhs))
                set_value(rhs_op, rhs.refine_ne(lhs))
            else:
                meet = lhs.meet(rhs)
                set_value(lhs_op, meet)
                set_value(rhs_op, meet)


def _unsigned_ok(a: AbstractValue, b: AbstractValue) -> bool:
    return a.interval.is_nonnegative() and b.interval.is_nonnegative()


#: Absolute address interval of the stack region (shared constant).
_STACK_ABSOLUTE = Interval.range(STACK_TOP - STACK_SIZE, STACK_TOP)

#: Opcodes with no effect on the abstract state (control flow is handled by
#: edge propagation, not by the instruction transfer).
_NO_EFFECT_OPCODES = frozenset(
    {Opcode.NOP, Opcode.HALT, Opcode.RET, Opcode.BR, Opcode.IBR, Opcode.BT, Opcode.BF}
)


def _identity(state: AbstractState) -> AbstractState:
    return state


_ARITH_HANDLERS = {
    Opcode.ADD: lambda a, b: a.add(b),
    Opcode.SUB: lambda a, b: a.sub(b),
    Opcode.MUL: lambda a, b: AbstractValue(a.interval.mul(b.interval)),
    Opcode.DIVS: lambda a, b: AbstractValue(a.interval.divide(b.interval)),
    Opcode.DIVU: lambda a, b: AbstractValue(
        a.interval.divide(b.interval) if _unsigned_ok(a, b) else Interval.top()
    ),
    Opcode.REMS: lambda a, b: AbstractValue(a.interval.remainder(b.interval)),
    Opcode.REMU: lambda a, b: AbstractValue(
        a.interval.remainder(b.interval) if _unsigned_ok(a, b) else Interval.top()
    ),
    Opcode.AND: lambda a, b: AbstractValue(a.interval.bit_and(b.interval)),
    Opcode.OR: lambda a, b: AbstractValue(a.interval.bit_or(b.interval)),
    Opcode.XOR: lambda a, b: AbstractValue(a.interval.bit_xor(b.interval)),
    Opcode.SHL: lambda a, b: AbstractValue(a.interval.shift_left(b.interval)),
    Opcode.SHR: lambda a, b: AbstractValue(a.interval.shift_right_logical(b.interval)),
    Opcode.SRA: lambda a, b: AbstractValue(a.interval.shift_right_arith(b.interval)),
}

_COMPARE_HANDLERS = {
    Opcode.SEQ: lambda a, b: a.interval.compare_eq(b.interval),
    Opcode.SNE: lambda a, b: _negate_bool(a.interval.compare_eq(b.interval)),
    Opcode.SLT: lambda a, b: a.interval.compare_lt(b.interval),
    Opcode.SLE: lambda a, b: a.interval.compare_le(b.interval),
    Opcode.SGT: lambda a, b: b.interval.compare_lt(a.interval),
    Opcode.SGE: lambda a, b: b.interval.compare_le(a.interval),
    Opcode.SLTU: lambda a, b: (
        a.interval.compare_lt(b.interval) if _unsigned_ok(a, b) else Interval(0, 1)
    ),
    Opcode.SGEU: lambda a, b: (
        b.interval.compare_le(a.interval) if _unsigned_ok(a, b) else Interval(0, 1)
    ),
}


def _negate_bool(interval: Interval) -> Interval:
    if interval.is_constant:
        return Interval.const(1 - interval.constant_value)
    return Interval(0, 1)


# --------------------------------------------------------------------------- #
# Per-basic-block transfer kernel compiler
# --------------------------------------------------------------------------- #
#
# A cold block is interpreted through one closure per instruction, paying for
# a call, a ``state.get``/``state.set`` pair and a copy-on-write ownership
# check per register write.  Once the block is hot (see ``_run_block``) it is
# compiled into a single Python function that takes ownership of the register
# and fact dicts once, then applies every instruction effect with direct dict
# operations.  The generated code mirrors ``_compile_unpredicated`` operation
# for operation — the same lattice calls in the same order on the same
# interned constants — so the resulting states are bit-identical to the
# appliers; tests/test_fused_engine.py enforces this across the fuzz presets.

_TOP = AbstractValue.top()


def _kill_facts(facts: Dict[str, PredicateFact], register: str) -> None:
    """The fact invalidation of ``AbstractState.set``, on an owned fact dict."""
    facts.pop(register, None)
    for holder in list(facts):
        if facts[holder].mentions_register(register):
            del facts[holder]


def _identity_kernel(analysis: "ValueAnalysis", state: AbstractState) -> AbstractState:
    return state


class _KernelBuilder:
    """Accumulates generated source lines plus their closed-over constants.

    The generated function has the shape::

        def _kernel(A, state):        # A = the calling ValueAnalysis
            state._own_registers()    # one COW materialisation per block
            state._own_facts()
            regs = state._registers
            facts = state._facts
            ...straight-line instruction effects...
            return state

    Register reads/writes go straight to ``regs``; memory and call effects go
    through ``A`` so kernels stay reusable across analysis instances.
    """

    def __init__(self):
        self.lines: List[str] = []
        self.env: Dict[str, object] = {
            "AV": AbstractValue,
            "_TOP": _TOP,
            "KF": _kill_facts,
        }
        self._serial = 0

    def bind(self, prefix: str, value) -> str:
        self._serial += 1
        name = f"{prefix}{self._serial}"
        self.env[name] = value
        return name

    # ------------------------------------------------------------------ #
    def operand(self, operand) -> str:
        """Expression yielding the operand's AbstractValue (cf. _abstract_getter)."""
        if isinstance(operand, Reg):
            return f"regs.get({operand.name!r}, _TOP)"
        if isinstance(operand, Imm):
            if isinstance(operand.value, float):
                constant = AbstractValue.float_value()
            else:
                constant = AbstractValue.const(int(operand.value))
            return self.bind("c", constant)
        if isinstance(operand, Sym):
            return self.bind("c", AbstractValue.address(operand.name, Interval.const(0)))
        raise AnalysisError(f"unexpected operand {operand!r} in value analysis")

    def set_register(self, dest: str, expression: str) -> None:
        """Inline ``state.set``: direct write plus fact invalidation."""
        self.lines.append(f"    regs[{dest!r}] = {expression}")
        self.lines.append(f"    if facts: KF(facts, {dest!r})")

    # ------------------------------------------------------------------ #
    def emit(self, instr: Instruction) -> None:
        op = instr.opcode
        if op in _NO_EFFECT_OPCODES:
            return
        if instr.pred is not None:
            # Predicated effect: the join of the skipped and taken outcomes,
            # exactly as the reference wrapper in _compile_instruction.  The
            # join produces a fresh state, so re-own and rebind the locals.
            sub = self.bind("q", _compile_single_kernel(instr))
            self.lines.append("    _skipped = state.copy()")
            self.lines.append(f"    _taken = {sub}(A, state.copy())")
            self.lines.append("    state = _skipped.join(_taken)")
            self.lines.append("    state._own_registers()")
            self.lines.append("    state._own_facts()")
            self.lines.append("    regs = state._registers")
            self.lines.append("    facts = state._facts")
            return
        self.emit_unpredicated(instr)

    def emit_unpredicated(self, instr: Instruction) -> None:
        op = instr.opcode
        if op in (Opcode.CALL, Opcode.ICALL):
            self.lines.append("    A._apply_call(state)")
            return

        dest = instr.dest.name if instr.dest is not None else None

        if op is Opcode.MOV:
            self.set_register(dest, self.operand(instr.operands[0]))
            return
        if op is Opcode.LA:
            constant = AbstractValue.address(instr.operands[0].name, Interval.const(0))
            self.set_register(dest, self.bind("c", constant))
            return
        if op in _ARITH_HANDLERS:
            handler = self.bind("h", _ARITH_HANDLERS[op])
            a = self.operand(instr.operands[0])
            b = self.operand(instr.operands[1])
            self.set_register(dest, f"{handler}({a}, {b})")
            return
        if op in (Opcode.NOT, Opcode.NEG):
            method = "neg" if op is Opcode.NEG else "bit_not"
            a = self.operand(instr.operands[0])
            self.set_register(dest, f"AV(({a}).interval.{method}())")
            return
        if op in _COMPARE_HANDLERS:
            handler = self.bind("h", _COMPARE_HANDLERS[op])
            self.lines.append(f"    _a = {self.operand(instr.operands[0])}")
            self.lines.append(f"    _b = {self.operand(instr.operands[1])}")
            self.set_register(dest, f"AV({handler}(_a, _b))")
            lhs = ValueAnalysis._fact_operand(instr.operands[0])
            rhs = ValueAnalysis._fact_operand(instr.operands[1])
            if lhs[0] != "other" and rhs[0] != "other":
                fact = self.bind("f", PredicateFact(op, lhs, rhs))
                self.lines.append("    if not (_a.is_float or _b.is_float):")
                self.lines.append(f"        facts[{dest!r}] = {fact}")
            return

        if op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FNEG, Opcode.ITOF):
            constant = AbstractValue.float_value()
        elif op is Opcode.FTOI:
            constant = AbstractValue.top()
        elif op in (Opcode.FSEQ, Opcode.FSNE, Opcode.FSLT, Opcode.FSLE):
            constant = AbstractValue(Interval(0, 1))
        else:
            constant = None
        if constant is not None:
            self.set_register(dest, self.bind("c", constant))
            return

        if op in (Opcode.LOAD, Opcode.LOADB):
            pointer = self.operand(instr.operands[0])
            name = self.bind("i", instr)
            self.lines.append(f"    A._apply_load({name}, {pointer}, state)")
            return
        if op in (Opcode.STORE, Opcode.STOREB):
            value = self.operand(instr.operands[0])
            pointer = self.operand(instr.operands[1])
            name = self.bind("i", instr)
            self.lines.append(f"    A._apply_store({name}, {value}, {pointer}, state)")
            return

        raise AnalysisError(f"value analysis: unhandled opcode {op.value!r}")

    # ------------------------------------------------------------------ #
    def build(self):
        if not self.lines:
            return _identity_kernel
        header = [
            "def _kernel(A, state):",
            "    state._own_registers()",
            "    state._own_facts()",
            "    regs = state._registers",
            "    facts = state._facts",
        ]
        source = "\n".join(header + self.lines + ["    return state"]) + "\n"
        # Constants are referenced by positional binding names, so the source
        # text of a block depends only on its instruction shape — blocks with
        # identical shapes (extremely common across generated programs and
        # unrolled code) share one code object and differ only in the
        # environment handed to exec().
        code = _CODE_CACHE.get(source)
        if code is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
                _CODE_CACHE.clear()
            code = compile(source, "<fused-kernel>", "exec")
            _CODE_CACHE[source] = code
        namespace: Dict[str, object] = {}
        exec(code, self.env, namespace)
        return namespace["_kernel"]


def _compile_block_kernel(block: BasicBlock, function_name: str):
    """Compile one basic block into a fused ``(analysis, state) -> state`` kernel."""
    builder = _KernelBuilder()
    for instr in block.instructions:
        builder.emit(instr)
    return builder.build()


def _compile_single_kernel(instr: Instruction):
    """Kernel for one unpredicated instruction (the predicated 'taken' leg)."""
    builder = _KernelBuilder()
    builder.emit_unpredicated(instr)
    return builder.build()
