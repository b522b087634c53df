"""Concrete interpreter for IR programs.

The interpreter plays two roles in the reproduction:

1. It is the *measurement-based* counterpart to the static WCET analyzer: the
   execution trace it produces can be replayed through the concrete cache and
   pipeline simulators of :mod:`repro.hardware` to obtain an observed execution
   time, which by the soundness invariant must never exceed the static bound.
2. It validates the mini-C code generator and the workload programs
   (functional correctness, loop iteration counts, ...).

Semantics
---------

* Registers hold either 32-bit two's-complement integers or Python floats
  (the opcode decides the interpretation; ``itof``/``ftoi`` convert).
* Memory is a flat 32-bit byte-addressable space backed by a sparse word map.
* Integer division truncates towards zero (C semantics) and traps on zero.
* A predicated instruction whose predicate register is zero performs no
  architectural effect, but is still recorded in the trace as fetched — this is
  exactly the cost model under which the paper criticises the single-path
  paradigm.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ExecutionError
from repro.ir.instructions import (
    ARGUMENT_REGISTERS,
    INSTRUCTION_SIZE,
    NUM_REGISTERS,
    RETURN_VALUE_REGISTER,
    Imm,
    Instruction,
    Opcode,
    Reg,
    Sym,
)
from repro.ir.program import Program, STACK_TOP, WORD_SIZE

MASK32 = 0xFFFF_FFFF
SIGN_BIT = 0x8000_0000

Number = Union[int, float]


def to_signed(value: int) -> int:
    """Interpret a 32-bit pattern as a signed integer."""
    value &= MASK32
    return value - 0x1_0000_0000 if value & SIGN_BIT else value


def to_unsigned(value: int) -> int:
    """Interpret a (possibly negative) integer as its 32-bit unsigned pattern."""
    return value & MASK32


def wrap32(value: int) -> int:
    """Wrap an integer to signed 32-bit two's complement."""
    return to_signed(value & MASK32)


@dataclass
class MemoryAccess:
    """One data memory access performed during execution."""

    address: int
    size: int
    is_load: bool
    instruction_address: int


@dataclass
class ExecutionTrace:
    """Complete record of one program execution.

    ``instruction_addresses`` is the sequence of fetched instruction addresses
    (the program path); ``memory_accesses`` the data accesses in program order.
    Both are consumed by the concrete cache/pipeline simulators.
    """

    instruction_addresses: List[int] = field(default_factory=list)
    memory_accesses: List[MemoryAccess] = field(default_factory=list)
    block_counts: Dict[int, int] = field(default_factory=dict)
    call_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def length(self) -> int:
        return len(self.instruction_addresses)


@dataclass
class ExecutionResult:
    """Outcome of :meth:`Interpreter.run`."""

    return_value: int
    steps: int
    halted: bool
    registers: Dict[str, Number]
    trace: ExecutionTrace
    function_name: str


class MachineState:
    """Registers + memory of the abstract machine."""

    def __init__(self) -> None:
        self.registers: Dict[str, Number] = {f"r{i}": 0 for i in range(NUM_REGISTERS)}
        # Sparse word-addressed memory: word-aligned address -> value.
        self._memory: Dict[int, Number] = {}

    # ------------------------------------------------------------------ #
    def get_register(self, name: str) -> Number:
        return self.registers[name]

    def set_register(self, name: str, value: Number) -> None:
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, int):
            value = wrap32(value)
        self.registers[name] = value

    # ------------------------------------------------------------------ #
    def load_word(self, address: int) -> Number:
        if address % WORD_SIZE:
            raise ExecutionError(f"unaligned word load at {address:#x}")
        return self._memory.get(address, 0)

    def store_word(self, address: int, value: Number) -> None:
        if address % WORD_SIZE:
            raise ExecutionError(f"unaligned word store at {address:#x}")
        if isinstance(value, int):
            value = wrap32(value)
        self._memory[address] = value

    def load_byte(self, address: int) -> int:
        base = address - (address % WORD_SIZE)
        word = self._memory.get(base, 0)
        if isinstance(word, float):
            raise ExecutionError(f"byte load from float-typed word at {address:#x}")
        shift = 8 * (address % WORD_SIZE)
        return (to_unsigned(word) >> shift) & 0xFF

    def store_byte(self, address: int, value: int) -> None:
        base = address - (address % WORD_SIZE)
        word = self._memory.get(base, 0)
        if isinstance(word, float):
            word = 0
        shift = 8 * (address % WORD_SIZE)
        mask = 0xFF << shift
        new = (to_unsigned(word) & ~mask) | ((value & 0xFF) << shift)
        self._memory[base] = to_signed(new)


@dataclass
class _Frame:
    return_address: int
    function_name: str


class Interpreter:
    """Executes a laid-out :class:`~repro.ir.program.Program`.

    Each instruction is *decoded on its first execution*: it is compiled into
    a small Python closure that performs exactly its architectural effect and
    returns the control transfer (if any), and the closure is kept for every
    later execution.  The main loop is then one dict lookup plus one call per
    executed instruction — no per-step opcode dispatch, operand
    classification or label resolution — and code that never runs is never
    decoded (over three input vectors, more than half of a generated
    program).  Constructing one
    interpreter and calling :meth:`run` many times (as the differential
    oracle does per input vector) decodes each executed instruction once.

    Parameters
    ----------
    program:
        The program to execute; it is laid out and validated if necessary.
    max_steps:
        Execution is aborted with :class:`ExecutionError` after this many
        instructions — a safety net for diverging workloads under test.
    """

    def __init__(self, program: Program, max_steps: int = 2_000_000):
        program.validate()
        self.program = program
        self.max_steps = max_steps
        #: address -> (predicate register name or None, step closure), filled
        #: in as instructions first execute.
        self._decoded: Dict[int, tuple] = {}
        #: function name -> label addresses, resolved on the first decode in
        #: that function.
        self._labels: Dict[str, Dict[str, int]] = {}

    def _decode(self, pc: int) -> tuple:
        """Compile the instruction at ``pc`` and remember it.

        An address outside every function raises the :class:`IRError` of
        :meth:`~repro.ir.program.Program.function_at`.
        """
        function = self.program.function_at(pc)
        instr = function.instruction_at(pc)
        labels = self._labels.get(function.name)
        if labels is None:
            labels = self._labels[function.name] = function.label_addresses()
        entry = (
            instr.pred.name if instr.pred is not None else None,
            self._compile(instr, function, labels),
        )
        self._decoded[pc] = entry
        return entry

    # ------------------------------------------------------------------ #
    def run(
        self,
        function_name: Optional[str] = None,
        args: Sequence[Number] = (),
        initial_memory: Optional[Dict[int, Number]] = None,
        initial_data: Optional[Dict[str, Sequence[Number]]] = None,
    ) -> ExecutionResult:
        """Execute ``function_name`` (default: the program entry) to completion.

        ``args`` are placed in the argument registers r3..r10.
        ``initial_memory`` maps absolute word addresses to initial values;
        ``initial_data`` maps data-object names to sequences of word values,
        a convenient way to set up input buffers per run.
        """
        name = function_name or self.program.entry
        function = self.program.function(name)
        if len(args) > len(ARGUMENT_REGISTERS):
            raise ExecutionError(
                f"at most {len(ARGUMENT_REGISTERS)} register arguments supported"
            )

        state = MachineState()
        state.set_register("r29", STACK_TOP)  # sp
        state.set_register("r30", STACK_TOP)  # fp
        for register, value in zip(ARGUMENT_REGISTERS, args):
            state.set_register(register, value)

        # Initialise static data.
        for obj in self.program.data_objects.values():
            for index, value in enumerate(obj.initial):
                state.store_word(obj.address + index * WORD_SIZE, value)
        if initial_data:
            for obj_name, values in initial_data.items():
                obj = self.program.data(obj_name)
                for index, value in enumerate(values):
                    if index * WORD_SIZE >= obj.size:
                        raise ExecutionError(
                            f"initial data for {obj_name!r} exceeds its size"
                        )
                    state.store_word(obj.address + index * WORD_SIZE, value)
        if initial_memory:
            for address, value in initial_memory.items():
                state.store_word(address, value)

        trace = ExecutionTrace()
        trace.call_counts[name] = 1
        frames: List[_Frame] = []
        pc = function.entry_address
        steps = 0
        halted = False

        # Local bindings for the hot loop.
        decoded = self._decoded
        decode = self._decode
        max_steps = self.max_steps
        record = trace.instruction_addresses.append
        registers = state.registers
        to_int = self._int

        while True:
            if steps >= max_steps:
                raise ExecutionError(
                    f"execution exceeded {self.max_steps} steps (diverging program?)"
                )
            entry = decoded.get(pc)
            if entry is None:
                entry = decode(pc)
            steps += 1
            # The trace records every fetched pc, predicated-off ones
            # included, so the block counts are taken from it after the run.
            record(pc)

            pred_name, step = entry
            if pred_name is not None and to_int(registers[pred_name]) == 0:
                pc += INSTRUCTION_SIZE
                continue
            control = step(state, trace, frames)
            if control is None:
                pc += INSTRUCTION_SIZE
            elif control is _HALT:
                halted = True
                break
            elif control is _RETURN:
                if not frames:
                    break
                pc = frames.pop().return_address
            else:
                pc = control

        trace.block_counts = Counter(trace.instruction_addresses)
        return ExecutionResult(
            return_value=self._int(state.get_register(RETURN_VALUE_REGISTER)),
            steps=steps,
            halted=halted,
            registers=dict(state.registers),
            trace=trace,
            function_name=name,
        )

    # ------------------------------------------------------------------ #
    # Instruction semantics (decode-time compilation)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _int(value: Number) -> int:
        if isinstance(value, float):
            return wrap32(int(value))
        return value

    def _getter(self, operand):
        """Compile one operand into a ``state -> value`` accessor."""
        if isinstance(operand, Reg):
            name = operand.name
            return lambda state: state.registers[name]
        if isinstance(operand, Imm):
            value = operand.value
            return lambda state: value
        if isinstance(operand, Sym):
            address = self.program.symbol_address(operand.name)
            return lambda state: address
        raise ExecutionError(f"cannot evaluate operand {operand!r}")

    def _compile(self, instr: Instruction, function, labels: Dict[str, int]):
        """Compile one instruction into a ``(state, trace, frames)`` closure.

        The closure performs the architectural effect (predication has
        already been decided by the caller) and returns the control transfer:
        ``None`` to fall through, a target address, or the ``_HALT`` /
        ``_RETURN`` sentinels.
        """
        op = instr.opcode
        program = self.program
        to_int = self._int

        if op is Opcode.NOP:
            return lambda state, trace, frames: None
        if op is Opcode.HALT:
            return lambda state, trace, frames: _HALT
        if op is Opcode.RET:
            return lambda state, trace, frames: _RETURN

        if op is Opcode.MOV:
            dest = instr.dest.name
            source = instr.operands[0]
            if isinstance(source, Reg):
                name = source.name

                def step(state, trace, frames):
                    registers = state.registers
                    value = registers[name]
                    # Only ``la`` of an address at or above 2**31 leaves a
                    # register value outside the signed 32-bit range.
                    if value.__class__ is int and not -SIGN_BIT <= value < SIGN_BIT:
                        value = wrap32(value)
                    registers[dest] = value
                    return None
                return step
            # An immediate or a symbol address is a constant: store it in the
            # form set_register gives it.
            constant = self._getter(source)(None)
            if isinstance(constant, int):
                constant = wrap32(constant)

            def step(state, trace, frames):
                state.registers[dest] = constant
                return None
            return step

        if op is Opcode.LA:
            dest = instr.dest.name
            address = program.symbol_address(instr.operands[0].name)

            def step(state, trace, frames):
                state.registers[dest] = address
                return None
            return step

        if op in _INT_BINOPS:
            dest = instr.dest.name
            compute = _INT_BINOPS[op]
            first, second = instr.operands
            if isinstance(first, Reg) and isinstance(second, Reg):
                name_a, name_b = first.name, second.name

                def step(state, trace, frames):
                    registers = state.registers
                    registers[dest] = compute(
                        to_int(registers[name_a]), to_int(registers[name_b])
                    )
                    return None
                return step
            if isinstance(first, Reg) and isinstance(second, Imm):
                name_a = first.name
                value_b = to_int(second.value)

                def step(state, trace, frames):
                    registers = state.registers
                    registers[dest] = compute(to_int(registers[name_a]), value_b)
                    return None
                return step
            get_a = self._getter(first)
            get_b = self._getter(second)

            def step(state, trace, frames):
                state.registers[dest] = compute(
                    to_int(get_a(state)), to_int(get_b(state))
                )
                return None
            return step

        if op in (Opcode.NOT, Opcode.NEG):
            dest = instr.dest.name
            get = self._getter(instr.operands[0])
            negate = op is Opcode.NEG

            def step(state, trace, frames):
                value = to_int(get(state))
                state.registers[dest] = wrap32(-value if negate else ~value)
                return None
            return step

        if op in _FLOAT_BINOPS:
            dest = instr.dest.name
            compute = _FLOAT_BINOPS[op]
            get_a = self._getter(instr.operands[0])
            get_b = self._getter(instr.operands[1])

            def step(state, trace, frames):
                state.set_register(
                    dest, compute(float(get_a(state)), float(get_b(state)))
                )
                return None
            return step

        if op is Opcode.FNEG:
            dest = instr.dest.name
            get = self._getter(instr.operands[0])

            def step(state, trace, frames):
                state.registers[dest] = -float(get(state))
                return None
            return step

        if op is Opcode.ITOF:
            dest = instr.dest.name
            get = self._getter(instr.operands[0])

            def step(state, trace, frames):
                state.registers[dest] = float(to_int(get(state)))
                return None
            return step

        if op is Opcode.FTOI:
            dest = instr.dest.name
            get = self._getter(instr.operands[0])

            def step(state, trace, frames):
                state.registers[dest] = wrap32(int(float(get(state))))
                return None
            return step

        if op in (Opcode.LOAD, Opcode.LOADB):
            dest = instr.dest.name
            get_base = self._getter(instr.operands[0])
            offset = instr.offset
            pc = instr.address
            if op is Opcode.LOAD:
                def step(state, trace, frames):
                    address = to_unsigned(to_int(get_base(state)) + offset)
                    trace.memory_accesses.append(
                        MemoryAccess(address, WORD_SIZE, True, pc)
                    )
                    state.registers[dest] = state.load_word(address)
                    return None
            else:
                def step(state, trace, frames):
                    address = to_unsigned(to_int(get_base(state)) + offset)
                    trace.memory_accesses.append(MemoryAccess(address, 1, True, pc))
                    state.registers[dest] = state.load_byte(address)
                    return None
            return step

        if op in (Opcode.STORE, Opcode.STOREB):
            get_value = self._getter(instr.operands[0])
            get_base = self._getter(instr.operands[1])
            offset = instr.offset
            pc = instr.address
            is_word = op is Opcode.STORE
            size = WORD_SIZE if is_word else 1

            def step(state, trace, frames):
                value = get_value(state)
                address = to_unsigned(to_int(get_base(state)) + offset)
                obj = program.data_object_at(address)
                if obj is not None and obj.readonly:
                    raise ExecutionError(
                        f"store to read-only data object {obj.name!r} at {address:#x}"
                    )
                trace.memory_accesses.append(MemoryAccess(address, size, False, pc))
                if is_word:
                    state.store_word(address, value)
                else:
                    state.store_byte(address, to_int(value))
                return None
            return step

        if op in (Opcode.BR, Opcode.BT, Opcode.BF):
            label = instr.branch_target()
            if label is None:
                def step(state, trace, frames):
                    raise ExecutionError("branch without a label target")
                return step
            try:
                target = labels[label]
            except KeyError:
                message = (
                    f"undefined label {label!r} in function {function.name!r}"
                )

                def step(state, trace, frames):
                    raise ExecutionError(message)
                return step
            if op is Opcode.BR:
                return lambda state, trace, frames: target
            get_cond = self._getter(instr.operands[0])
            branch_if_true = op is Opcode.BT

            def step(state, trace, frames):
                taken = (to_int(get_cond(state)) != 0) == branch_if_true
                return target if taken else None
            return step

        if op is Opcode.IBR:
            get = self._getter(instr.operands[0])
            return lambda state, trace, frames: to_unsigned(to_int(get(state)))

        if op is Opcode.CALL:
            target_name = instr.call_target()
            entry = program.function(target_name).entry_address
            return_address = instr.address + INSTRUCTION_SIZE
            caller = function.name

            def step(state, trace, frames):
                frames.append(_Frame(return_address, caller))
                counts = trace.call_counts
                counts[target_name] = counts.get(target_name, 0) + 1
                if len(frames) > 4096:
                    raise ExecutionError("call stack overflow (runaway recursion?)")
                return entry
            return step

        if op is Opcode.ICALL:
            get = self._getter(instr.operands[0])
            return_address = instr.address + INSTRUCTION_SIZE
            caller = function.name

            def step(state, trace, frames):
                target = to_unsigned(to_int(get(state)))
                callee = program.function_by_entry(target)
                if callee is None:
                    raise ExecutionError(
                        f"indirect call to {target:#x}, which is not a function entry"
                    )
                frames.append(_Frame(return_address, caller))
                counts = trace.call_counts
                counts[callee.name] = counts.get(callee.name, 0) + 1
                if len(frames) > 4096:
                    raise ExecutionError("call stack overflow (runaway recursion?)")
                return callee.entry_address
            return step

        def step(state, trace, frames):
            raise ExecutionError(f"unimplemented opcode {op.value!r}")
        return step


# Sentinels used by _execute to signal control transfers.
_HALT = object()
_RETURN = object()


def _divide_trunc(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("integer division by zero")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return wrap32(quotient)


def _remainder_trunc(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("integer remainder by zero")
    return wrap32(a - _divide_trunc(a, b) * b)


def _divu(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("integer division by zero")
    return wrap32(to_unsigned(a) // to_unsigned(b))


def _remu(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("integer remainder by zero")
    return wrap32(to_unsigned(a) % to_unsigned(b))


_INT_BINOPS = {
    Opcode.ADD: lambda a, b: wrap32(a + b),
    Opcode.SUB: lambda a, b: wrap32(a - b),
    Opcode.MUL: lambda a, b: wrap32(a * b),
    Opcode.DIVS: _divide_trunc,
    Opcode.DIVU: _divu,
    Opcode.REMS: _remainder_trunc,
    Opcode.REMU: _remu,
    Opcode.AND: lambda a, b: wrap32(to_unsigned(a) & to_unsigned(b)),
    Opcode.OR: lambda a, b: wrap32(to_unsigned(a) | to_unsigned(b)),
    Opcode.XOR: lambda a, b: wrap32(to_unsigned(a) ^ to_unsigned(b)),
    Opcode.SHL: lambda a, b: wrap32(to_unsigned(a) << (to_unsigned(b) & 31)),
    Opcode.SHR: lambda a, b: wrap32(to_unsigned(a) >> (to_unsigned(b) & 31)),
    Opcode.SRA: lambda a, b: wrap32(a >> (to_unsigned(b) & 31)),
    Opcode.SEQ: lambda a, b: int(a == b),
    Opcode.SNE: lambda a, b: int(a != b),
    Opcode.SLT: lambda a, b: int(a < b),
    Opcode.SLE: lambda a, b: int(a <= b),
    Opcode.SGT: lambda a, b: int(a > b),
    Opcode.SGE: lambda a, b: int(a >= b),
    Opcode.SLTU: lambda a, b: int(to_unsigned(a) < to_unsigned(b)),
    Opcode.SGEU: lambda a, b: int(to_unsigned(a) >= to_unsigned(b)),
}

_FLOAT_BINOPS = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: a / b if b != 0.0 else float("inf") if a > 0 else float("-inf") if a < 0 else float("nan"),
    Opcode.FSEQ: lambda a, b: int(a == b),
    Opcode.FSNE: lambda a, b: int(a != b),
    Opcode.FSLT: lambda a, b: int(a < b),
    Opcode.FSLE: lambda a, b: int(a <= b),
}
