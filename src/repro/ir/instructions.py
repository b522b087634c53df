"""Instruction set of the repro IR.

The IR is a three-address, load/store register machine with:

* 32 general-purpose registers ``r0`` .. ``r31`` plus the conventional aliases
  ``sp`` (stack pointer, = r29), ``fp`` (frame pointer, = r30) and ``lr``
  (link register, = r31);
* 32-bit two's-complement integer arithmetic and IEEE-like floating-point
  operations (registers are untyped; the opcode decides the interpretation);
* explicit compare instructions producing 0/1 in a register;
* direct and *indirect* branches and calls (the latter model the function
  pointers discussed in Section 3.2 of the paper);
* optional per-instruction predication (``pred`` register) used by the
  single-path transformation study (Section 2 of the paper): a predicated
  instruction is always fetched and occupies the pipeline, but only commits its
  architectural effect when the predicate register is non-zero.

Every instruction occupies :data:`INSTRUCTION_SIZE` bytes; addresses are
assigned when a :class:`~repro.ir.program.Program` is laid out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

from repro.errors import IRError

#: Size in bytes of every encoded instruction (fixed-width RISC encoding).
INSTRUCTION_SIZE = 4

#: Number of general purpose registers.
NUM_REGISTERS = 32

#: Conventional register aliases (resolved to ``rN`` names).
REGISTER_ALIASES = {
    "sp": "r29",
    "fp": "r30",
    "lr": "r31",
}

#: Registers used to pass the first arguments of a call (codegen convention).
ARGUMENT_REGISTERS = ("r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10")

#: Register holding a function's return value.
RETURN_VALUE_REGISTER = "r3"

#: Caller-saved scratch registers.
CALLER_SAVED_REGISTERS = tuple(f"r{i}" for i in range(3, 14))


def canonical_register(name: str) -> str:
    """Return the canonical ``rN`` name for a register or alias.

    Raises :class:`IRError` if the name does not denote a register.
    """
    name = name.lower()
    name = REGISTER_ALIASES.get(name, name)
    if not name.startswith("r"):
        raise IRError(f"not a register name: {name!r}")
    try:
        index = int(name[1:])
    except ValueError as exc:
        raise IRError(f"not a register name: {name!r}") from exc
    if not 0 <= index < NUM_REGISTERS:
        raise IRError(f"register index out of range: {name!r}")
    return f"r{index}"


class OpClass(enum.Enum):
    """Coarse classification of opcodes used by the pipeline timing model."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    FPU = "fpu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    CALL = "call"
    RETURN = "return"
    SYSTEM = "system"


class Opcode(enum.Enum):
    """All opcodes of the repro IR."""

    # Data movement
    MOV = "mov"          # mov rd, src
    LA = "la"            # la rd, symbol      (load address of data object)

    # Integer ALU (rd, ra, rb|imm)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIVS = "divs"        # signed division (trapping on zero)
    DIVU = "divu"        # unsigned division
    REMS = "rems"
    REMU = "remu"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"          # logical shift right
    SRA = "sra"          # arithmetic shift right
    NOT = "not"          # rd, ra
    NEG = "neg"          # rd, ra

    # Integer comparisons (rd := ra OP rb ? 1 : 0); signed unless suffixed u
    SEQ = "seq"
    SNE = "sne"
    SLT = "slt"
    SLE = "sle"
    SGT = "sgt"
    SGE = "sge"
    SLTU = "sltu"
    SGEU = "sgeu"

    # Floating point (registers interpreted as floats)
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    ITOF = "itof"        # int -> float
    FTOI = "ftoi"        # float -> int (truncate)
    FSEQ = "fseq"
    FSNE = "fsne"
    FSLT = "fslt"
    FSLE = "fsle"

    # Memory (word = 4 bytes)
    LOAD = "load"        # load rd, [ra + off]
    STORE = "store"      # store rs, [ra + off]
    LOADB = "loadb"      # byte load (zero-extended)
    STOREB = "storeb"    # byte store

    # Control flow
    BR = "br"            # br label
    BT = "bt"            # bt rc, label   (branch if rc != 0)
    BF = "bf"            # bf rc, label   (branch if rc == 0)
    IBR = "ibr"          # ibr ra         (indirect branch, computed goto)
    CALL = "call"        # call fname
    ICALL = "icall"      # icall ra       (indirect call through register)
    RET = "ret"

    # System
    HALT = "halt"
    NOP = "nop"


#: Opcodes whose result interpretation is floating point.
FLOAT_OPCODES = frozenset(
    {
        Opcode.FADD,
        Opcode.FSUB,
        Opcode.FMUL,
        Opcode.FDIV,
        Opcode.FNEG,
        Opcode.ITOF,
        Opcode.FSEQ,
        Opcode.FSNE,
        Opcode.FSLT,
        Opcode.FSLE,
    }
)

#: Comparison opcodes (integer and float) — always produce 0 or 1.
COMPARE_OPCODES = frozenset(
    {
        Opcode.SEQ,
        Opcode.SNE,
        Opcode.SLT,
        Opcode.SLE,
        Opcode.SGT,
        Opcode.SGE,
        Opcode.SLTU,
        Opcode.SGEU,
        Opcode.FSEQ,
        Opcode.FSNE,
        Opcode.FSLT,
        Opcode.FSLE,
    }
)

#: Control transfer opcodes that terminate a basic block.
TERMINATOR_OPCODES = frozenset(
    {
        Opcode.BR,
        Opcode.BT,
        Opcode.BF,
        Opcode.IBR,
        Opcode.RET,
        Opcode.HALT,
    }
)

#: Conditional branches.
CONDITIONAL_BRANCHES = frozenset({Opcode.BT, Opcode.BF})


_OPCLASS_TABLE = {
    Opcode.MOV: OpClass.ALU,
    Opcode.LA: OpClass.ALU,
    Opcode.ADD: OpClass.ALU,
    Opcode.SUB: OpClass.ALU,
    Opcode.MUL: OpClass.MUL,
    Opcode.DIVS: OpClass.DIV,
    Opcode.DIVU: OpClass.DIV,
    Opcode.REMS: OpClass.DIV,
    Opcode.REMU: OpClass.DIV,
    Opcode.AND: OpClass.ALU,
    Opcode.OR: OpClass.ALU,
    Opcode.XOR: OpClass.ALU,
    Opcode.SHL: OpClass.ALU,
    Opcode.SHR: OpClass.ALU,
    Opcode.SRA: OpClass.ALU,
    Opcode.NOT: OpClass.ALU,
    Opcode.NEG: OpClass.ALU,
    Opcode.SEQ: OpClass.ALU,
    Opcode.SNE: OpClass.ALU,
    Opcode.SLT: OpClass.ALU,
    Opcode.SLE: OpClass.ALU,
    Opcode.SGT: OpClass.ALU,
    Opcode.SGE: OpClass.ALU,
    Opcode.SLTU: OpClass.ALU,
    Opcode.SGEU: OpClass.ALU,
    Opcode.FADD: OpClass.FPU,
    Opcode.FSUB: OpClass.FPU,
    Opcode.FMUL: OpClass.FPU,
    Opcode.FDIV: OpClass.FPU,
    Opcode.FNEG: OpClass.FPU,
    Opcode.ITOF: OpClass.FPU,
    Opcode.FTOI: OpClass.FPU,
    Opcode.FSEQ: OpClass.FPU,
    Opcode.FSNE: OpClass.FPU,
    Opcode.FSLT: OpClass.FPU,
    Opcode.FSLE: OpClass.FPU,
    Opcode.LOAD: OpClass.LOAD,
    Opcode.LOADB: OpClass.LOAD,
    Opcode.STORE: OpClass.STORE,
    Opcode.STOREB: OpClass.STORE,
    Opcode.BR: OpClass.BRANCH,
    Opcode.BT: OpClass.BRANCH,
    Opcode.BF: OpClass.BRANCH,
    Opcode.IBR: OpClass.BRANCH,
    Opcode.CALL: OpClass.CALL,
    Opcode.ICALL: OpClass.CALL,
    Opcode.RET: OpClass.RETURN,
    Opcode.HALT: OpClass.SYSTEM,
    Opcode.NOP: OpClass.SYSTEM,
}


@dataclass(frozen=True)
class Reg:
    """A register operand."""

    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", canonical_register(self.name))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm:
    """An immediate integer or floating-point operand."""

    value: Union[int, float]

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Sym:
    """A symbolic reference to a data object or function (for ``la``/``call``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Label:
    """A code label operand (branch target within a function)."""

    name: str

    def __str__(self) -> str:
        return self.name


Operand = Union[Reg, Imm, Sym, Label]


@dataclass(frozen=True)
class Instruction:
    """A single IR instruction.

    Attributes
    ----------
    opcode:
        The operation.
    dest:
        Destination register (``None`` for stores, branches, ...).
    operands:
        Source operands in instruction order.
    label:
        Optional code label attached to this instruction (branch target).
    pred:
        Optional predicate register — if set, the architectural effect only
        happens when the predicate register is non-zero, but the instruction is
        always fetched and timed (single-path paradigm support).
    offset:
        Constant displacement for memory operands (``load``/``store``).
    comment:
        Free-form comment carried through from source or builder, used by
        reports and by annotation matching (e.g. source line tags).
    source_line:
        Mini-C source line that produced this instruction (0 if unknown).
    address:
        Byte address of the instruction once the program has been laid out;
        -1 before layout.
    """

    opcode: Opcode
    dest: Optional[Reg] = None
    operands: Tuple[Operand, ...] = ()
    label: Optional[str] = None
    pred: Optional[Reg] = None
    offset: int = 0
    comment: str = ""
    source_line: int = 0
    address: int = -1

    # ------------------------------------------------------------------ #
    # Classification helpers
    # ------------------------------------------------------------------ #
    @property
    def op_class(self) -> OpClass:
        """Coarse opcode class used by the pipeline timing model."""
        return _OPCLASS_TABLE[self.opcode]

    @property
    def is_terminator(self) -> bool:
        """True if the instruction always ends a basic block."""
        return self.opcode in TERMINATOR_OPCODES

    @property
    def is_conditional_branch(self) -> bool:
        return self.opcode in CONDITIONAL_BRANCHES

    @property
    def is_call(self) -> bool:
        return self.opcode in (Opcode.CALL, Opcode.ICALL)

    @property
    def is_indirect(self) -> bool:
        """True for indirect control transfers (function pointers, computed goto)."""
        return self.opcode in (Opcode.IBR, Opcode.ICALL)

    @property
    def is_memory_access(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.LOADB, Opcode.STORE, Opcode.STOREB)

    @property
    def is_load(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.LOADB)

    @property
    def is_store(self) -> bool:
        return self.opcode in (Opcode.STORE, Opcode.STOREB)

    @property
    def is_float(self) -> bool:
        return self.opcode in FLOAT_OPCODES

    @property
    def is_compare(self) -> bool:
        return self.opcode in COMPARE_OPCODES

    @property
    def is_predicated(self) -> bool:
        return self.pred is not None

    # ------------------------------------------------------------------ #
    # Dataflow helpers
    # ------------------------------------------------------------------ #
    def defined_register(self) -> Optional[str]:
        """Name of the register written by this instruction, if any."""
        if self.dest is not None:
            return self.dest.name
        return None

    def used_registers(self) -> Tuple[str, ...]:
        """Names of all registers read by this instruction."""
        used = [op.name for op in self.operands if isinstance(op, Reg)]
        if self.pred is not None:
            used.append(self.pred.name)
        return tuple(used)

    def branch_target(self) -> Optional[str]:
        """Label targeted by a direct branch, else ``None``."""
        if self.opcode in (Opcode.BR, Opcode.BT, Opcode.BF):
            for op in self.operands:
                if isinstance(op, Label):
                    return op.name
        return None

    def call_target(self) -> Optional[str]:
        """Function name targeted by a direct call, else ``None``."""
        if self.opcode is Opcode.CALL:
            for op in self.operands:
                if isinstance(op, Sym):
                    return op.name
        return None

    def with_address(self, address: int) -> "Instruction":
        """Return a copy of the instruction placed at ``address``.

        Bypasses :func:`dataclasses.replace` (which re-runs ``__init__`` and
        field validation) — layout relocates every instruction of every
        program, and the fields other than the address are copied verbatim.
        """
        clone = Instruction.__new__(Instruction)
        clone.__dict__.update(self.__dict__)
        clone.__dict__["address"] = address
        return clone

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        if self.label:
            parts.append(f"{self.label}:")
        text = self.opcode.value
        ops = []
        if self.dest is not None:
            ops.append(str(self.dest))
        for op in self.operands:
            ops.append(str(op))
        if self.is_memory_access:
            # memory operands render as [base + offset]
            ops = []
            if self.is_load and self.dest is not None:
                ops.append(str(self.dest))
            if self.is_store and self.operands:
                ops.append(str(self.operands[0]))
            base = None
            for op in self.operands[1:] if self.is_store else self.operands:
                if isinstance(op, Reg):
                    base = op
                    break
            if base is not None:
                ops.append(f"[{base} + {self.offset}]")
        if ops:
            text += " " + ", ".join(ops)
        if self.pred is not None:
            text += f" ?{self.pred}"
        parts.append(text)
        return " ".join(parts)


#: Frozen membership sets for the validator — hash lookups instead of the
#: linear tuple scans this hot path used to pay per instruction.
_BINARY_ALU_OPCODES = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIVS,
        Opcode.DIVU,
        Opcode.REMS,
        Opcode.REMU,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.SRA,
    }
)
_UNARY_OPCODES = frozenset(
    {Opcode.NOT, Opcode.NEG, Opcode.FNEG, Opcode.ITOF, Opcode.FTOI}
)
_INDIRECT_OPCODES = frozenset({Opcode.ICALL, Opcode.IBR})
_LOAD_OPCODES = frozenset({Opcode.LOAD, Opcode.LOADB})
_STORE_OPCODES = frozenset({Opcode.STORE, Opcode.STOREB})


def validate_instruction(instr: Instruction) -> None:
    """Check structural well-formedness of an instruction.

    Raises :class:`IRError` describing the first problem found.  The check is
    deliberately strict: the analyses downstream rely on these invariants.
    """
    op = instr.opcode
    if op in _BINARY_ALU_OPCODES:
        if instr.dest is None or len(instr.operands) != 2:
            raise IRError(f"{op.value} requires a destination and two source operands")
        return
    if op is Opcode.MOV:
        if instr.dest is None or len(instr.operands) != 1:
            raise IRError("mov requires a destination and one source operand")
        return
    if op in _LOAD_OPCODES:
        if instr.dest is None:
            raise IRError("load requires a destination register")
        if not any(isinstance(o, Reg) for o in instr.operands):
            raise IRError("load requires a base address register")
        return
    if op in _STORE_OPCODES:
        regs = [o for o in instr.operands if isinstance(o, Reg)]
        if len(regs) < 2:
            raise IRError("store requires a value register and a base register")
        return
    if op in COMPARE_OPCODES:
        if instr.dest is None or len(instr.operands) != 2:
            raise IRError(f"{op.value} requires a destination and two source operands")
        return
    if op is Opcode.BR:
        if not any(isinstance(o, Label) for o in instr.operands):
            raise IRError("br requires a label operand")
        return
    if op in CONDITIONAL_BRANCHES:
        has_label = any(isinstance(o, Label) for o in instr.operands)
        has_reg = any(isinstance(o, Reg) for o in instr.operands)
        if not (has_label and has_reg):
            raise IRError(f"{op.value} requires a condition register and a label")
        return
    if op is Opcode.CALL:
        if not any(isinstance(o, Sym) for o in instr.operands):
            raise IRError("call requires a function symbol operand")
        return
    if op in _INDIRECT_OPCODES:
        if not any(isinstance(o, Reg) for o in instr.operands):
            raise IRError(f"{op.value} requires a register operand")
        return
    if op in _UNARY_OPCODES:
        if instr.dest is None or len(instr.operands) != 1:
            raise IRError(f"{op.value} requires a destination and one source operand")
        return
    if op is Opcode.LA:
        if instr.dest is None or not any(isinstance(o, Sym) for o in instr.operands):
            raise IRError("la requires a destination register and a symbol")
        return
