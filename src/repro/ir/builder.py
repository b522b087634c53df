"""Fluent builders for IR programs.

The builders are the programmatic front end used by the mini-C code generator
(:mod:`repro.minic.codegen`), by the workload catalogue
(:mod:`repro.workloads`) and by tests.  They take care of operand wrapping,
label bookkeeping and structural validation so call sites stay readable::

    pb = ProgramBuilder(entry="main")
    fb = pb.function("main")
    fb.mov("r3", 0)
    fb.label("loop")
    fb.add("r3", "r3", 1)
    fb.slt("r4", "r3", 10)
    fb.bt("r4", "loop")
    fb.halt()
    program = pb.build()
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.errors import IRError
from repro.ir.instructions import (
    Imm,
    Instruction,
    Label,
    Opcode,
    Operand,
    Reg,
    Sym,
)
from repro.ir.program import DataObject, Function, Program

RegLike = Union[str, Reg]
ValueLike = Union[str, Reg, Imm, int, float]


#: One operand per canonical register name: a ``Reg`` is immutable, so one
#: instance serves every instruction that names the register.
_REGS: Dict[str, Reg] = {}


def _reg(value: RegLike) -> Reg:
    if isinstance(value, Reg):
        return value
    reg = _REGS.get(value)
    if reg is None:
        reg = Reg(value)
        if reg.name == value:
            # Only canonical spellings are kept (at most one per register),
            # whatever spellings an assembly source uses.
            _REGS[value] = reg
    return reg


def _value(value: ValueLike) -> Operand:
    """Wrap a register name or Python number into an operand."""
    if isinstance(value, (Reg, Imm)):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Imm(value)
    if isinstance(value, bool):
        return Imm(int(value))
    if isinstance(value, str):
        return _reg(value)
    raise IRError(f"cannot use {value!r} as an instruction operand")


class FunctionBuilder:
    """Builds one :class:`~repro.ir.program.Function` instruction by instruction."""

    def __init__(self, name: str, num_params: int = 0, variadic: bool = False):
        self.name = name
        self.num_params = num_params
        self.variadic = variadic
        self._instructions: List[Instruction] = []
        self._pending_label: Optional[str] = None
        self._pending_comment: str = ""
        self._source_line: int = 0
        self._label_counter = 0

    # ------------------------------------------------------------------ #
    # Label / metadata handling
    # ------------------------------------------------------------------ #
    def label(self, name: str) -> "FunctionBuilder":
        """Attach ``name`` as the label of the next emitted instruction."""
        if self._pending_label is not None:
            # Two labels on the same spot: emit a nop to carry the first one.
            self._emit(Instruction(Opcode.NOP))
        self._pending_label = name
        return self

    def fresh_label(self, hint: str = "L") -> str:
        """Return a new label name unique within this function."""
        self._label_counter += 1
        return f".{hint}{self._label_counter}"

    def comment(self, text: str) -> "FunctionBuilder":
        """Attach a comment to the next emitted instruction."""
        self._pending_comment = text
        return self

    def at_line(self, line: int) -> "FunctionBuilder":
        """Record the current source line for subsequently emitted instructions."""
        self._source_line = line
        return self

    def _emit(
        self,
        instruction: Instruction,
        pred: Optional[RegLike] = None,
    ) -> Instruction:
        extra = {}
        if self._pending_label is not None:
            extra["label"] = self._pending_label
            self._pending_label = None
        if self._pending_comment:
            extra["comment"] = self._pending_comment
            self._pending_comment = ""
        if self._source_line:
            extra["source_line"] = self._source_line
        if pred is not None:
            extra["pred"] = _reg(pred)
        if extra:
            # A copy with the pending metadata; the operands are already
            # built, so the constructor's per-field setattrs are skipped (as
            # in ``Instruction.with_address``).
            clone = Instruction.__new__(Instruction)
            clone.__dict__.update(instruction.__dict__)
            clone.__dict__.update(extra)
            instruction = clone
        self._instructions.append(instruction)
        return instruction

    def emit(self, instruction: Instruction) -> Instruction:
        """Emit a pre-built instruction (label/comment pending state applies)."""
        return self._emit(instruction)

    # ------------------------------------------------------------------ #
    # Data movement
    # ------------------------------------------------------------------ #
    def mov(self, rd: RegLike, src: ValueLike, pred: Optional[RegLike] = None):
        return self._emit(
            Instruction(Opcode.MOV, dest=_reg(rd), operands=(_value(src),)), pred
        )

    def la(self, rd: RegLike, symbol: str, pred: Optional[RegLike] = None):
        return self._emit(
            Instruction(Opcode.LA, dest=_reg(rd), operands=(Sym(symbol),)), pred
        )

    # ------------------------------------------------------------------ #
    # Integer ALU
    # ------------------------------------------------------------------ #
    def _binary(self, opcode: Opcode, rd: RegLike, ra: ValueLike, rb: ValueLike, pred):
        return self._emit(
            Instruction(opcode, dest=_reg(rd), operands=(_value(ra), _value(rb))),
            pred,
        )

    def add(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.ADD, rd, ra, rb, pred)

    def sub(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.SUB, rd, ra, rb, pred)

    def mul(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.MUL, rd, ra, rb, pred)

    def divs(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.DIVS, rd, ra, rb, pred)

    def divu(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.DIVU, rd, ra, rb, pred)

    def rems(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.REMS, rd, ra, rb, pred)

    def remu(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.REMU, rd, ra, rb, pred)

    def and_(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.AND, rd, ra, rb, pred)

    def or_(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.OR, rd, ra, rb, pred)

    def xor(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.XOR, rd, ra, rb, pred)

    def shl(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.SHL, rd, ra, rb, pred)

    def shr(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.SHR, rd, ra, rb, pred)

    def sra(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.SRA, rd, ra, rb, pred)

    def not_(self, rd, ra, pred=None):
        return self._emit(
            Instruction(Opcode.NOT, dest=_reg(rd), operands=(_value(ra),)), pred
        )

    def neg(self, rd, ra, pred=None):
        return self._emit(
            Instruction(Opcode.NEG, dest=_reg(rd), operands=(_value(ra),)), pred
        )

    # ------------------------------------------------------------------ #
    # Comparisons
    # ------------------------------------------------------------------ #
    def seq(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.SEQ, rd, ra, rb, pred)

    def sne(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.SNE, rd, ra, rb, pred)

    def slt(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.SLT, rd, ra, rb, pred)

    def sle(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.SLE, rd, ra, rb, pred)

    def sgt(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.SGT, rd, ra, rb, pred)

    def sge(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.SGE, rd, ra, rb, pred)

    def sltu(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.SLTU, rd, ra, rb, pred)

    def sgeu(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.SGEU, rd, ra, rb, pred)

    # ------------------------------------------------------------------ #
    # Floating point
    # ------------------------------------------------------------------ #
    def fadd(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.FADD, rd, ra, rb, pred)

    def fsub(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.FSUB, rd, ra, rb, pred)

    def fmul(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.FMUL, rd, ra, rb, pred)

    def fdiv(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.FDIV, rd, ra, rb, pred)

    def fneg(self, rd, ra, pred=None):
        return self._emit(
            Instruction(Opcode.FNEG, dest=_reg(rd), operands=(_value(ra),)), pred
        )

    def itof(self, rd, ra, pred=None):
        return self._emit(
            Instruction(Opcode.ITOF, dest=_reg(rd), operands=(_value(ra),)), pred
        )

    def ftoi(self, rd, ra, pred=None):
        return self._emit(
            Instruction(Opcode.FTOI, dest=_reg(rd), operands=(_value(ra),)), pred
        )

    def fseq(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.FSEQ, rd, ra, rb, pred)

    def fsne(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.FSNE, rd, ra, rb, pred)

    def fslt(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.FSLT, rd, ra, rb, pred)

    def fsle(self, rd, ra, rb, pred=None):
        return self._binary(Opcode.FSLE, rd, ra, rb, pred)

    # ------------------------------------------------------------------ #
    # Memory
    # ------------------------------------------------------------------ #
    def load(self, rd: RegLike, base: RegLike, offset: int = 0, pred=None):
        return self._emit(
            Instruction(
                Opcode.LOAD, dest=_reg(rd), operands=(_reg(base),), offset=offset
            ),
            pred,
        )

    def store(self, rs: RegLike, base: RegLike, offset: int = 0, pred=None):
        return self._emit(
            Instruction(
                Opcode.STORE, operands=(_reg(rs), _reg(base)), offset=offset
            ),
            pred,
        )

    def loadb(self, rd: RegLike, base: RegLike, offset: int = 0, pred=None):
        return self._emit(
            Instruction(
                Opcode.LOADB, dest=_reg(rd), operands=(_reg(base),), offset=offset
            ),
            pred,
        )

    def storeb(self, rs: RegLike, base: RegLike, offset: int = 0, pred=None):
        return self._emit(
            Instruction(
                Opcode.STOREB, operands=(_reg(rs), _reg(base)), offset=offset
            ),
            pred,
        )

    # ------------------------------------------------------------------ #
    # Control flow
    # ------------------------------------------------------------------ #
    def br(self, target: str):
        return self._emit(Instruction(Opcode.BR, operands=(Label(target),)))

    def bt(self, cond: RegLike, target: str):
        return self._emit(
            Instruction(Opcode.BT, operands=(_reg(cond), Label(target)))
        )

    def bf(self, cond: RegLike, target: str):
        return self._emit(
            Instruction(Opcode.BF, operands=(_reg(cond), Label(target)))
        )

    def ibr(self, target_reg: RegLike):
        return self._emit(Instruction(Opcode.IBR, operands=(_reg(target_reg),)))

    def call(self, function_name: str):
        return self._emit(Instruction(Opcode.CALL, operands=(Sym(function_name),)))

    def icall(self, target_reg: RegLike):
        return self._emit(Instruction(Opcode.ICALL, operands=(_reg(target_reg),)))

    def ret(self):
        return self._emit(Instruction(Opcode.RET))

    def halt(self):
        return self._emit(Instruction(Opcode.HALT))

    def nop(self, pred=None):
        return self._emit(Instruction(Opcode.NOP), pred)

    # ------------------------------------------------------------------ #
    def build(self) -> Function:
        """Finalize and return the function (validates structure)."""
        if self._pending_label is not None:
            self._emit(Instruction(Opcode.NOP))
        function = Function(
            name=self.name,
            instructions=list(self._instructions),
            num_params=self.num_params,
            variadic=self.variadic,
        )
        function.validate()
        return function


class ProgramBuilder:
    """Builds a complete :class:`~repro.ir.program.Program`."""

    def __init__(self, entry: str = "main"):
        self.entry = entry
        self._functions: Dict[str, FunctionBuilder] = {}
        self._order: List[str] = []
        self._data: List[DataObject] = []

    def function(
        self, name: str, num_params: int = 0, variadic: bool = False
    ) -> FunctionBuilder:
        """Create (or fetch) the builder for function ``name``."""
        if name in self._functions:
            return self._functions[name]
        builder = FunctionBuilder(name, num_params=num_params, variadic=variadic)
        self._functions[name] = builder
        self._order.append(name)
        return builder

    def data(
        self,
        name: str,
        size: int,
        initial: Sequence[int] = (),
        region: str = "data",
        readonly: bool = False,
    ) -> DataObject:
        obj = DataObject(
            name=name,
            size=size,
            initial=tuple(initial),
            region=region,
            readonly=readonly,
        )
        self._data.append(obj)
        return obj

    def build(self) -> Program:
        """Assemble, validate and lay out the program."""
        program = Program(entry=self.entry)
        for name in self._order:
            program.add_function(self._functions[name].build())
        for obj in self._data:
            program.add_data(obj)
        program._check_links()
        return program
