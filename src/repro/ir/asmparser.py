"""Textual assembly front end for the repro IR.

The format is a line-oriented, human-writable assembly used by tests, examples
and the documentation.  A small program looks like::

    .data buffer 64
    .data canreg 16 region=device

    .func main
        mov   r3, 0
    loop:
        add   r3, r3, 1
        slt   r4, r3, 10
        bt    r4, loop
        la    r5, buffer
        load  r6, [r5 + 4]
        store r6, [r5 + 8]
        call  helper
        halt

    .func helper params=1
        ret

Syntax summary
--------------

``.data NAME SIZE [region=data|device|heap] [readonly] [init=v1,v2,...]``
    Declares a data object.

``.func NAME [params=N] [variadic]``
    Starts a new function; subsequent instruction lines belong to it.

``LABEL:``
    Attaches a label to the next instruction (may share its line).

``opcode operands... [?pREG]``
    An instruction; a trailing ``?rN`` marks it predicated on register ``rN``.
    Memory operands are written ``[rBASE + OFFSET]`` or ``[rBASE]``.

``#`` and ``;`` start comments.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import AssemblyError, IRError
from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.ir.instructions import Imm, Instruction, Opcode, Reg
from repro.ir.program import Program

_MEM_RE = re.compile(
    r"^\[\s*(?P<base>[A-Za-z][A-Za-z0-9]*)\s*(?:\+\s*(?P<off>-?\d+))?\s*\]$"
)
_LABEL_RE = re.compile(r"^(?P<label>[A-Za-z_.][\w.]*)\s*:\s*(?P<rest>.*)$")
_INT_RE = re.compile(r"^-?(0x[0-9a-fA-F]+|\d+)$")
_FLOAT_RE = re.compile(r"^-?\d+\.\d*([eE][-+]?\d+)?$")


def _strip_comment(line: str) -> str:
    for marker in ("#", ";"):
        index = line.find(marker)
        if index >= 0:
            line = line[:index]
    return line.strip()


def _parse_number(token: str, line_no: int):
    if _INT_RE.match(token):
        try:
            return int(token, 0)
        except ValueError as exc:  # a leading zero, as in "08"
            raise AssemblyError(f"bad number {token!r}", line_no) from exc
    if _FLOAT_RE.match(token):
        return float(token)
    raise AssemblyError(f"expected a number, got {token!r}", line_no)


def _is_register(token: str) -> bool:
    token = token.lower()
    if token in ("sp", "fp", "lr"):
        return True
    return bool(re.match(r"^r\d+$", token))


def _split_operands(text: str) -> List[str]:
    """Split an operand list on commas, keeping ``[r1 + 4]`` groups intact."""
    parts: List[str] = []
    depth = 0
    current = ""
    for char in text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current.strip())
    return parts


class _AsmParser:
    def __init__(self, text: str, entry: str):
        self.lines = text.splitlines()
        self.builder = ProgramBuilder(entry=entry)
        self.current: Optional[FunctionBuilder] = None

    def parse(self) -> Program:
        """The program, or an :class:`AssemblyError` for any malformed text.

        An :class:`IRError` of the builder (a bad register name, an undefined
        label) becomes an assembly error too, with the line number when one
        line is at fault.
        """
        for index, raw in enumerate(self.lines, start=1):
            line = _strip_comment(raw)
            if not line:
                continue
            try:
                if line.startswith(".data"):
                    self._parse_data(line, index)
                elif line.startswith(".func"):
                    self._parse_func(line, index)
                else:
                    self._parse_instruction(line, index)
            except AssemblyError:
                raise
            except IRError as exc:
                raise AssemblyError(str(exc), index) from exc
        try:
            return self.builder.build()
        except IRError as exc:
            raise AssemblyError(str(exc)) from exc

    # ------------------------------------------------------------------ #
    def _parse_data(self, line: str, line_no: int) -> None:
        tokens = line.split()
        if len(tokens) < 3:
            raise AssemblyError(".data needs a name and a size", line_no)
        name = tokens[1]
        try:
            size = int(tokens[2], 0)
        except ValueError as exc:
            raise AssemblyError(f"bad data size {tokens[2]!r}", line_no) from exc
        region = "data"
        readonly = False
        initial: Tuple[int, ...] = ()
        for extra in tokens[3:]:
            if extra.startswith("region="):
                region = extra.split("=", 1)[1]
            elif extra == "readonly":
                readonly = True
            elif extra.startswith("init="):
                values = extra.split("=", 1)[1]
                try:
                    initial = tuple(int(v, 0) for v in values.split(",") if v)
                except ValueError as exc:
                    raise AssemblyError(f"bad init list {values!r}", line_no) from exc
            else:
                raise AssemblyError(f"unknown .data attribute {extra!r}", line_no)
        self.builder.data(name, size, initial=initial, region=region, readonly=readonly)

    def _parse_func(self, line: str, line_no: int) -> None:
        tokens = line.split()
        if len(tokens) < 2:
            raise AssemblyError(".func needs a name", line_no)
        name = tokens[1]
        num_params = 0
        variadic = False
        for extra in tokens[2:]:
            if extra.startswith("params="):
                try:
                    num_params = int(extra.split("=", 1)[1])
                except ValueError as exc:
                    raise AssemblyError(f"bad params count in {extra!r}", line_no) from exc
            elif extra == "variadic":
                variadic = True
            else:
                raise AssemblyError(f"unknown .func attribute {extra!r}", line_no)
        self.current = self.builder.function(name, num_params=num_params, variadic=variadic)

    # ------------------------------------------------------------------ #
    def _parse_instruction(self, line: str, line_no: int) -> None:
        if self.current is None:
            raise AssemblyError("instruction outside of a .func block", line_no)

        match = _LABEL_RE.match(line)
        while match and not _is_opcode(match.group("label")):
            self.current.label(match.group("label"))
            line = match.group("rest").strip()
            if not line:
                return
            match = _LABEL_RE.match(line)

        pred: Optional[str] = None
        pred_match = re.search(r"\?\s*([A-Za-z]\w*)\s*$", line)
        if pred_match:
            pred = pred_match.group(1)
            line = line[: pred_match.start()].strip()

        parts = line.split(None, 1)
        if not parts:
            raise AssemblyError(f"predicate ?{pred} has no instruction", line_no)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        try:
            opcode = Opcode(mnemonic)
        except ValueError as exc:
            raise AssemblyError(f"unknown opcode {mnemonic!r}", line_no) from exc
        operands = _split_operands(operand_text)
        self._emit(opcode, operands, pred, line_no)

    def _emit(
        self, opcode: Opcode, operands: List[str], pred: Optional[str], line_no: int
    ) -> None:
        fb = self.current
        assert fb is not None

        def value(token: str):
            if _is_register(token):
                return Reg(token)
            return Imm(_parse_number(token, line_no))

        def mem(token: str) -> Tuple[str, int]:
            match = _MEM_RE.match(token)
            if not match:
                raise AssemblyError(f"bad memory operand {token!r}", line_no)
            return match.group("base"), int(match.group("off") or 0)

        try:
            if opcode is Opcode.MOV:
                fb.mov(operands[0], value(operands[1]), pred=pred)
            elif opcode is Opcode.LA:
                fb.la(operands[0], operands[1], pred=pred)
            elif opcode in (Opcode.LOAD, Opcode.LOADB):
                base, offset = mem(operands[1])
                method = fb.load if opcode is Opcode.LOAD else fb.loadb
                method(operands[0], base, offset, pred=pred)
            elif opcode in (Opcode.STORE, Opcode.STOREB):
                base, offset = mem(operands[1])
                method = fb.store if opcode is Opcode.STORE else fb.storeb
                method(operands[0], base, offset, pred=pred)
            elif opcode is Opcode.BR:
                fb.br(operands[0])
            elif opcode is Opcode.BT:
                fb.bt(operands[0], operands[1])
            elif opcode is Opcode.BF:
                fb.bf(operands[0], operands[1])
            elif opcode is Opcode.IBR:
                fb.ibr(operands[0])
            elif opcode is Opcode.CALL:
                fb.call(operands[0])
            elif opcode is Opcode.ICALL:
                fb.icall(operands[0])
            elif opcode is Opcode.RET:
                fb.ret()
            elif opcode is Opcode.HALT:
                fb.halt()
            elif opcode is Opcode.NOP:
                fb.nop(pred=pred)
            elif opcode in (Opcode.NOT, Opcode.NEG, Opcode.FNEG, Opcode.ITOF, Opcode.FTOI):
                fb.emit(
                    Instruction(opcode, dest=Reg(operands[0]), operands=(value(operands[1]),))
                )
            else:
                # Generic three-operand form (ALU / compare / FP binary ops).
                if len(operands) != 3:
                    raise AssemblyError(
                        f"{opcode.value} expects 3 operands, got {len(operands)}", line_no
                    )
                fb.emit(
                    Instruction(
                        opcode,
                        dest=Reg(operands[0]),
                        operands=(value(operands[1]), value(operands[2])),
                        pred=Reg(pred) if pred else None,
                    )
                )
        except IndexError as exc:
            raise AssemblyError(
                f"not enough operands for {opcode.value!r}", line_no
            ) from exc


def _is_opcode(token: str) -> bool:
    try:
        Opcode(token.lower())
        return True
    except ValueError:
        return False


def parse_assembly(text: str, entry: str = "main") -> Program:
    """Parse textual assembly into a validated, laid-out :class:`Program`."""
    return _AsmParser(text, entry).parse()
