"""Code generation from mini-C ASTs to the repro register IR.

Design decisions that matter for the downstream analyses:

* **Scalar locals live in callee-saved registers** (r14..r28) whenever their
  address is not taken and a register is free.  This keeps loop counters in
  registers across iterations, so the data-flow loop-bound analysis recognises
  the counter pattern — exactly the property MISRA rules 13.4/13.6 try to
  protect at the source level.  Address-taken locals and arrays get stack
  slots.
* **Loop headers get stable labels** ``loop_<line>`` (source line of the loop)
  so design-level annotations (``loopbound handle_message.loop_42 16``) can
  reference them without knowing generated addresses.
* **Counter updates compile to in-place ``add/sub``** on the home register
  (``i = i + 1`` → ``add r14, r14, 1``), preserving the counter pattern.
* Calls spill live expression temporaries to dedicated frame slots and reload
  them afterwards, so expression evaluation is correct across calls without a
  full register allocator.
* ``malloc``/``free``/``setjmp``/``longjmp`` are synthesised as small IR
  library functions; dynamic allocation returns pointers whose addresses the
  value analysis cannot resolve, which is precisely the rule 20.4 penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import CodegenError
from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.ir.instructions import ARGUMENT_REGISTERS
from repro.ir.program import Program, WORD_SIZE
from repro.minic import ast
from repro.minic.cparser import parse_source
from repro.minic.typecheck import check_types

#: Registers usable as expression temporaries (caller saved).
TEMP_REGISTERS = tuple(f"r{i}" for i in range(3, 14))
#: Registers usable as homes for scalar locals (callee saved).
HOME_REGISTERS = tuple(f"r{i}" for i in range(14, 29))
#: Stack pointer register name.
SP = "r29"
#: Size of the heap pool backing malloc(), in bytes.
HEAP_POOL_SIZE = 8192


@dataclass
class _VariableHome:
    """Where a local variable lives: a register or a stack slot."""

    name: str
    register: Optional[str] = None
    stack_offset: Optional[int] = None
    var_type: Optional[ast.Type] = None
    is_parameter: bool = False

    @property
    def in_register(self) -> bool:
        return self.register is not None


@dataclass
class _LoopContext:
    break_label: str
    continue_label: str


class _TempPool:
    """Expression temporaries with spill bookkeeping."""

    def __init__(self) -> None:
        self.free: List[str] = list(TEMP_REGISTERS)
        self.live: List[str] = []

    def alloc(self) -> str:
        if not self.free:
            raise CodegenError(
                "expression too complex: ran out of temporary registers"
            )
        register = self.free.pop(0)
        self.live.append(register)
        return register

    def release(self, register: Optional[str]) -> None:
        if register is None:
            return
        if register in self.live:
            self.live.remove(register)
            self.free.insert(0, register)

    def live_registers(self) -> List[str]:
        return list(self.live)


class _Value:
    """Result of expression codegen: a register (owned temp or borrowed home)
    or an immediate constant."""

    def __init__(
        self,
        register: Optional[str] = None,
        immediate: Optional[Union[int, float]] = None,
        owned: bool = False,
    ):
        self.register = register
        self.immediate = immediate
        self.owned = owned

    @property
    def is_immediate(self) -> bool:
        return self.immediate is not None

    def operand(self) -> Union[str, int, float]:
        if self.is_immediate:
            return self.immediate
        return self.register


class CodeGenerator:
    """Compiles one type-checked compilation unit into an IR program."""

    def __init__(self, unit: ast.CompilationUnit, entry: str = "main"):
        self.unit = unit
        self.entry = entry
        self.builder = ProgramBuilder(entry=entry)
        self._label_counter = 0
        self._uses_malloc = False
        self._uses_setjmp = False
        self._global_types: Dict[str, ast.Type] = {}

    # ------------------------------------------------------------------ #
    def generate(self) -> Program:
        for declaration in self.unit.globals:
            self._emit_global(declaration)
        for function in self.unit.defined_functions():
            self._emit_function(function)
        self._emit_builtins()
        return self.builder.build()

    # ------------------------------------------------------------------ #
    # Globals
    # ------------------------------------------------------------------ #
    def _emit_global(self, declaration: ast.VarDecl) -> None:
        var_type = declaration.var_type
        self._global_types[declaration.name] = var_type
        if isinstance(var_type, ast.ArrayType):
            size = max(var_type.length, 1) * WORD_SIZE
            initial: Tuple[int, ...] = ()
        else:
            size = WORD_SIZE
            initial = ()
        if isinstance(declaration.init, ast.IntLiteral):
            initial = (declaration.init.value,)
        elif isinstance(declaration.init, ast.UnaryExpr) and declaration.init.op == "-":
            operand = declaration.init.operand
            if isinstance(operand, ast.IntLiteral):
                initial = (-operand.value,)
        self.builder.data(declaration.name, size, initial=initial)

    # ------------------------------------------------------------------ #
    # Functions
    # ------------------------------------------------------------------ #
    def _emit_function(self, function: ast.FunctionDef) -> None:
        generator = _FunctionEmitter(self, function)
        generator.emit()

    def _emit_builtins(self) -> None:
        if self._uses_malloc:
            self.builder.data("__heap_pool", HEAP_POOL_SIZE, region="heap")
            self.builder.data("__heap_next", WORD_SIZE, initial=(0,))
            fb = self.builder.function("malloc", num_params=1)
            fb.comment("bump allocator over __heap_pool (MISRA rule 20.4 territory)")
            fb.la("r4", "__heap_next")
            fb.load("r5", "r4", 0)
            fb.la("r6", "__heap_pool")
            fb.add("r6", "r6", "r5")
            fb.add("r5", "r5", "r3")
            fb.add("r5", "r5", 3)
            fb.mov("r7", -4)
            fb.and_("r5", "r5", "r7")
            fb.store("r5", "r4", 0)
            fb.mov("r3", "r6")
            fb.ret()

            fb = self.builder.function("free", num_params=1)
            fb.comment("no-op: the bump allocator never releases memory")
            fb.ret()
        if self._uses_setjmp:
            fb = self.builder.function("setjmp", num_params=1)
            fb.comment("stubbed: always returns 0 (direct path)")
            fb.mov("r3", 0)
            fb.ret()
            fb = self.builder.function("longjmp", num_params=2)
            fb.comment("stubbed: returns to the caller instead of unwinding")
            fb.ret()

    def fresh_label(self, hint: str) -> str:
        self._label_counter += 1
        return f".{hint}{self._label_counter}"


class _FunctionEmitter:
    """Emits the IR of one function."""

    def __init__(self, parent: CodeGenerator, function: ast.FunctionDef):
        self.parent = parent
        self.function = function
        self.fb: FunctionBuilder = parent.builder.function(
            function.name,
            num_params=len(function.parameters),
            variadic=function.variadic,
        )
        self.temps = _TempPool()
        self.homes: Dict[int, _VariableHome] = {}     # keyed by id(decl)
        self.loop_stack: List[_LoopContext] = []
        self.epilogue_label = self.parent.fresh_label("epilogue")
        self.frame_size = 0
        self.spill_base = 0
        self.saved_registers: List[str] = []
        self.used_labels: set = set()

    # ------------------------------------------------------------------ #
    # Frame layout
    # ------------------------------------------------------------------ #
    def _assign_homes(self) -> None:
        available = list(HOME_REGISTERS)
        stack_offset = 0

        def alloc_stack(size: int) -> int:
            nonlocal stack_offset
            offset = stack_offset
            stack_offset += size
            return offset

        # Parameters first (so the most frequently used values get registers).
        for parameter in self.function.parameters:
            home = _VariableHome(
                name=parameter.name, var_type=parameter.param_type, is_parameter=True
            )
            if available:
                home.register = available.pop(0)
            else:
                home.stack_offset = alloc_stack(WORD_SIZE)
            self.homes[id(parameter)] = home

        for declaration in self.function.locals:
            var_type = declaration.var_type
            home = _VariableHome(name=declaration.name, var_type=var_type)
            if isinstance(var_type, ast.ArrayType):
                home.stack_offset = alloc_stack(max(var_type.length, 1) * WORD_SIZE)
            elif declaration.address_taken or not available:
                home.stack_offset = alloc_stack(WORD_SIZE)
            else:
                home.register = available.pop(0)
            self.homes[id(declaration)] = home

        # Spill area for expression temporaries across calls.
        self.spill_base = stack_offset
        stack_offset += len(TEMP_REGISTERS) * WORD_SIZE
        # Save area for the callee-saved registers we use as homes.
        self.saved_registers = [
            home.register for home in self.homes.values() if home.register is not None
        ]
        self.save_area = stack_offset
        stack_offset += len(self.saved_registers) * WORD_SIZE
        # Word-align the frame.
        self.frame_size = (stack_offset + WORD_SIZE - 1) & ~(WORD_SIZE - 1)

    # ------------------------------------------------------------------ #
    def emit(self) -> None:
        self._assign_homes()
        fb = self.fb

        # Prologue.
        if self.frame_size:
            fb.sub(SP, SP, self.frame_size)
        for index, register in enumerate(self.saved_registers):
            fb.store(register, SP, self.save_area + index * WORD_SIZE)
        for position, parameter in enumerate(self.function.parameters):
            if position >= len(ARGUMENT_REGISTERS):
                raise CodegenError(
                    f"{self.function.name}: more than "
                    f"{len(ARGUMENT_REGISTERS)} parameters are not supported"
                )
            home = self.homes[id(parameter)]
            source = ARGUMENT_REGISTERS[position]
            if home.in_register:
                fb.mov(home.register, source)
            else:
                fb.store(source, SP, home.stack_offset)

        # Body.
        self._emit_stmt(self.function.body)

        # Epilogue (also the fall-off-the-end return path).
        fb.label(self.epilogue_label)
        for index, register in enumerate(self.saved_registers):
            fb.load(register, SP, self.save_area + index * WORD_SIZE)
        if self.frame_size:
            fb.add(SP, SP, self.frame_size)
        if self.function.name == self.parent.entry:
            fb.halt()
        else:
            fb.ret()

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def _emit_stmt(self, statement: Optional[ast.Stmt]) -> None:
        if statement is None:
            return
        fb = self.fb
        line = getattr(statement, "line", 0)
        if line:
            fb.at_line(line)

        if isinstance(statement, ast.CompoundStmt):
            for item in statement.statements:
                self._emit_stmt(item)
            return
        if isinstance(statement, ast.VarDecl):
            if statement.init is not None:
                self._emit_assign_to_decl(statement, statement.init)
            return
        if isinstance(statement, ast.ExprStmt):
            if statement.expr is not None:
                value = self._emit_expr(statement.expr)
                self._release(value)
            return
        if isinstance(statement, ast.IfStmt):
            self._emit_if(statement)
            return
        if isinstance(statement, ast.WhileStmt):
            self._emit_while(statement)
            return
        if isinstance(statement, ast.DoWhileStmt):
            self._emit_do_while(statement)
            return
        if isinstance(statement, ast.ForStmt):
            self._emit_for(statement)
            return
        if isinstance(statement, ast.ReturnStmt):
            if statement.value is not None:
                value = self._emit_expr(statement.value)
                self._move_into("r3", value)
                self._release(value)
            self.fb.br(self.epilogue_label)
            return
        if isinstance(statement, ast.BreakStmt):
            if not self.loop_stack:
                raise CodegenError(f"line {statement.line}: break outside of a loop")
            self.fb.br(self.loop_stack[-1].break_label)
            return
        if isinstance(statement, ast.ContinueStmt):
            if not self.loop_stack:
                raise CodegenError(f"line {statement.line}: continue outside of a loop")
            self.fb.br(self.loop_stack[-1].continue_label)
            return
        if isinstance(statement, ast.GotoStmt):
            self.fb.br(f"{statement.label}")
            return
        if isinstance(statement, ast.LabelStmt):
            self.fb.label(statement.label)
            self._emit_stmt(statement.statement)
            return
        if isinstance(statement, ast.EmptyStmt):
            return
        raise CodegenError(f"unhandled statement {type(statement).__name__}")

    # ------------------------------------------------------------------ #
    def _loop_label(self, line: int, hint: str) -> str:
        base = f"loop_{line}" if line else self.parent.fresh_label(hint)
        label = base
        suffix = 1
        while label in self.used_labels:
            suffix += 1
            label = f"{base}_{suffix}"
        self.used_labels.add(label)
        return label

    def _emit_if(self, statement: ast.IfStmt) -> None:
        fb = self.fb
        else_label = self.parent.fresh_label("else")
        end_label = self.parent.fresh_label("endif")
        condition = self._emit_expr(statement.condition)
        register = self._materialise(condition)
        fb.bf(register, else_label if statement.else_branch else end_label)
        self._release(condition)
        self._emit_stmt(statement.then_branch)
        if statement.else_branch is not None:
            fb.br(end_label)
            fb.label(else_label)
            self._emit_stmt(statement.else_branch)
        fb.label(end_label)
        fb.nop()

    def _emit_while(self, statement: ast.WhileStmt) -> None:
        fb = self.fb
        header = self._loop_label(statement.line, "while")
        exit_label = self.parent.fresh_label("endwhile")
        fb.label(header)
        condition = self._emit_expr(statement.condition)
        register = self._materialise(condition)
        fb.bf(register, exit_label)
        self._release(condition)
        self.loop_stack.append(_LoopContext(exit_label, header))
        self._emit_stmt(statement.body)
        self.loop_stack.pop()
        fb.br(header)
        fb.label(exit_label)
        fb.nop()

    def _emit_do_while(self, statement: ast.DoWhileStmt) -> None:
        fb = self.fb
        header = self._loop_label(statement.line, "dowhile")
        continue_label = self.parent.fresh_label("docond")
        exit_label = self.parent.fresh_label("enddo")
        fb.label(header)
        self.loop_stack.append(_LoopContext(exit_label, continue_label))
        self._emit_stmt(statement.body)
        self.loop_stack.pop()
        fb.label(continue_label)
        condition = self._emit_expr(statement.condition)
        register = self._materialise(condition)
        fb.bt(register, header)
        self._release(condition)
        fb.label(exit_label)
        fb.nop()

    def _emit_for(self, statement: ast.ForStmt) -> None:
        fb = self.fb
        if isinstance(statement.init, ast.VarDecl):
            if statement.init.init is not None:
                self._emit_assign_to_decl(statement.init, statement.init.init)
        elif isinstance(statement.init, ast.ExprStmt) and statement.init.expr is not None:
            value = self._emit_expr(statement.init.expr)
            self._release(value)
        elif isinstance(statement.init, ast.CompoundStmt):
            self._emit_stmt(statement.init)

        header = self._loop_label(statement.line, "for")
        continue_label = self.parent.fresh_label("forstep")
        exit_label = self.parent.fresh_label("endfor")
        fb.label(header)
        if statement.condition is not None:
            condition = self._emit_expr(statement.condition)
            register = self._materialise(condition)
            fb.bf(register, exit_label)
            self._release(condition)
        self.loop_stack.append(_LoopContext(exit_label, continue_label))
        self._emit_stmt(statement.body)
        self.loop_stack.pop()
        fb.label(continue_label)
        if statement.step is not None:
            value = self._emit_expr(statement.step)
            self._release(value)
        fb.br(header)
        fb.label(exit_label)
        fb.nop()

    # ------------------------------------------------------------------ #
    # Variable access helpers
    # ------------------------------------------------------------------ #
    def _home_of(self, declaration: object) -> Optional[_VariableHome]:
        return self.homes.get(id(declaration))

    def _is_float_expr(self, expr: Optional[ast.Expr]) -> bool:
        return expr is not None and ast.type_is_float(expr.ctype)

    def _emit_assign_to_decl(self, declaration: ast.VarDecl, value_expr: ast.Expr) -> None:
        home = self._home_of(declaration)
        if home is None:
            raise CodegenError(f"no storage assigned to local {declaration.name!r}")
        if home.in_register:
            self._emit_expr_into(home.register, value_expr)
        else:
            value = self._emit_expr(value_expr)
            register = self._materialise(value)
            self.fb.store(register, SP, home.stack_offset)
            self._release(value)

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def _release(self, value: Optional[_Value]) -> None:
        if value is not None and value.owned:
            self.temps.release(value.register)

    def _materialise(self, value: _Value) -> str:
        """Ensure the value is in a register; returns the register name."""
        if value.register is not None:
            return value.register
        register = self.temps.alloc()
        self.fb.mov(register, value.immediate)
        value.register = register
        value.owned = True
        return register

    def _move_into(self, destination: str, value: _Value) -> None:
        if value.is_immediate:
            self.fb.mov(destination, value.immediate)
        elif value.register != destination:
            self.fb.mov(destination, value.register)

    @staticmethod
    def _fold_constant(expr: ast.Expr):
        """Evaluate integer constant expressions at compile time (or None).

        Keeps loop limits like ``16 - 1`` out of the generated loop body so the
        loop-bound analysis sees a constant comparison operand.
        """
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.UnaryExpr) and not expr.postfix:
            inner = _FunctionEmitter._fold_constant(expr.operand) if expr.operand else None
            if inner is None:
                return None
            if expr.op == "-":
                return -inner
            if expr.op == "~":
                return ~inner
            if expr.op == "!":
                return int(inner == 0)
            return None
        if isinstance(expr, ast.BinaryExpr):
            left = _FunctionEmitter._fold_constant(expr.left) if expr.left else None
            right = _FunctionEmitter._fold_constant(expr.right) if expr.right else None
            if left is None or right is None:
                return None
            try:
                if expr.op == "+":
                    return left + right
                if expr.op == "-":
                    return left - right
                if expr.op == "*":
                    return left * right
                if expr.op == "/" and right != 0:
                    return int(left / right) if (left < 0) != (right < 0) else left // right
                if expr.op == "%" and right != 0:
                    return left - right * (int(left / right) if (left < 0) != (right < 0) else left // right)
                if expr.op == "<<" and 0 <= right < 32:
                    return left << right
                if expr.op == ">>" and 0 <= right < 32:
                    return left >> right
                if expr.op == "&":
                    return left & right
                if expr.op == "|":
                    return left | right
                if expr.op == "^":
                    return left ^ right
                if expr.op == "<":
                    return int(left < right)
                if expr.op == "<=":
                    return int(left <= right)
                if expr.op == ">":
                    return int(left > right)
                if expr.op == ">=":
                    return int(left >= right)
                if expr.op == "==":
                    return int(left == right)
                if expr.op == "!=":
                    return int(left != right)
            except (OverflowError, ValueError):
                return None
        return None

    def _emit_expr(self, expr: ast.Expr) -> _Value:
        if isinstance(expr, ast.IntLiteral):
            return _Value(immediate=expr.value)
        folded = self._fold_constant(expr)
        if folded is not None and isinstance(expr, (ast.BinaryExpr, ast.UnaryExpr)):
            return _Value(immediate=folded)
        if isinstance(expr, ast.FloatLiteral):
            return _Value(immediate=float(expr.value))
        if isinstance(expr, ast.Identifier):
            return self._emit_identifier(expr)
        if isinstance(expr, ast.UnaryExpr):
            return self._emit_unary(expr)
        if isinstance(expr, ast.BinaryExpr):
            return self._emit_binary(expr)
        if isinstance(expr, ast.AssignExpr):
            return self._emit_assignment(expr)
        if isinstance(expr, ast.CallExpr):
            return self._emit_call(expr)
        if isinstance(expr, ast.IndexExpr):
            address, element_float = self._emit_address(expr)
            register = self.temps.alloc()
            self.fb.load(register, address.register, 0)
            self._release(address)
            return _Value(register=register, owned=True)
        raise CodegenError(f"unhandled expression {type(expr).__name__}")

    def _emit_expr_into(self, destination: str, expr: ast.Expr) -> None:
        """Evaluate ``expr`` directly into ``destination`` (a home register).

        Keeps counter updates in the three-address form the loop-bound
        analysis recognises (``add r14, r14, 1``).
        """
        if isinstance(expr, ast.IntLiteral):
            self.fb.mov(destination, expr.value)
            return
        if isinstance(expr, ast.FloatLiteral):
            self.fb.mov(destination, float(expr.value))
            return
        if isinstance(expr, ast.Identifier):
            value = self._emit_identifier(expr)
            self._move_into(destination, value)
            self._release(value)
            return
        if isinstance(expr, ast.BinaryExpr) and expr.op not in ("&&", "||", ","):
            left = self._emit_expr(expr.left)
            right = self._emit_expr(expr.right)
            self._emit_binary_op(destination, expr, left, right)
            self._release(left)
            self._release(right)
            return
        value = self._emit_expr(expr)
        self._move_into(destination, value)
        self._release(value)

    # ------------------------------------------------------------------ #
    def _emit_identifier(self, expr: ast.Identifier) -> _Value:
        declaration = expr.decl
        if isinstance(declaration, ast.FunctionDef):
            register = self.temps.alloc()
            self.fb.la(register, declaration.name)
            return _Value(register=register, owned=True)
        home = self._home_of(declaration)
        if home is not None:
            if home.in_register:
                return _Value(register=home.register, owned=False)
            if isinstance(home.var_type, ast.ArrayType):
                register = self.temps.alloc()
                self.fb.add(register, SP, home.stack_offset)
                return _Value(register=register, owned=True)
            register = self.temps.alloc()
            self.fb.load(register, SP, home.stack_offset)
            return _Value(register=register, owned=True)
        # Global variable.
        if isinstance(declaration, ast.VarDecl) and declaration.is_global:
            register = self.temps.alloc()
            if isinstance(declaration.var_type, ast.ArrayType):
                self.fb.la(register, declaration.name)
            else:
                self.fb.la(register, declaration.name)
                self.fb.load(register, register, 0)
            return _Value(register=register, owned=True)
        raise CodegenError(f"cannot generate access to {expr.name!r}")

    # ------------------------------------------------------------------ #
    def _emit_address(self, expr: ast.Expr) -> Tuple[_Value, bool]:
        """Produce a register holding the address of an lvalue expression.

        Returns ``(address value, element is float)``.
        """
        if isinstance(expr, ast.Identifier):
            declaration = expr.decl
            home = self._home_of(declaration)
            is_float = ast.type_is_float(expr.ctype)
            if home is not None:
                if home.in_register:
                    raise CodegenError(
                        f"cannot take the address of register variable {expr.name!r}"
                    )
                register = self.temps.alloc()
                self.fb.add(register, SP, home.stack_offset)
                return _Value(register=register, owned=True), is_float
            if isinstance(declaration, ast.VarDecl) and declaration.is_global:
                register = self.temps.alloc()
                self.fb.la(register, declaration.name)
                return _Value(register=register, owned=True), is_float
            if isinstance(declaration, ast.FunctionDef):
                register = self.temps.alloc()
                self.fb.la(register, declaration.name)
                return _Value(register=register, owned=True), False
            raise CodegenError(f"cannot take the address of {expr.name!r}")
        if isinstance(expr, ast.UnaryExpr) and expr.op == "*":
            pointer = self._emit_expr(expr.operand)
            register = self._materialise(pointer)
            pointer.register = register
            return pointer, ast.type_is_float(expr.ctype)
        if isinstance(expr, ast.IndexExpr):
            base_value: _Value
            base = expr.base
            base_value = self._emit_expr(base)
            base_register = self._materialise(base_value)
            index_value = self._emit_expr(expr.index)
            result = self.temps.alloc()
            if index_value.is_immediate:
                self.fb.mov(result, int(index_value.immediate) * WORD_SIZE)
            else:
                self.fb.mul(result, index_value.register, WORD_SIZE)
            self.fb.add(result, base_register, result)
            self._release(base_value)
            self._release(index_value)
            return _Value(register=result, owned=True), ast.type_is_float(expr.ctype)
        raise CodegenError(f"expression is not an lvalue: {type(expr).__name__}")

    # ------------------------------------------------------------------ #
    def _emit_unary(self, expr: ast.UnaryExpr) -> _Value:
        op = expr.op
        if op == "cast":
            value = self._emit_expr(expr.operand)
            source_float = self._is_float_expr(expr.operand)
            target_float = ast.type_is_float(expr.ctype)
            if source_float == target_float:
                return value
            register = self.temps.alloc()
            if target_float:
                self.fb.itof(register, self._materialise(value))
            else:
                self.fb.ftoi(register, self._materialise(value))
            self._release(value)
            return _Value(register=register, owned=True)
        if op in ("++", "--"):
            return self._emit_incdec(expr)
        if op == "&":
            address, _ = self._emit_address(expr.operand)
            return address
        if op == "*":
            pointer = self._emit_expr(expr.operand)
            register = self.temps.alloc()
            self.fb.load(register, self._materialise(pointer), 0)
            self._release(pointer)
            return _Value(register=register, owned=True)
        value = self._emit_expr(expr.operand)
        register = self.temps.alloc()
        operand = value.operand()
        if op == "-":
            if self._is_float_expr(expr.operand):
                self.fb.fneg(register, operand)
            else:
                self.fb.neg(register, operand)
        elif op == "~":
            self.fb.not_(register, operand)
        elif op == "!":
            self.fb.seq(register, operand, 0)
        else:
            raise CodegenError(f"unhandled unary operator {op!r}")
        self._release(value)
        return _Value(register=register, owned=True)

    def _emit_incdec(self, expr: ast.UnaryExpr) -> _Value:
        target = expr.operand
        delta = 1 if expr.op == "++" else -1
        if isinstance(target, ast.Identifier):
            home = self._home_of(target.decl)
            if home is not None and home.in_register:
                result = None
                if expr.postfix:
                    result = self.temps.alloc()
                    self.fb.mov(result, home.register)
                self.fb.add(home.register, home.register, delta)
                if expr.postfix:
                    return _Value(register=result, owned=True)
                return _Value(register=home.register, owned=False)
        # Memory-resident target: load, update, store.
        address, _ = self._emit_address(target)
        register = self.temps.alloc()
        self.fb.load(register, address.register, 0)
        old = None
        if expr.postfix:
            old = self.temps.alloc()
            self.fb.mov(old, register)
        self.fb.add(register, register, delta)
        self.fb.store(register, address.register, 0)
        self._release(address)
        if expr.postfix:
            self.temps.release(register)
            return _Value(register=old, owned=True)
        return _Value(register=register, owned=True)

    # ------------------------------------------------------------------ #
    def _emit_binary(self, expr: ast.BinaryExpr) -> _Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._emit_logical(expr)
        if op == ",":
            left = self._emit_expr(expr.left)
            self._release(left)
            return self._emit_expr(expr.right)
        left = self._emit_expr(expr.left)
        right = self._emit_expr(expr.right)
        destination = self.temps.alloc()
        self._emit_binary_op(destination, expr, left, right)
        self._release(left)
        self._release(right)
        return _Value(register=destination, owned=True)

    def _emit_binary_op(
        self, destination: str, expr: ast.BinaryExpr, left: _Value, right: _Value
    ) -> None:
        fb = self.fb
        op = expr.op
        left_float = self._is_float_expr(expr.left)
        right_float = self._is_float_expr(expr.right)
        use_float = left_float or right_float
        left_unsigned = isinstance(expr.left.ctype, ast.ScalarType) and expr.left.ctype.is_unsigned
        right_unsigned = isinstance(expr.right.ctype, ast.ScalarType) and expr.right.ctype.is_unsigned
        unsigned = left_unsigned or right_unsigned

        a = left.operand()
        b = right.operand()

        # Pointer arithmetic: scale the integer side by the element size.
        left_is_pointer = isinstance(expr.left.ctype, (ast.PointerType, ast.ArrayType))
        right_is_pointer = isinstance(expr.right.ctype, (ast.PointerType, ast.ArrayType))
        if op in ("+", "-") and left_is_pointer and not right_is_pointer:
            scaled = self.temps.alloc()
            if right.is_immediate:
                fb.mov(scaled, int(right.immediate) * WORD_SIZE)
            else:
                fb.mul(scaled, b, WORD_SIZE)
            if op == "+":
                fb.add(destination, a, scaled)
            else:
                fb.sub(destination, a, scaled)
            self.temps.release(scaled)
            return
        if op == "+" and right_is_pointer and not left_is_pointer:
            scaled = self.temps.alloc()
            if left.is_immediate:
                fb.mov(scaled, int(left.immediate) * WORD_SIZE)
            else:
                fb.mul(scaled, a, WORD_SIZE)
            fb.add(destination, scaled, b)
            self.temps.release(scaled)
            return

        if use_float:
            float_ops = {
                "+": fb.fadd, "-": fb.fsub, "*": fb.fmul, "/": fb.fdiv,
                "==": fb.fseq, "!=": fb.fsne, "<": fb.fslt, "<=": fb.fsle,
            }
            if op in float_ops:
                float_ops[op](destination, a, b)
                return
            if op == ">":
                fb.fslt(destination, b, a)
                return
            if op == ">=":
                fb.fsle(destination, b, a)
                return
            raise CodegenError(f"operator {op!r} is not defined for float operands")

        integer_ops = {
            "+": fb.add,
            "-": fb.sub,
            "*": fb.mul,
            "/": fb.divu if unsigned else fb.divs,
            "%": fb.remu if unsigned else fb.rems,
            "&": fb.and_,
            "|": fb.or_,
            "^": fb.xor,
            "<<": fb.shl,
            ">>": fb.shr if unsigned else fb.sra,
            "==": fb.seq,
            "!=": fb.sne,
        }
        if op in integer_ops:
            integer_ops[op](destination, a, b)
            return
        if op == "<":
            (fb.sltu if unsigned else fb.slt)(destination, a, b)
            return
        if op == "<=":
            if unsigned:
                fb.sgeu(destination, b, a)
            else:
                fb.sle(destination, a, b)
            return
        if op == ">":
            (fb.sltu if unsigned else fb.slt)(destination, b, a)
            return
        if op == ">=":
            (fb.sgeu if unsigned else fb.sge)(destination, a, b)
            return
        raise CodegenError(f"unhandled binary operator {op!r}")

    def _emit_logical(self, expr: ast.BinaryExpr) -> _Value:
        fb = self.fb
        result = self.temps.alloc()
        short_label = self.parent.fresh_label("sc")
        end_label = self.parent.fresh_label("scend")
        left = self._emit_expr(expr.left)
        left_register = self._materialise(left)
        if expr.op == "&&":
            fb.bf(left_register, short_label)
        else:
            fb.bt(left_register, short_label)
        self._release(left)
        right = self._emit_expr(expr.right)
        right_register = self._materialise(right)
        fb.sne(result, right_register, 0)
        self._release(right)
        fb.br(end_label)
        fb.label(short_label)
        fb.mov(result, 0 if expr.op == "&&" else 1)
        fb.label(end_label)
        fb.nop()
        return _Value(register=result, owned=True)

    # ------------------------------------------------------------------ #
    def _emit_assignment(self, expr: ast.AssignExpr) -> _Value:
        target = expr.target
        value_expr = expr.value

        # Compound assignment: rewrite a op= b into a = a op b.
        if expr.op:
            value_expr = ast.BinaryExpr(
                line=expr.line, op=expr.op, left=target, right=expr.value
            )
            value_expr.ctype = expr.ctype
            # Re-use the operand types computed by the checker.
            value_expr.left.ctype = target.ctype
            value_expr.right.ctype = expr.value.ctype

        if isinstance(target, ast.Identifier):
            home = self._home_of(target.decl)
            if home is not None and home.in_register:
                self._emit_expr_into(home.register, value_expr)
                return _Value(register=home.register, owned=False)
            if home is not None:
                value = self._emit_expr(value_expr)
                register = self._materialise(value)
                self.fb.store(register, SP, home.stack_offset)
                return value
            declaration = target.decl
            if isinstance(declaration, ast.VarDecl) and declaration.is_global:
                value = self._emit_expr(value_expr)
                register = self._materialise(value)
                address = self.temps.alloc()
                self.fb.la(address, declaration.name)
                self.fb.store(register, address, 0)
                self.temps.release(address)
                return value
            raise CodegenError(f"cannot assign to {target.name!r}")

        address, _ = self._emit_address(target)
        value = self._emit_expr(value_expr)
        register = self._materialise(value)
        self.fb.store(register, address.register, 0)
        self._release(address)
        return value

    # ------------------------------------------------------------------ #
    def _emit_call(self, expr: ast.CallExpr) -> _Value:
        fb = self.fb
        callee = expr.callee
        if len(expr.arguments) > len(ARGUMENT_REGISTERS):
            raise CodegenError("calls with more than 8 arguments are not supported")

        direct_name: Optional[str] = None
        if isinstance(callee, ast.Identifier):
            if isinstance(callee.decl, ast.FunctionDef):
                direct_name = callee.decl.name
            elif callee.decl is None:
                direct_name = callee.name   # builtin (malloc, setjmp, ...)
        if direct_name == "malloc" or direct_name == "free":
            self.parent._uses_malloc = True
        if direct_name in ("setjmp", "longjmp"):
            self.parent._uses_setjmp = True

        # Evaluate the callee (for indirect calls) and all arguments into
        # *owned temporaries* — only those have spill slots.
        callee_value: Optional[_Value] = None
        if direct_name is None:
            callee_value = self._to_temp(self._emit_expr(callee))
        argument_values = [
            self._to_temp(self._emit_expr(argument)) for argument in expr.arguments
        ]
        argument_registers = [value.register for value in argument_values]

        # Spill every live temporary to its frame slot (arguments included) so
        # the callee cannot clobber them; then load arguments into r3..rN.
        live = self.temps.live_registers()
        for register in live:
            fb.store(register, SP, self._spill_slot(register))
        for position, register in enumerate(argument_registers):
            fb.load(ARGUMENT_REGISTERS[position], SP, self._spill_slot(register))

        if direct_name is not None:
            fb.call(direct_name)
        else:
            callee_register = callee_value.register
            # The callee address itself may live in a caller-saved temp that the
            # spill/reload sequence above preserved; reload it right before use.
            fb.load(callee_register, SP, self._spill_slot(callee_register))
            fb.icall(callee_register)

        # Free argument and callee temps, grab the result, restore live temps.
        for value in argument_values:
            self._release(value)
        if callee_value is not None:
            self._release(callee_value)
        result = self.temps.alloc()
        if result != "r3":
            fb.mov(result, "r3")
        for register in self.temps.live_registers():
            if register != result:
                fb.load(register, SP, self._spill_slot(register))
        return _Value(register=result, owned=True)

    def _to_temp(self, value: _Value) -> _Value:
        """Ensure the value lives in an *owned* caller-saved temporary."""
        if value.owned and value.register in TEMP_REGISTERS:
            return value
        register = self.temps.alloc()
        if value.is_immediate:
            self.fb.mov(register, value.immediate)
        else:
            self.fb.mov(register, value.register)
        self._release(value)
        return _Value(register=register, owned=True)

    def _spill_slot(self, register: str) -> int:
        index = TEMP_REGISTERS.index(register)
        return self.spill_base + index * WORD_SIZE


# --------------------------------------------------------------------------- #
# Convenience entry points
# --------------------------------------------------------------------------- #
def compile_unit(unit: ast.CompilationUnit, entry: str = "main") -> Program:
    """Compile a parsed + type-checked unit into a laid-out IR program."""
    check_types(unit)
    return CodeGenerator(unit, entry=entry).generate()


def compile_source(source: str, entry: str = "main") -> Program:
    """Compile mini-C source text into a laid-out IR program."""
    unit = parse_source(source)
    return compile_unit(unit, entry=entry)
