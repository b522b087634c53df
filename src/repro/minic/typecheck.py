"""Name resolution and type checking for mini-C.

The checker is deliberately permissive (it accepts everything a C compiler
would warn about but still compile) — its job is to

* resolve every :class:`~repro.minic.ast.Identifier` to its declaration,
* compute the C type of every expression (``ctype``), which the code generator
  needs to select integer vs. float vs. unsigned instructions and to scale
  pointer arithmetic,
* mark variables whose address is taken (they must live in memory),
* verify call arity (except for variadic functions) and ``goto`` label
  existence.

Calls to the builtin functions ``malloc``, ``free``, ``setjmp`` and ``longjmp``
are accepted without declarations; the code generator synthesises their
bodies.  (Their *presence* is what MISRA rules 20.4 / 20.7 flag.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import TypeCheckError
from repro.minic import ast

#: Builtin functions the code generator knows how to synthesise.
BUILTIN_FUNCTIONS: Dict[str, ast.FunctionType] = {
    "malloc": ast.FunctionType(ast.PointerType(ast.INT), (ast.UNSIGNED,)),
    "free": ast.FunctionType(ast.VOID, (ast.PointerType(ast.INT),)),
    "setjmp": ast.FunctionType(ast.INT, (ast.PointerType(ast.INT),)),
    "longjmp": ast.FunctionType(ast.VOID, (ast.PointerType(ast.INT), ast.INT)),
}


@dataclass
class _Scope:
    parent: Optional["_Scope"] = None
    symbols: Dict[str, object] = field(default_factory=dict)

    def define(self, name: str, declaration: object) -> None:
        self.symbols[name] = declaration

    def lookup(self, name: str) -> Optional[object]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class TypeChecker:
    """Resolves names and computes expression types for one compilation unit."""

    def __init__(self, unit: ast.CompilationUnit):
        self.unit = unit
        self.globals = _Scope()
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.errors: List[str] = []

    # ------------------------------------------------------------------ #
    def check(self) -> ast.CompilationUnit:
        for declaration in self.unit.globals:
            if declaration.name in self.globals.symbols:
                raise TypeCheckError(
                    f"duplicate global {declaration.name!r}", declaration.line
                )
            self.globals.define(declaration.name, declaration)
            if declaration.init is not None:
                self._check_expr(declaration.init, self.globals)

        for function in self.unit.functions:
            existing = self.functions.get(function.name)
            if existing is not None and not existing.is_prototype and not function.is_prototype:
                raise TypeCheckError(
                    f"duplicate function definition {function.name!r}", function.line
                )
            if existing is None or existing.is_prototype:
                self.functions[function.name] = function
            self.globals.define(function.name, self.functions[function.name])

        for function in self.unit.defined_functions():
            self._check_function(function)
        return self.unit

    # ------------------------------------------------------------------ #
    def _check_function(self, function: ast.FunctionDef) -> None:
        scope = _Scope(parent=self.globals)
        for parameter in function.parameters:
            if parameter.name:
                scope.define(parameter.name, parameter)
        labels: Dict[str, ast.LabelStmt] = {}
        for label in function.labels:
            if label.label in labels:
                raise TypeCheckError(f"duplicate label {label.label!r}", label.line)
            labels[label.label] = label
        self._check_stmt(function.body, scope, function, labels)

    # ------------------------------------------------------------------ #
    def _check_stmt(
        self,
        statement: Optional[ast.Stmt],
        scope: _Scope,
        function: ast.FunctionDef,
        labels: Dict[str, ast.LabelStmt],
    ) -> None:
        if statement is None:
            return
        if isinstance(statement, ast.CompoundStmt):
            inner = _Scope(parent=scope)
            for item in statement.statements:
                if isinstance(item, ast.VarDecl):
                    self._check_local(item, inner)
                elif isinstance(item, ast.Stmt):
                    self._check_stmt(item, inner, function, labels)
                else:
                    self._check_expr(item, inner)
            return
        if isinstance(statement, ast.VarDecl):
            self._check_local(statement, scope)
            return
        if isinstance(statement, ast.ExprStmt):
            if statement.expr is not None:
                self._check_expr(statement.expr, scope)
            return
        if isinstance(statement, ast.IfStmt):
            self._check_expr(statement.condition, scope)
            self._check_stmt(statement.then_branch, scope, function, labels)
            self._check_stmt(statement.else_branch, scope, function, labels)
            return
        if isinstance(statement, ast.WhileStmt):
            self._check_expr(statement.condition, scope)
            self._check_stmt(statement.body, scope, function, labels)
            return
        if isinstance(statement, ast.DoWhileStmt):
            self._check_stmt(statement.body, scope, function, labels)
            self._check_expr(statement.condition, scope)
            return
        if isinstance(statement, ast.ForStmt):
            inner = _Scope(parent=scope)
            if isinstance(statement.init, ast.VarDecl):
                self._check_local(statement.init, inner)
            elif isinstance(statement.init, ast.ExprStmt) and statement.init.expr is not None:
                self._check_expr(statement.init.expr, inner)
            elif isinstance(statement.init, ast.CompoundStmt):
                self._check_stmt(statement.init, inner, function, labels)
            if statement.condition is not None:
                self._check_expr(statement.condition, inner)
            if statement.step is not None:
                self._check_expr(statement.step, inner)
            self._check_stmt(statement.body, inner, function, labels)
            return
        if isinstance(statement, ast.ReturnStmt):
            if statement.value is not None:
                self._check_expr(statement.value, scope)
            return
        if isinstance(statement, ast.GotoStmt):
            if statement.label not in labels:
                raise TypeCheckError(
                    f"goto to undefined label {statement.label!r}", statement.line
                )
            return
        if isinstance(statement, ast.LabelStmt):
            self._check_stmt(statement.statement, scope, function, labels)
            return
        if isinstance(statement, (ast.BreakStmt, ast.ContinueStmt, ast.EmptyStmt)):
            return
        raise TypeCheckError(f"unhandled statement {type(statement).__name__}", statement.line)

    def _check_local(self, declaration: ast.VarDecl, scope: _Scope) -> None:
        scope.define(declaration.name, declaration)
        if isinstance(declaration.var_type, ast.ArrayType):
            declaration.address_taken = True
        if declaration.init is not None:
            self._check_expr(declaration.init, scope)

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def _check_expr(self, expr: ast.Expr, scope: _Scope) -> ast.Type:
        result = self._infer(expr, scope)
        expr.ctype = result
        return result

    def _infer(self, expr: ast.Expr, scope: _Scope) -> ast.Type:
        if isinstance(expr, ast.IntLiteral):
            return ast.INT
        if isinstance(expr, ast.FloatLiteral):
            return ast.FLOAT
        if isinstance(expr, ast.Identifier):
            declaration = scope.lookup(expr.name)
            if declaration is None:
                raise TypeCheckError(f"undeclared identifier {expr.name!r}", expr.line)
            expr.decl = declaration
            if isinstance(declaration, ast.VarDecl):
                return declaration.var_type
            if isinstance(declaration, ast.Parameter):
                return declaration.param_type
            if isinstance(declaration, ast.FunctionDef):
                return declaration.function_type()
            raise TypeCheckError(f"cannot use {expr.name!r} in an expression", expr.line)
        if isinstance(expr, ast.UnaryExpr):
            return self._infer_unary(expr, scope)
        if isinstance(expr, ast.BinaryExpr):
            return self._infer_binary(expr, scope)
        if isinstance(expr, ast.AssignExpr):
            target_type = self._check_expr(expr.target, scope)
            self._check_expr(expr.value, scope)
            return target_type
        if isinstance(expr, ast.CallExpr):
            return self._infer_call(expr, scope)
        if isinstance(expr, ast.IndexExpr):
            base_type = self._check_expr(expr.base, scope)
            self._check_expr(expr.index, scope)
            if isinstance(base_type, ast.ArrayType):
                return base_type.element
            if isinstance(base_type, ast.PointerType):
                return base_type.pointee
            raise TypeCheckError("indexing a non-array, non-pointer value", expr.line)
        raise TypeCheckError(f"unhandled expression {type(expr).__name__}", expr.line)

    def _infer_unary(self, expr: ast.UnaryExpr, scope: _Scope) -> ast.Type:
        if expr.op == "cast":
            self._check_expr(expr.operand, scope)
            return expr.ctype or ast.INT
        operand_type = self._check_expr(expr.operand, scope)
        if expr.op == "&":
            target = expr.operand
            if isinstance(target, ast.Identifier) and isinstance(target.decl, ast.VarDecl):
                target.decl.address_taken = True
            if isinstance(target, ast.Identifier) and isinstance(target.decl, ast.FunctionDef):
                return ast.PointerType(target.decl.function_type())
            return ast.PointerType(operand_type)
        if expr.op == "*":
            if isinstance(operand_type, ast.PointerType):
                return operand_type.pointee
            if isinstance(operand_type, ast.ArrayType):
                return operand_type.element
            raise TypeCheckError("dereferencing a non-pointer value", expr.line)
        if expr.op == "!":
            return ast.INT
        if expr.op in ("++", "--"):
            return operand_type
        if expr.op == "~":
            return operand_type if isinstance(operand_type, ast.ScalarType) else ast.INT
        if expr.op == "-":
            return operand_type
        return operand_type

    def _infer_binary(self, expr: ast.BinaryExpr, scope: _Scope) -> ast.Type:
        left = self._check_expr(expr.left, scope)
        right = self._check_expr(expr.right, scope)
        op = expr.op
        if op == ",":
            return right
        if op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return ast.INT
        # Pointer arithmetic keeps the pointer type.
        if isinstance(left, (ast.PointerType, ast.ArrayType)) and op in ("+", "-"):
            if isinstance(right, (ast.PointerType, ast.ArrayType)) and op == "-":
                return ast.INT
            return left if isinstance(left, ast.PointerType) else ast.PointerType(
                left.element
            )
        if isinstance(right, (ast.PointerType, ast.ArrayType)) and op == "+":
            return right if isinstance(right, ast.PointerType) else ast.PointerType(
                right.element
            )
        if ast.type_is_float(left) or ast.type_is_float(right):
            return ast.FLOAT
        if (isinstance(left, ast.ScalarType) and left.is_unsigned) or (
            isinstance(right, ast.ScalarType) and right.is_unsigned
        ):
            return ast.UNSIGNED
        return ast.INT

    def _infer_call(self, expr: ast.CallExpr, scope: _Scope) -> ast.Type:
        callee = expr.callee
        for argument in expr.arguments:
            self._check_expr(argument, scope)

        if isinstance(callee, ast.Identifier):
            declaration = scope.lookup(callee.name)
            if declaration is None:
                builtin = BUILTIN_FUNCTIONS.get(callee.name)
                if builtin is not None:
                    callee.ctype = builtin
                    return builtin.return_type
                raise TypeCheckError(
                    f"call to undeclared function {callee.name!r}", expr.line
                )
            callee.decl = declaration
            if isinstance(declaration, ast.FunctionDef):
                callee.ctype = declaration.function_type()
                if not declaration.variadic and len(expr.arguments) != len(
                    declaration.parameters
                ):
                    raise TypeCheckError(
                        f"call to {declaration.name!r} with {len(expr.arguments)} "
                        f"arguments, expected {len(declaration.parameters)}",
                        expr.line,
                    )
                return declaration.return_type
            # Calling through a function-pointer variable.
            var_type = (
                declaration.var_type
                if isinstance(declaration, ast.VarDecl)
                else declaration.param_type
                if isinstance(declaration, ast.Parameter)
                else None
            )
            function_type = _as_function_type(var_type)
            if function_type is not None:
                callee.ctype = var_type
                return function_type.return_type
            if isinstance(var_type, ast.PointerType) or (
                isinstance(var_type, ast.ScalarType) and var_type.is_integer
            ):
                # C-style function pointer stored in a plain pointer/integer
                # variable (the event-handler pattern from Section 3.2); the
                # call is accepted and assumed to return int.
                callee.ctype = var_type
                return ast.INT
            raise TypeCheckError(
                f"{callee.name!r} is not a function or function pointer", expr.line
            )

        callee_type = self._check_expr(callee, scope)
        function_type = _as_function_type(callee_type)
        if function_type is None:
            raise TypeCheckError("called object is not a function", expr.line)
        return function_type.return_type


def _as_function_type(candidate: Optional[ast.Type]) -> Optional[ast.FunctionType]:
    if isinstance(candidate, ast.FunctionType):
        return candidate
    if isinstance(candidate, ast.PointerType) and isinstance(
        candidate.pointee, ast.FunctionType
    ):
        return candidate.pointee
    return None


def check_types(unit: ast.CompilationUnit) -> ast.CompilationUnit:
    """Run the type checker in place and return the annotated unit."""
    return TypeChecker(unit).check()
