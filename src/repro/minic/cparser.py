"""Recursive-descent parser for mini-C.

The accepted language is a practical subset of C89 sufficient for the code
patterns the paper discusses: scalar types (``int``, ``unsigned``, ``float``,
``void``), pointers, one-dimensional arrays, all structured control flow plus
``goto``/labels, function definitions with optional variadic ``...``
parameters, function calls (including calls through function-pointer
variables), compound assignment and increment/decrement operators, and simple
casts.  Preprocessor lines are skipped by the lexer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.minic import ast
from repro.minic.lexer import Token, TokenKind, tokenize

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: Deepest nesting the frontend accepts.  Each statement, each pair of
#: parentheses and each level of an expression tree counts one level, so a
#: left-associative chain such as ``x + x + x`` is as deep as it is long.
#: The parser and the passes after it recurse once or more per level (about
#: 6 Python frames per parenthesis), so the limit keeps every accepted
#: program clear of the interpreter's recursion limit, and the verdict does
#: not depend on how deep the caller's stack already is.  The frames would
#: allow a higher limit now, but the limit decides which programs are
#: accepted, and it stays 32 so that no program's verdict changes.
MAX_NESTING = 32

#: Binary operator -> precedence, weakest first.
_BINARY_PRECEDENCE = {
    "||": 0, "&&": 1, "|": 2, "^": 3, "&": 4, "==": 5, "!=": 5,
    "<": 6, ">": 6, "<=": 6, ">=": 6, "<<": 7, ">>": 7,
    "+": 8, "-": 8, "*": 9, "/": 9, "%": 9,
}


class _Parser:
    def __init__(self, tokens: List[Token], source_name: str):
        self.tokens = tokens
        self.position = 0
        self.source_name = source_name
        #: Levels open above the construct being parsed.
        self.depth = 0
        #: Height of the expression tree parse_* returned last.
        self.height = 0
        #: Local declarations and labels of the function being parsed.
        self.locals: List[ast.VarDecl] = []
        self.labels: List[ast.LabelStmt] = []

    # ------------------------------------------------------------------ #
    # Token helpers
    # ------------------------------------------------------------------ #
    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.position += 1
        return token

    def expect_punct(self, symbol: str) -> Token:
        if not self.current.is_punct(symbol):
            raise ParseError(
                f"expected {symbol!r}, found {self.current.text!r}",
                self.current.line,
                self.current.column,
            )
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected an identifier, found {self.current.text!r}",
                self.current.line,
                self.current.column,
            )
        return self.advance()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.current.line, self.current.column)

    def enter(self) -> None:
        """Open one nesting level (closed by ``self.depth -= 1``)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")

    def grow(self, height: int, token: Token) -> int:
        """Check an expression tree of ``height`` built at ``token``."""
        if self.depth + height > MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels", token.line, token.column
            )
        return height

    # ------------------------------------------------------------------ #
    # Types
    # ------------------------------------------------------------------ #
    def at_type_specifier(self) -> bool:
        return self.current.is_keyword(
            "int", "unsigned", "float", "void", "const", "static", "volatile"
        )

    def parse_type_specifier(self) -> ast.Type:
        # Skip qualifiers / storage classes (they do not affect code generation
        # or the implemented guideline rules).
        while self.current.is_keyword("const", "static", "volatile"):
            self.advance()
        token = self.current
        if token.is_keyword("unsigned"):
            self.advance()
            if self.current.is_keyword("int"):
                self.advance()
            return ast.UNSIGNED
        if token.is_keyword("int"):
            self.advance()
            return ast.INT
        if token.is_keyword("float"):
            self.advance()
            return ast.FLOAT
        if token.is_keyword("void"):
            self.advance()
            return ast.VOID
        raise self.error(f"expected a type name, found {token.text!r}")

    def parse_pointers(self, base: ast.Type) -> ast.Type:
        result = base
        while self.current.is_punct("*"):
            self.advance()
            while self.current.is_keyword("const", "volatile"):
                self.advance()
            result = ast.PointerType(result)
        return result

    # ------------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------------ #
    def parse_unit(self) -> ast.CompilationUnit:
        unit = ast.CompilationUnit(source_name=self.source_name)
        while self.current.kind is not TokenKind.EOF:
            if self.current.is_punct(";"):
                self.advance()
                continue
            self.parse_external_declaration(unit)
        return unit

    def parse_external_declaration(self, unit: ast.CompilationUnit) -> None:
        line = self.current.line
        base = self.parse_type_specifier()
        declared = self.parse_pointers(base)
        name_token = self.expect_ident()

        if self.current.is_punct("("):
            unit.functions.append(self.parse_function(declared, name_token, line))
            return

        # Global variable declaration(s).
        while True:
            var_type = declared
            if self.current.is_punct("["):
                self.advance()
                if self.current.kind is not TokenKind.INT:
                    raise self.error("global array sizes must be integer literals")
                length = int(self.advance().value)
                self.expect_punct("]")
                var_type = ast.ArrayType(var_type, length)
            init: Optional[ast.Expr] = None
            if self.current.is_punct("="):
                self.advance()
                init = self.parse_assignment()
            unit.globals.append(
                ast.VarDecl(
                    line=line,
                    name=name_token.text,
                    var_type=var_type,
                    init=init,
                    is_global=True,
                )
            )
            if self.current.is_punct(","):
                self.advance()
                declared = self.parse_pointers(base)
                name_token = self.expect_ident()
                continue
            break
        self.expect_punct(";")

    def parse_function(
        self, return_type: ast.Type, name_token: Token, line: int
    ) -> ast.FunctionDef:
        self.expect_punct("(")
        parameters: List[ast.Parameter] = []
        variadic = False
        if self.current.is_punct(")"):
            pass
        elif self.current.is_keyword("void") and self.peek().is_punct(")"):
            self.advance()
        else:
            while True:
                if self.current.is_punct("..."):
                    self.advance()
                    variadic = True
                    break
                param_line = self.current.line
                param_base = self.parse_type_specifier()
                param_type = self.parse_pointers(param_base)
                param_name = ""
                if self.current.kind is TokenKind.IDENT:
                    param_name = self.advance().text
                if self.current.is_punct("["):
                    self.advance()
                    if self.current.kind is TokenKind.INT:
                        self.advance()
                    self.expect_punct("]")
                    param_type = ast.PointerType(param_type)
                parameters.append(
                    ast.Parameter(name=param_name, param_type=param_type, line=param_line)
                )
                if self.current.is_punct(","):
                    self.advance()
                    continue
                break
        self.expect_punct(")")

        body: Optional[ast.CompoundStmt] = None
        self.locals, self.labels = [], []
        if self.current.is_punct("{"):
            body = self.parse_compound()
        else:
            self.expect_punct(";")
        return ast.FunctionDef(
            name=name_token.text,
            return_type=return_type,
            parameters=parameters,
            variadic=variadic,
            body=body,
            line=line,
            locals=self.locals,
            labels=self.labels,
        )

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def parse_compound(self) -> ast.CompoundStmt:
        start = self.expect_punct("{")
        block = ast.CompoundStmt(line=start.line)
        while not self.current.is_punct("}"):
            if self.current.kind is TokenKind.EOF:
                raise self.error("unterminated block")
            block.statements.append(self.parse_block_item())
        self.expect_punct("}")
        return block

    def parse_block_item(self) -> ast.Node:
        if self.at_type_specifier():
            return self.parse_local_declaration()
        return self.parse_statement()

    def parse_local_declaration(self) -> ast.Stmt:
        line = self.current.line
        base = self.parse_type_specifier()
        declarations: List[ast.VarDecl] = []
        while True:
            var_type = self.parse_pointers(base)
            name = self.expect_ident().text
            if self.current.is_punct("["):
                self.advance()
                if self.current.kind is not TokenKind.INT:
                    raise self.error("local array sizes must be integer literals")
                length = int(self.advance().value)
                self.expect_punct("]")
                var_type = ast.ArrayType(var_type, length)
            init: Optional[ast.Expr] = None
            if self.current.is_punct("="):
                self.advance()
                init = self.parse_assignment()
            declarations.append(
                ast.VarDecl(line=line, name=name, var_type=var_type, init=init)
            )
            self.locals.append(declarations[-1])
            if self.current.is_punct(","):
                self.advance()
                continue
            break
        self.expect_punct(";")
        if len(declarations) == 1:
            return declarations[0]
        block = ast.CompoundStmt(line=line)
        block.statements.extend(declarations)
        return block

    def parse_statement(self) -> ast.Stmt:
        self.enter()
        statement = self._statement()
        self.depth -= 1
        return statement

    def _statement(self) -> ast.Stmt:
        token = self.current
        line = token.line

        if token.is_punct("{"):
            return self.parse_compound()
        if token.is_keyword("if"):
            return self.parse_if()
        if token.is_keyword("while"):
            return self.parse_while()
        if token.is_keyword("do"):
            return self.parse_do_while()
        if token.is_keyword("for"):
            return self.parse_for()
        if token.is_keyword("return"):
            self.advance()
            value = None if self.current.is_punct(";") else self.parse_expression()
            self.expect_punct(";")
            return ast.ReturnStmt(line=line, value=value)
        if token.is_keyword("break"):
            self.advance()
            self.expect_punct(";")
            return ast.BreakStmt(line=line)
        if token.is_keyword("continue"):
            self.advance()
            self.expect_punct(";")
            return ast.ContinueStmt(line=line)
        if token.is_keyword("goto"):
            self.advance()
            label = self.expect_ident().text
            self.expect_punct(";")
            return ast.GotoStmt(line=line, label=label)
        if token.kind is TokenKind.IDENT and self.peek().is_punct(":"):
            label = ast.LabelStmt(line=line, label=self.advance().text)
            # Recorded before the statement it labels, as walk() yields it.
            self.labels.append(label)
            self.advance()  # ':'
            label.statement = (
                ast.EmptyStmt(line=line)
                if self.current.is_punct("}")
                else self.parse_statement()
            )
            return label
        if token.is_punct(";"):
            self.advance()
            return ast.EmptyStmt(line=line)

        expr = self.parse_expression()
        self.expect_punct(";")
        return ast.ExprStmt(line=line, expr=expr)

    def parse_if(self) -> ast.IfStmt:
        line = self.advance().line
        self.expect_punct("(")
        condition = self.parse_expression()
        self.expect_punct(")")
        then_branch = self.parse_statement()
        else_branch = None
        if self.current.is_keyword("else"):
            self.advance()
            else_branch = self.parse_statement()
        return ast.IfStmt(
            line=line, condition=condition, then_branch=then_branch, else_branch=else_branch
        )

    def parse_while(self) -> ast.WhileStmt:
        line = self.advance().line
        self.expect_punct("(")
        condition = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.WhileStmt(line=line, condition=condition, body=body)

    def parse_do_while(self) -> ast.DoWhileStmt:
        line = self.advance().line
        body = self.parse_statement()
        if not self.current.is_keyword("while"):
            raise self.error("expected 'while' after do-while body")
        self.advance()
        self.expect_punct("(")
        condition = self.parse_expression()
        self.expect_punct(")")
        self.expect_punct(";")
        return ast.DoWhileStmt(line=line, body=body, condition=condition)

    def parse_for(self) -> ast.ForStmt:
        line = self.advance().line
        self.expect_punct("(")
        init: Optional[ast.Node] = None
        if not self.current.is_punct(";"):
            if self.at_type_specifier():
                init = self.parse_local_declaration()
            else:
                expr = self.parse_expression()
                self.expect_punct(";")
                init = ast.ExprStmt(line=line, expr=expr)
        else:
            self.advance()
        condition = None
        if not self.current.is_punct(";"):
            condition = self.parse_expression()
        self.expect_punct(";")
        step = None
        if not self.current.is_punct(")"):
            step = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.ForStmt(line=line, init=init, condition=condition, step=step, body=body)

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def parse_expression(self) -> ast.Expr:
        expr = self.parse_assignment()
        height = self.height
        while self.current.is_punct(","):
            token = self.advance()
            right = self.parse_assignment()
            height = self.grow(max(height, self.height) + 1, token)
            expr = ast.BinaryExpr(line=expr.line, op=",", left=expr, right=right)
        self.height = height
        return expr

    def parse_assignment(self) -> ast.Expr:
        target = self.parse_binary(0)
        if self.current.kind is TokenKind.PUNCT and self.current.text in _ASSIGN_OPS:
            height = self.height
            op_token = self.advance()
            self.enter()
            value = self.parse_assignment()
            self.depth -= 1
            self.height = max(height, self.height) + 1
            op = op_token.text[:-1] if op_token.text != "=" else ""
            return ast.AssignExpr(line=op_token.line, op=op, target=target, value=value)
        if self.current.is_punct("?"):
            raise self.error("the conditional operator '?:' is not supported by mini-C")
        return target

    def parse_binary(self, min_precedence: int) -> ast.Expr:
        """Precedence climbing: one call per operand, left-associative."""
        left = self.parse_unary()
        height = self.height
        while True:
            op_token = self.current
            if op_token.kind is not TokenKind.PUNCT:
                break
            precedence = _BINARY_PRECEDENCE.get(op_token.text, -1)
            if precedence < min_precedence:
                break
            self.advance()
            right = self.parse_binary(precedence + 1)
            height = self.grow(max(height, self.height) + 1, op_token)
            left = ast.BinaryExpr(
                line=op_token.line, op=op_token.text, left=left, right=right
            )
        self.height = height
        return left

    def parse_unary(self) -> ast.Expr:
        token = self.current
        if token.is_punct("+", "-", "!", "~", "*", "&", "++", "--"):
            self.advance()
            self.enter()
            operand = self.parse_unary()
            self.depth -= 1
            if token.text == "+":
                return operand
            self.height += 1
            return ast.UnaryExpr(line=token.line, op=token.text, operand=operand)
        if token.is_keyword("sizeof"):
            self.advance()
            self.expect_punct("(")
            self.enter()
            if self.at_type_specifier():
                self.parse_pointers(self.parse_type_specifier())
            else:
                self.parse_expression()
            self.depth -= 1
            self.expect_punct(")")
            self.height = 1
            return ast.IntLiteral(line=token.line, value=4)
        # Cast: '(' type ')' unary
        if token.is_punct("(") and self.peek().is_keyword(
            "int", "unsigned", "float", "void", "const"
        ):
            self.advance()
            cast_type = self.parse_pointers(self.parse_type_specifier())
            self.expect_punct(")")
            self.enter()
            operand = self.parse_unary()
            self.depth -= 1
            self.height += 1
            cast = ast.UnaryExpr(line=token.line, op="cast", operand=operand)
            cast.ctype = cast_type
            return cast
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        height = self.height
        while True:
            token = self.current
            if token.is_punct("["):
                self.advance()
                self.enter()
                index = self.parse_expression()
                self.depth -= 1
                height = max(height, self.height)
                self.expect_punct("]")
                expr = ast.IndexExpr(line=token.line, base=expr, index=index)
            elif token.is_punct("("):
                self.advance()
                arguments: List[ast.Expr] = []
                if not self.current.is_punct(")"):
                    self.enter()
                    while True:
                        arguments.append(self.parse_assignment())
                        height = max(height, self.height)
                        if self.current.is_punct(","):
                            self.advance()
                            continue
                        break
                    self.depth -= 1
                self.expect_punct(")")
                expr = ast.CallExpr(line=token.line, callee=expr, arguments=arguments)
            elif token.is_punct("++", "--"):
                self.advance()
                expr = ast.UnaryExpr(
                    line=token.line, op=token.text, operand=expr, postfix=True
                )
            else:
                break
            height = self.grow(height + 1, token)
        self.height = height
        return expr

    def parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind is TokenKind.INT:
            self.advance()
            self.height = 1
            return ast.IntLiteral(line=token.line, value=int(token.value))
        if token.kind is TokenKind.FLOAT:
            self.advance()
            self.height = 1
            return ast.FloatLiteral(line=token.line, value=float(token.value))
        if token.kind is TokenKind.IDENT:
            self.advance()
            self.height = 1
            return ast.Identifier(line=token.line, name=token.text)
        if token.is_punct("("):
            self.advance()
            self.enter()
            expr = self.parse_expression()
            self.depth -= 1
            self.expect_punct(")")
            return expr
        raise self.error(f"unexpected token {token.text!r} in expression")


def parse_source(source: str, source_name: str = "<memory>") -> ast.CompilationUnit:
    """Parse mini-C source text into a :class:`~repro.minic.ast.CompilationUnit`."""
    tokens = tokenize(source)
    return _Parser(tokens, source_name).parse_unit()
