"""Abstract syntax tree of the mini-C language.

All nodes carry their source ``line`` so that the guideline checker can report
findings with locations and the code generator can tag the emitted IR
instructions (annotations and reports refer back to source lines).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union


# --------------------------------------------------------------------------- #
# Types
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScalarType:
    """``int``, ``unsigned``, ``float`` or ``void``."""

    name: str  # "int" | "unsigned" | "float" | "void"

    @property
    def is_float(self) -> bool:
        return self.name == "float"

    @property
    def is_integer(self) -> bool:
        return self.name in ("int", "unsigned")

    @property
    def is_unsigned(self) -> bool:
        return self.name == "unsigned"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PointerType:
    """Pointer to another type."""

    pointee: "Type"

    @property
    def is_float(self) -> bool:
        return False

    @property
    def is_integer(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType:
    """Fixed-size one-dimensional array."""

    element: "Type"
    length: int

    @property
    def is_float(self) -> bool:
        return False

    @property
    def is_integer(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


@dataclass(frozen=True)
class FunctionType:
    """Type of a function (used for function pointers)."""

    return_type: "Type"
    parameters: Tuple["Type", ...]
    variadic: bool = False

    @property
    def is_float(self) -> bool:
        return False

    @property
    def is_integer(self) -> bool:
        return False

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.parameters)
        if self.variadic:
            params = params + ", ..." if params else "..."
        return f"{self.return_type}({params})"


Type = Union[ScalarType, PointerType, ArrayType, FunctionType]

INT = ScalarType("int")
UNSIGNED = ScalarType("unsigned")
FLOAT = ScalarType("float")
VOID = ScalarType("void")


def type_is_float(t: Optional[Type]) -> bool:
    return isinstance(t, ScalarType) and t.is_float


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #
@dataclass
class Expr:
    """Base class for expressions; ``ctype`` is filled in by the type checker."""

    line: int = 0
    ctype: Optional[Type] = None


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class FloatLiteral(Expr):
    value: float = 0.0


@dataclass
class Identifier(Expr):
    name: str = ""
    #: Resolved declaration (VarDecl, Parameter or FunctionDef); set by the
    #: type checker.
    decl: Optional[object] = None


@dataclass
class UnaryExpr(Expr):
    """``op`` in ``- ! ~ * & ++pre --pre post++ post--``."""

    op: str = ""
    operand: Optional[Expr] = None
    postfix: bool = False


@dataclass
class BinaryExpr(Expr):
    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class AssignExpr(Expr):
    """``target op= value`` where op is '' for plain assignment."""

    op: str = ""
    target: Optional[Expr] = None
    value: Optional[Expr] = None


@dataclass
class CallExpr(Expr):
    callee: Optional[Expr] = None
    arguments: List[Expr] = field(default_factory=list)


@dataclass
class IndexExpr(Expr):
    base: Optional[Expr] = None
    index: Optional[Expr] = None


# --------------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------------- #
@dataclass
class Stmt:
    line: int = 0


@dataclass
class CompoundStmt(Stmt):
    statements: List["Node"] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


@dataclass
class IfStmt(Stmt):
    condition: Optional[Expr] = None
    then_branch: Optional[Stmt] = None
    else_branch: Optional[Stmt] = None


@dataclass
class WhileStmt(Stmt):
    condition: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class DoWhileStmt(Stmt):
    body: Optional[Stmt] = None
    condition: Optional[Expr] = None


@dataclass
class ForStmt(Stmt):
    init: Optional["Node"] = None          # expression statement or declaration
    condition: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class GotoStmt(Stmt):
    label: str = ""


@dataclass
class LabelStmt(Stmt):
    label: str = ""
    statement: Optional[Stmt] = None


@dataclass
class EmptyStmt(Stmt):
    pass


# --------------------------------------------------------------------------- #
# Declarations
# --------------------------------------------------------------------------- #
@dataclass
class VarDecl(Stmt):
    """A variable declaration (global or local)."""

    name: str = ""
    var_type: Optional[Type] = None
    init: Optional[Expr] = None
    is_global: bool = False
    #: Filled by the code generator: True when the address of the variable is
    #: taken somewhere (forces a stack slot instead of a register).
    address_taken: bool = False


@dataclass
class Parameter:
    name: str
    param_type: Type
    line: int = 0


@dataclass
class FunctionDef:
    """A function definition (or a prototype when ``body`` is ``None``)."""

    name: str
    return_type: Type
    parameters: List[Parameter] = field(default_factory=list)
    variadic: bool = False
    body: Optional[CompoundStmt] = None
    line: int = 0
    #: The body's local declarations and labels, in the pre-order ``walk``
    #: yields them; the parser records them as it creates them.
    locals: List[VarDecl] = field(default_factory=list)
    labels: List[LabelStmt] = field(default_factory=list)

    @property
    def is_prototype(self) -> bool:
        return self.body is None

    def function_type(self) -> FunctionType:
        return FunctionType(
            return_type=self.return_type,
            parameters=tuple(p.param_type for p in self.parameters),
            variadic=self.variadic,
        )


Node = Union[Stmt, Expr, VarDecl, FunctionDef]


@dataclass
class CompilationUnit:
    """A parsed source file: globals + functions, in declaration order."""

    globals: List[VarDecl] = field(default_factory=list)
    functions: List[FunctionDef] = field(default_factory=list)
    source_name: str = "<memory>"

    def function(self, name: str) -> Optional[FunctionDef]:
        for function in self.functions:
            if function.name == name and not function.is_prototype:
                return function
        for function in self.functions:
            if function.name == name:
                return function
        return None

    def defined_functions(self) -> List[FunctionDef]:
        return [f for f in self.functions if not f.is_prototype]


# --------------------------------------------------------------------------- #
# Generic traversal helpers (used by the guideline checker)
# --------------------------------------------------------------------------- #
#: Attributes that hold *references* to other nodes (resolved declarations,
#: computed types, a function's recorded locals and labels) rather than
#: syntactic children; traversals must not follow them or globals would
#: appear "inside" every function that mentions them.
_NON_CHILD_ATTRIBUTES = {"decl", "ctype", "locals", "labels"}


#: Per-class cache of the attribute names a traversal must look at.  AST
#: nodes are dataclasses, so their syntactic children always live in declared
#: fields; the only dynamically attached attributes (``decl``, ``ctype``) are
#: exactly the non-child references excluded from traversal.
_CHILD_FIELD_CACHE: dict = {}

_CHILD_TYPES = None  # resolved lazily: (Expr, Stmt, VarDecl, FunctionDef)


def _child_fields(cls: type):
    names = _CHILD_FIELD_CACHE.get(cls)
    if names is None:
        if dataclasses.is_dataclass(cls):
            names = tuple(
                f.name
                for f in dataclasses.fields(cls)
                if f.name not in _NON_CHILD_ATTRIBUTES
            )
        else:
            names = None
        _CHILD_FIELD_CACHE[cls] = names
    return names


def child_nodes(node: object) -> List[object]:
    """Immediate syntactic AST children of ``node``."""
    global _CHILD_TYPES
    if _CHILD_TYPES is None:
        _CHILD_TYPES = (Expr, Stmt, VarDecl, FunctionDef)
    child_types = _CHILD_TYPES
    children: List[object] = []
    append = children.append

    names = _child_fields(node.__class__)
    if names is None:
        # Non-dataclass object: fall back to instance-dict discovery.
        if not hasattr(node, "__dict__"):
            return children
        names = tuple(
            name for name in vars(node) if name not in _NON_CHILD_ATTRIBUTES
        )
    def add_from_list(values: list) -> None:
        for item in values:
            if isinstance(item, child_types):
                append(item)
            elif isinstance(item, list):
                add_from_list(item)

    for name in names:
        value = getattr(node, name)
        if isinstance(value, child_types):
            append(value)
        elif isinstance(value, list):
            add_from_list(value)
    return children


def walk(node: object):
    """Depth-first pre-order traversal over all AST nodes under ``node``."""
    yield node
    for child in child_nodes(node):
        yield from walk(child)
