"""Seeded, grammar-driven mini-C program generator.

The generator builds a small structured program model (:class:`GeneratedCase`)
and renders it to mini-C source plus the :class:`AnnotationSet` the WCET
analyzer needs.  Keeping the structured form around (instead of only source
text) is what makes the delta-debugging shrinker practical: transformations
remove statements or functions from the model and re-render, so loop-bound
annotations — which reference ``loop_<line>`` labels — are recomputed from the
new line numbers instead of going stale.

Every generated program is, by construction:

* **well typed** — only ``int`` scalars, ``int`` arrays and ``int *``
  parameters are emitted, and every name is declared before use;
* **terminating** — all loops are counter loops with constant bounds (or
  annotated goto cycles with constant trip counts) and all calls go strictly
  "downward" in the function list, except opt-in recursive helpers whose
  depth is bounded by construction and declared via a ``recursion``
  annotation;
* **memory safe** — array indices are either constants below the array length
  or loop counters whose bound does not exceed the array length (or inputs
  masked with ``& (len - 1)``);
* **analysable** — loops whose exit condition the value analysis may not see
  through (data-dependent ``break``) carry a loop-bound annotation that is
  correct by construction.

Inputs are modelled as dedicated global scalars/arrays with a declared value
range; the oracle enumerates concrete input vectors for them.  The feature mix
(:class:`FeatureMix`) makes the grammar configurable: probabilities and limits
for conditionals, loop kinds, call depth, arrays, pointer writes, annotated
loops, and masked input-dependent indexing.

Three grammar regions target the engine's special-cased hard spots and are
**off by default** (so historical seeds render byte-identically) — the fuzz
fleet (:mod:`repro.testing.fuzz`) rotates presets that switch them on:

* ``allow_recursion`` — self-recursive helpers with a constant depth cap,
  declared via a ``recursion`` annotation (the analyzer's
  recursive-component path, which is excluded from the summary cache);
* ``allow_goto_loops`` — irreducible two-entry goto cycles bounded only by
  a label-anchored ``loopbound`` annotation (the IPET's non-canonical-header
  path);
* ``allow_function_pointers`` — indirect calls through ``int *`` handler
  variables; :func:`render_case` compiles the rendered source to discover
  the ``icall`` instruction addresses and emits the matching ``calltargets``
  control-flow hints, without which CFG reconstruction refuses them.  It
  keeps that compiled program on the :class:`RenderedCase`, so the oracle
  analyses and replays it instead of compiling the source a second time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.annotations import AnnotationSet

if TYPE_CHECKING:
    from repro.ir.program import Program

#: Length of every generated input/state array (a power of two so masked
#: input-dependent indices are in bounds by construction).
ARRAY_LENGTH = 8


# --------------------------------------------------------------------------- #
# Program model
# --------------------------------------------------------------------------- #
@dataclass
class GlobalVar:
    """One global variable of the generated program.

    ``length`` is ``None`` for scalars.  ``is_input`` marks the variable as an
    oracle input: its initial contents are enumerated per run within
    ``[low, high]``.  Non-input globals start at ``initial``.
    """

    name: str
    length: Optional[int] = None
    initial: int = 0
    is_input: bool = False
    low: int = -8
    high: int = 8


@dataclass
class SAssign:
    """``lhs = expr;`` — lhs is a scalar name or an array element."""

    lhs: str
    expr: str


@dataclass
class SIf:
    cond: str
    then: List["Stmt"] = field(default_factory=list)
    els: List["Stmt"] = field(default_factory=list)


@dataclass
class SFor:
    """``for (var = 0; var < bound; var = var + 1) { body }``.

    ``annotate`` optionally carries an explicit loop-bound annotation (the
    declared bound); the automatic loop-bound analysis finds counter loops on
    its own, so most for loops leave it ``None``.
    """

    var: str
    bound: int
    body: List["Stmt"] = field(default_factory=list)
    annotate: Optional[int] = None


@dataclass
class SWhileBreak:
    """An annotated while loop with an optional data-dependent early exit::

        while (var < bound) {
            <body>
            if (<break_cond>) { break; }
            var = var + 1;
        }

    ``annotate`` is the declared iteration bound emitted as a ``loopbound``
    annotation.  A *correct* declaration equals ``bound``; the known-bad
    program used to validate the shrinker deliberately declares less.
    """

    var: str
    bound: int
    body: List["Stmt"] = field(default_factory=list)
    break_cond: Optional[str] = None
    annotate: Optional[int] = None


@dataclass
class SCall:
    """``lhs = callee(args);`` or a bare ``callee(args);`` when lhs is None."""

    callee: str
    args: List[str] = field(default_factory=list)
    lhs: Optional[str] = None


@dataclass
class SReturn:
    expr: str


@dataclass
class SGotoLoop:
    """An irreducible two-entry goto cycle (the corpus ``goto mid`` idiom)::

        <var> = 0;
        goto gl<uid>_mid;
    gl<uid>_top:
        <body>
    gl<uid>_mid:
        <var> = <var> + 1;
        if (<var> < <bound>) {
            goto gl<uid>_top;
        }

    The cycle is entered at ``mid`` (never at ``top``), so the loop's
    canonical header has no external predecessor — the exact shape that once
    degenerated the IPET loop-bound constraint to ``back edges <= 0``
    (corpus seed ``adversarial-irreducible-goto-loop``).  The automatic
    loop-bound analysis cannot see through the gotos; a ``loopbound``
    annotation anchored on the *label* (``fn.gl<uid>_top``) bounds it.
    Labels are derived from ``uid``, not line numbers, so shrinking a case
    never stales them.  ``body`` executes ``bound - 1`` times; ``annotate``
    (>= bound - 1 back edges) is emitted as the loop-bound annotation.
    """

    uid: int
    var: str
    bound: int
    body: List["Stmt"] = field(default_factory=list)
    annotate: int = 1


@dataclass
class SFnPtrCall:
    """An indirect call through a function-pointer variable::

        int *fp<uid> = &<primary>;
        if (<cond>) {
            fp<uid> = &<alternate>;
        }
        <lhs> = fp<uid>();

    Compiles to an ``icall`` instruction; :func:`render_case` discovers its
    address post-compile and emits the matching ``calltargets`` hint with
    ``{primary, alternate}`` as the candidate set (CFG reconstruction refuses
    unhinted indirect calls).  ``alternate``/``cond`` are optional —
    ``None`` renders a single-target pointer call.
    """

    uid: int
    primary: str
    lhs: str
    alternate: Optional[str] = None
    cond: Optional[str] = None

    def targets(self) -> Tuple[str, ...]:
        if self.alternate is not None and self.alternate != self.primary:
            return (self.primary, self.alternate)
        return (self.primary,)


Stmt = Union[SAssign, SIf, SFor, SWhileBreak, SCall, SReturn, SGotoLoop, SFnPtrCall]


@dataclass
class Param:
    name: str
    is_pointer: bool = False


@dataclass
class GFunction:
    name: str
    params: List[Param] = field(default_factory=list)
    locals_: List[Tuple[str, str]] = field(default_factory=list)  # (name, init expr)
    body: List[Stmt] = field(default_factory=list)
    return_expr: str = "0"
    returns_void: bool = False
    #: Inclusive value range of each scalar argument at every generated call
    #: site; rendered as an ``argrange`` annotation when set.
    arg_ranges: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Set on self-recursive helpers: the maximum number of activations one
    #: outer call can cause (depth cap + 1).  Rendered as a ``recursion``
    #: annotation; call sites only ever pass constant arguments inside
    #: ``arg_ranges``, so the declared depth holds by construction.
    recursion_depth: Optional[int] = None


@dataclass
class GeneratedCase:
    """One generated program: globals + functions (entry last) + metadata."""

    name: str
    seed: int
    globals_: List[GlobalVar] = field(default_factory=list)
    functions: List[GFunction] = field(default_factory=list)
    entry: str = "main"
    max_steps: int = 2_000_000
    notes: str = ""

    def input_variables(self) -> List[GlobalVar]:
        return [g for g in self.globals_ if g.is_input]

    def function(self, name: str) -> GFunction:
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(name)


@dataclass
class RenderedCase:
    """The source text and annotations obtained from one program model."""

    source: str
    annotations: AnnotationSet
    line_count: int
    #: The source compiled with entry ``main``, when rendering had to compile
    #: it (function-pointer sites); ``None`` otherwise.  A by-product of
    #: rendering, so it takes no part in equality.
    program: Optional["Program"] = field(default=None, compare=False, repr=False)


# --------------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------------- #
class _Emitter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        #: Function-pointer call sites in emission order; each entry is the
        #: candidate-target tuple of one ``icall``-to-be.
        self.fnptr_sites: List[Tuple[str, ...]] = []

    def emit(self, indent: int, text: str) -> int:
        self.lines.append("    " * indent + text)
        return len(self.lines)


def _attach_call_target_hints(
    source: str, annotations: AnnotationSet, sites: List[Tuple[str, ...]]
) -> Optional["Program"]:
    """Resolve the rendered function-pointer call sites to ``icall`` addresses.

    ``calltargets`` hints are keyed by instruction *address*, which only
    exists after compilation and layout.  Layout is deterministic and does
    not depend on annotations, so compiling the rendered source once here
    yields the final addresses: the Nth ``icall`` in address order is the Nth
    function-pointer site in emission order (functions are laid out in
    source order, statements in source order within them).  Returns the
    compiled program, which is the one the analysis of this source sees.  A
    source the compiler rejects gets no hints and no program — the oracle
    compiles it again and reports the error itself.
    """
    from repro.minic import compile_source

    try:
        program = compile_source(source)
    except Exception:  # noqa: BLE001 - the oracle owns compile diagnostics
        return None
    addresses = sorted(
        instruction.address
        for function in program.functions.values()
        for instruction in function.instructions
        if instruction.opcode.value == "icall"
    )
    if len(addresses) == len(sites):
        for address, targets in zip(addresses, sites):
            annotations.add_call_targets(address, targets)
    return program


def render_case(case: GeneratedCase) -> RenderedCase:
    """Render the program model to mini-C source and its annotation set."""
    emitter = _Emitter()
    annotations = AnnotationSet()

    for var in case.globals_:
        if var.length is not None:
            emitter.emit(0, f"int {var.name}[{var.length}];")
        elif var.initial:
            emitter.emit(0, f"int {var.name} = {var.initial};")
        else:
            emitter.emit(0, f"int {var.name};")

    for function in case.functions:
        params = ", ".join(
            (f"int *{p.name}" if p.is_pointer else f"int {p.name}")
            for p in function.params
        ) or "void"
        return_type = "void" if function.returns_void else "int"
        emitter.emit(0, f"{return_type} {function.name}({params}) {{")
        for name, init in function.locals_:
            emitter.emit(1, f"int {name} = {init};")
        _render_block(emitter, annotations, function, function.body, 1)
        if not function.returns_void:
            emitter.emit(1, f"return {function.return_expr};")
        emitter.emit(0, "}")
        for position, (low, high) in enumerate(
            function.arg_ranges.get(p.name, (None, None))
            for p in function.params
        ):
            if low is not None:
                annotations.add_argument_range(function.name, f"r{3 + position}", low, high)
        if function.recursion_depth is not None:
            annotations.add_recursion_bound(function.name, function.recursion_depth)

    source = "\n".join(emitter.lines) + "\n"
    program = None
    if emitter.fnptr_sites:
        program = _attach_call_target_hints(source, annotations, emitter.fnptr_sites)
    return RenderedCase(
        source=source,
        annotations=annotations,
        line_count=len(emitter.lines),
        program=program,
    )


def _render_block(
    emitter: _Emitter,
    annotations: AnnotationSet,
    function: GFunction,
    stmts: Sequence[Stmt],
    indent: int,
) -> None:
    for stmt in stmts:
        _render_stmt(emitter, annotations, function, stmt, indent)


def _render_stmt(
    emitter: _Emitter,
    annotations: AnnotationSet,
    function: GFunction,
    stmt: Stmt,
    indent: int,
) -> None:
    if isinstance(stmt, SAssign):
        emitter.emit(indent, f"{stmt.lhs} = {stmt.expr};")
        return
    if isinstance(stmt, SIf):
        emitter.emit(indent, f"if ({stmt.cond}) {{")
        _render_block(emitter, annotations, function, stmt.then, indent + 1)
        if stmt.els:
            emitter.emit(indent, "} else {")
            _render_block(emitter, annotations, function, stmt.els, indent + 1)
        emitter.emit(indent, "}")
        return
    if isinstance(stmt, SFor):
        line = emitter.emit(
            indent,
            f"for ({stmt.var} = 0; {stmt.var} < {stmt.bound}; "
            f"{stmt.var} = {stmt.var} + 1) {{",
        )
        if stmt.annotate is not None:
            annotations.add_loop_bound(function.name, f"loop_{line}", stmt.annotate)
        _render_block(emitter, annotations, function, stmt.body, indent + 1)
        emitter.emit(indent, "}")
        return
    if isinstance(stmt, SWhileBreak):
        emitter.emit(indent, f"{stmt.var} = 0;")
        line = emitter.emit(indent, f"while ({stmt.var} < {stmt.bound}) {{")
        if stmt.annotate is not None:
            annotations.add_loop_bound(function.name, f"loop_{line}", stmt.annotate)
        _render_block(emitter, annotations, function, stmt.body, indent + 1)
        if stmt.break_cond is not None:
            emitter.emit(indent + 1, f"if ({stmt.break_cond}) {{")
            emitter.emit(indent + 2, "break;")
            emitter.emit(indent + 1, "}")
        emitter.emit(indent + 1, f"{stmt.var} = {stmt.var} + 1;")
        emitter.emit(indent, "}")
        return
    if isinstance(stmt, SCall):
        call = f"{stmt.callee}({', '.join(stmt.args)})"
        if stmt.lhs is not None:
            emitter.emit(indent, f"{stmt.lhs} = {call};")
        else:
            emitter.emit(indent, f"{call};")
        return
    if isinstance(stmt, SReturn):
        emitter.emit(indent, f"return {stmt.expr};")
        return
    if isinstance(stmt, SGotoLoop):
        top = f"gl{stmt.uid}_top"
        mid = f"gl{stmt.uid}_mid"
        emitter.emit(indent, f"{stmt.var} = 0;")
        emitter.emit(indent, f"goto {mid};")
        emitter.emit(0, f"{top}:")
        annotations.add_loop_bound(function.name, top, stmt.annotate)
        _render_block(emitter, annotations, function, stmt.body, indent)
        emitter.emit(0, f"{mid}:")
        emitter.emit(indent, f"{stmt.var} = {stmt.var} + 1;")
        emitter.emit(indent, f"if ({stmt.var} < {stmt.bound}) {{")
        emitter.emit(indent + 1, f"goto {top};")
        emitter.emit(indent, "}")
        return
    if isinstance(stmt, SFnPtrCall):
        # Wrapped in its own block: a declaration is not a labelled-statement
        # in mini-C, and this node may render directly after a goto label.
        pointer = f"fp{stmt.uid}"
        emitter.emit(indent, "{")
        emitter.emit(indent + 1, f"int *{pointer} = &{stmt.primary};")
        if stmt.alternate is not None and stmt.cond is not None:
            emitter.emit(indent + 1, f"if ({stmt.cond}) {{")
            emitter.emit(indent + 2, f"{pointer} = &{stmt.alternate};")
            emitter.emit(indent + 1, "}")
        emitter.emit(indent + 1, f"{stmt.lhs} = {pointer}();")
        emitter.emit(indent, "}")
        emitter.fnptr_sites.append(stmt.targets())
        return
    raise TypeError(f"unknown statement node {type(stmt).__name__}")


# --------------------------------------------------------------------------- #
# Feature mix
# --------------------------------------------------------------------------- #
@dataclass
class FeatureMix:
    """Probabilities and limits steering the grammar."""

    #: Helper functions besides main (callees of main and of each other).
    max_helpers: int = 3
    max_params: int = 3
    max_stmts: int = 5            # statements per block
    max_depth: int = 3            # nesting depth of if/for/while
    max_expr_depth: int = 2
    max_loop_bound: int = 8
    max_locals: int = 5
    input_scalars: int = 2
    input_arrays: int = 1
    state_scalars: int = 2
    state_arrays: int = 1

    p_if: float = 0.22
    p_for: float = 0.18
    p_while_break: float = 0.10
    p_call: float = 0.18
    p_array_store: float = 0.15
    p_pointer_write: float = 0.10
    p_else: float = 0.5
    p_annotate_for: float = 0.2
    p_masked_input_index: float = 0.15
    p_compare_chain: float = 0.3

    allow_calls: bool = True
    allow_pointers: bool = True
    allow_arrays: bool = True
    allow_while_break: bool = True
    allow_division: bool = True

    # ---- engine hard-spot regions (off by default: historical seeds must
    # render byte-identically; the fuzz fleet rotates presets that enable
    # them — see repro.testing.fuzz) ------------------------------------- #
    #: Self-recursive helpers with a constant depth cap and a ``recursion``
    #: annotation (exercises the recursive-component analysis, which is
    #: excluded from the summary cache).
    allow_recursion: bool = False
    max_recursive_helpers: int = 1
    #: Maximum argument value passed to a recursive helper (activations per
    #: outer call are capped at this + 1).
    max_recursion_depth: int = 4
    #: Irreducible two-entry goto cycles bounded only by a label-anchored
    #: ``loopbound`` annotation (exercises the IPET's non-canonical-header
    #: constraint anchoring).  Generated at nesting depth 0 only.
    allow_goto_loops: bool = False
    p_goto_loop: float = 0.10
    #: Indirect calls through function-pointer variables, resolved by
    #: ``calltargets`` hints discovered at render time (exercises the hinted
    #: CFG reconstruction of ``icall``).
    allow_function_pointers: bool = False
    p_fnptr_call: float = 0.10
    fnptr_handlers: int = 2

    #: Cap on the *estimated dynamic step count* of any single function
    #: (loops multiply, calls add the callee's estimate).  Without this,
    #: nested loops around nested calls compose multiplicatively and a
    #: single seed can take millions of interpreter steps; the generator
    #: vetoes calls that would blow the budget and emits a plain assignment
    #: instead, keeping every generated program cheap to replay.
    max_dynamic_cost: int = 40_000

    def scaled_for_depth(self, depth: int) -> "FeatureMix":
        """Damp structure probabilities as nesting grows."""
        factor = 0.5 ** depth
        return replace(
            self,
            p_if=self.p_if * factor,
            p_for=self.p_for * factor,
            p_while_break=self.p_while_break * factor,
        )


#: Arithmetic operators usable between arbitrary int expressions.
_ARITH_OPS = ("+", "-", "*", "&", "|", "^")
_COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")
#: Divisors/moduli — strictly positive constants so execution never traps.
_DIVISORS = (2, 3, 4, 5, 7)


# --------------------------------------------------------------------------- #
# Generator
# --------------------------------------------------------------------------- #
class ProgramGenerator:
    """Generates one :class:`GeneratedCase` per seed, deterministically."""

    #: Rough interpreter-step costs of generated constructs (calibration for
    #: the dynamic-cost budget; deliberately pessimistic).
    _STMT_COST = 10
    _LOOP_ITERATION_COST = 8
    _CALL_OVERHEAD = 40

    def __init__(self, seed: int, mix: Optional[FeatureMix] = None):
        self.seed = seed
        self.mix = mix or FeatureMix()
        self.rng = random.Random(seed)
        #: Estimated dynamic step cost of each finished function.
        self._costs: Dict[str, int] = {}
        #: Model-stable uid counters for label/pointer names (not line
        #: numbers, so shrinking never stales them).
        self._goto_uid = 0
        self._fnptr_uid = 0

    # ------------------------------------------------------------------ #
    def generate(self) -> GeneratedCase:
        rng = self.rng
        mix = self.mix
        case = GeneratedCase(name=f"gen_{self.seed}", seed=self.seed)

        for index in range(mix.input_scalars):
            case.globals_.append(
                GlobalVar(name=f"in{index}", is_input=True, low=-8, high=8)
            )
        for index in range(mix.input_arrays):
            case.globals_.append(
                GlobalVar(
                    name=f"inbuf{index}",
                    length=ARRAY_LENGTH,
                    is_input=True,
                    low=-8,
                    high=8,
                )
            )
        for index in range(mix.state_scalars):
            case.globals_.append(
                GlobalVar(name=f"g{index}", initial=rng.randint(-4, 4))
            )
        for index in range(mix.state_arrays):
            case.globals_.append(GlobalVar(name=f"sbuf{index}", length=ARRAY_LENGTH))

        if mix.allow_pointers:
            case.functions.append(self._pointer_write_helper())
        if mix.allow_function_pointers:
            for index in range(mix.fnptr_handlers):
                case.functions.append(self._handler_function(index))

        num_helpers = rng.randint(0, mix.max_helpers) if mix.allow_calls else 0
        for index in range(num_helpers):
            case.functions.append(self._generate_helper(case, index))
        if mix.allow_recursion:
            for index in range(rng.randint(1, mix.max_recursive_helpers)):
                case.functions.append(self._recursive_helper(index))
        case.functions.append(self._generate_main(case))
        # Generous interpreter budget relative to the estimate: a real
        # divergence still trips it, a merely-large program does not.
        case.max_steps = max(200_000, self._costs.get("main", 0) * 10)
        return case

    # ------------------------------------------------------------------ #
    def _pointer_write_helper(self) -> GFunction:
        """``void pw(int *p, int v) { *p = *p + v; }`` — the aliasing probe."""
        self._costs["pw"] = 40
        return GFunction(
            name="pw",
            params=[Param("p", is_pointer=True), Param("v")],
            body=[SAssign("*p", "*p + v")],
            returns_void=True,
        )

    def _handler_function(self, index: int) -> GFunction:
        """A zero-argument event handler reachable only through ``icall``."""
        rng = self.rng
        name = f"h{index}"
        function = GFunction(name=name, params=[])
        function.locals_ = [("t", str(rng.randint(-4, 4)))]
        function.body = [
            SAssign("t", f"(t * {rng.randint(2, 5)}) + {rng.randint(-3, 3)}")
        ]
        function.return_expr = "t"
        self._costs[name] = self._CALL_OVERHEAD + 2 * self._STMT_COST
        return function

    def _recursive_helper(self, index: int) -> GFunction:
        """``int rcN(int n)`` calling itself on ``n - 1`` while ``n > 0``.

        Generated call sites only ever pass constants in ``[0, depth_cap]``,
        so one outer call causes at most ``depth_cap + 1`` activations — the
        value declared via the ``recursion`` annotation
        (:attr:`GFunction.recursion_depth`).  The ``argrange`` annotation
        covers every concrete argument (the recursion decrements toward 0).
        """
        rng = self.rng
        name = f"rc{index}"
        depth_cap = rng.randint(1, max(self.mix.max_recursion_depth, 1))
        function = GFunction(
            name=name,
            params=[Param("n")],
            recursion_depth=depth_cap + 1,
        )
        function.arg_ranges["n"] = (0, depth_cap)
        function.locals_ = [("t", str(rng.randint(1, 4)))]
        function.body = [
            SAssign("t", "t + n"),
            SIf(
                cond="n > 0",
                then=[SCall(callee=name, args=["n - 1"], lhs="t")],
            ),
            SAssign("t", f"t + {rng.randint(0, 3)}"),
        ]
        function.return_expr = "t"
        self._costs[name] = (depth_cap + 1) * (
            3 * self._STMT_COST + self._CALL_OVERHEAD
        )
        return function

    # ------------------------------------------------------------------ #
    def _generate_helper(self, case: GeneratedCase, index: int) -> GFunction:
        rng = self.rng
        mix = self.mix
        num_params = rng.randint(1, mix.max_params)
        params = [Param(f"a{i}") for i in range(num_params)]
        function = GFunction(name=f"f{index}", params=params)
        # Scalar arguments are always generated within this range; declaring it
        # lets the context-insensitive analysis bound argument-driven loops.
        for param in params:
            function.arg_ranges[param.name] = (-16, 16)
        self._fill_function(case, function, callees=self._callees(case, index))
        return function

    def _generate_main(self, case: GeneratedCase) -> GFunction:
        function = GFunction(name="main", params=[])
        callees = self._callees(case, len(case.functions))
        # Recursive helpers are only ever called from main: one predictable
        # layer between the entry and the cycle keeps the cost model simple.
        callees += [f for f in case.functions if f.recursion_depth is not None]
        self._fill_function(case, function, callees=callees)
        return function

    def _callees(self, case: GeneratedCase, index: int) -> List[GFunction]:
        """Helpers a function may call: only ones generated before it."""
        return [f for f in case.functions if f.name.startswith("f")][:index]

    # ------------------------------------------------------------------ #
    def _fill_function(
        self, case: GeneratedCase, function: GFunction, callees: List[GFunction]
    ) -> None:
        rng = self.rng
        mix = self.mix
        num_locals = rng.randint(1, mix.max_locals)
        for i in range(num_locals):
            function.locals_.append((f"v{i}", str(rng.randint(-4, 4))))

        scope = _Scope(
            case=case,
            function=function,
            callees=callees,
            fnptr_targets=[
                f.name for f in case.functions if f.name.startswith("h")
            ],
        )
        function.body = self._generate_block(scope, depth=0)
        function.return_expr = self._expr(scope, mix.max_expr_depth)
        self._costs[function.name] = self._CALL_OVERHEAD + scope.estimate

    # ------------------------------------------------------------------ #
    def _generate_block(self, scope: "_Scope", depth: int) -> List[Stmt]:
        rng = self.rng
        mix = self.mix.scaled_for_depth(depth)
        stmts: List[Stmt] = []
        for _ in range(rng.randint(1, mix.max_stmts)):
            stmts.append(self._generate_stmt(scope, depth))
        return stmts

    def _generate_stmt(self, scope: "_Scope", depth: int) -> Stmt:
        rng = self.rng
        mix = self.mix.scaled_for_depth(depth)
        roll = rng.random()

        threshold = mix.p_if
        if roll < threshold and depth < self.mix.max_depth:
            return self._generate_if(scope, depth)
        threshold += mix.p_for
        if roll < threshold and depth < self.mix.max_depth:
            return self._generate_for(scope, depth)
        threshold += mix.p_while_break
        if (
            roll < threshold
            and depth < self.mix.max_depth
            and self.mix.allow_while_break
        ):
            return self._generate_while_break(scope, depth)
        if self.mix.allow_goto_loops and depth == 0:
            threshold += self.mix.p_goto_loop
            if roll < threshold:
                return self._generate_goto_loop(scope, depth)
        if self.mix.allow_function_pointers and scope.fnptr_targets:
            threshold += self.mix.p_fnptr_call
            if roll < threshold:
                call = self._generate_fnptr_call(scope)
                if call is not None:
                    return call
        threshold += mix.p_call
        if roll < threshold and scope.callees and self.mix.allow_calls:
            call = self._generate_call(scope)
            if call is not None:
                return call
        threshold += mix.p_array_store
        if roll < threshold and self.mix.allow_arrays:
            store = self._generate_array_store(scope)
            if store is not None:
                return store
        threshold += mix.p_pointer_write
        if roll < threshold and self.mix.allow_pointers:
            call = self._generate_pointer_write(scope)
            if call is not None:
                return call
        scope.charge(self._STMT_COST)
        return SAssign(lhs=scope.random_scalar_lvalue(rng), expr=self._expr(scope, self.mix.max_expr_depth))

    # ------------------------------------------------------------------ #
    def _generate_if(self, scope: "_Scope", depth: int) -> SIf:
        rng = self.rng
        scope.charge(self._STMT_COST)
        cond = self._condition(scope)
        then = self._generate_block(scope, depth + 1)
        els: List[Stmt] = []
        if rng.random() < self.mix.p_else:
            els = self._generate_block(scope, depth + 1)
        return SIf(cond=cond, then=then, els=els)

    def _generate_for(self, scope: "_Scope", depth: int) -> SFor:
        rng = self.rng
        var = scope.new_counter()
        bound = rng.randint(1, min(self.mix.max_loop_bound, ARRAY_LENGTH))
        annotate = bound if rng.random() < self.mix.p_annotate_for else None
        scope.push_counter(var, bound)
        scope.charge(self._LOOP_ITERATION_COST)
        body = self._generate_block(scope, depth + 1)
        scope.pop_counter()
        return SFor(var=var, bound=bound, body=body, annotate=annotate)

    def _generate_while_break(self, scope: "_Scope", depth: int) -> SWhileBreak:
        rng = self.rng
        var = scope.new_counter()
        bound = rng.randint(1, min(self.mix.max_loop_bound, ARRAY_LENGTH))
        scope.push_counter(var, bound)
        scope.charge(self._LOOP_ITERATION_COST)
        body = self._generate_block(scope, depth + 1)
        break_cond = self._condition(scope) if rng.random() < 0.7 else None
        scope.pop_counter()
        return SWhileBreak(
            var=var, bound=bound, body=body, break_cond=break_cond, annotate=bound
        )

    def _generate_goto_loop(self, scope: "_Scope", depth: int) -> SGotoLoop:
        rng = self.rng
        var = scope.new_counter()
        bound = rng.randint(2, min(self.mix.max_loop_bound, ARRAY_LENGTH))
        uid = self._goto_uid
        self._goto_uid += 1
        scope.push_counter(var, bound)
        scope.charge(self._LOOP_ITERATION_COST)
        body = self._generate_block(scope, depth + 1)
        scope.pop_counter()
        return SGotoLoop(uid=uid, var=var, bound=bound, body=body, annotate=bound)

    def _generate_fnptr_call(self, scope: "_Scope") -> Optional[SFnPtrCall]:
        rng = self.rng
        handlers = scope.fnptr_targets
        cost = self._CALL_OVERHEAD + max(
            self._costs.get(h, self._CALL_OVERHEAD) for h in handlers
        )
        if not scope.fits(cost, self.mix.max_dynamic_cost):
            return None
        scope.charge(cost)
        uid = self._fnptr_uid
        self._fnptr_uid += 1
        primary = rng.choice(handlers)
        alternate = None
        cond = None
        others = [h for h in handlers if h != primary]
        if others and rng.random() < 0.6:
            alternate = rng.choice(others)
            cond = self._condition(scope)
        return SFnPtrCall(
            uid=uid,
            primary=primary,
            lhs=scope.random_local(rng),
            alternate=alternate,
            cond=cond,
        )

    def _generate_call(self, scope: "_Scope") -> Optional[SCall]:
        rng = self.rng
        callee = rng.choice(scope.callees)
        cost = self._CALL_OVERHEAD + self._costs.get(callee.name, self._CALL_OVERHEAD)
        if not scope.fits(cost, self.mix.max_dynamic_cost):
            return None
        scope.charge(cost)
        args: List[str] = []
        for param in callee.params:
            low, high = callee.arg_ranges.get(param.name, (-4, 4))
            if callee.recursion_depth is not None:
                # The declared recursion depth assumes constant arguments
                # inside the annotated range — never an expression.
                args.append(str(rng.randint(low, high)))
            elif rng.random() < 0.5:
                args.append(str(rng.randint(low, high)))
            else:
                # A value expression clamped into the declared range by a
                # modulus: rem in (-d, d) stays inside [-16, 16] for d <= 16.
                divisor = rng.choice(_DIVISORS)
                args.append(f"({self._leaf(scope)}) % {divisor}")
        return SCall(callee=callee.name, args=args, lhs=scope.random_local(rng))

    def _generate_array_store(self, scope: "_Scope") -> Optional[SAssign]:
        rng = self.rng
        array = scope.random_array(rng)
        if array is None:
            return None
        scope.charge(self._STMT_COST)
        index = self._array_index(scope)
        return SAssign(
            lhs=f"{array.name}[{index}]", expr=self._expr(scope, self.mix.max_expr_depth)
        )

    def _generate_pointer_write(self, scope: "_Scope") -> Optional[SCall]:
        rng = self.rng
        cost = self._CALL_OVERHEAD + self._costs.get("pw", self._CALL_OVERHEAD)
        if not scope.fits(cost, self.mix.max_dynamic_cost):
            return None
        scope.charge(cost)
        targets: List[str] = [
            f"&{g.name}" for g in scope.case.globals_ if g.length is None
        ]
        array = scope.random_array(rng)
        if array is not None:
            targets.append(f"&{array.name}[{self._array_index(scope)}]")
        target = rng.choice(targets)
        return SCall(callee="pw", args=[target, self._expr(scope, 1)], lhs=None)

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def _array_index(self, scope: "_Scope") -> str:
        """An in-bounds index: a bounded counter, a constant, or a masked input."""
        rng = self.rng
        candidates: List[str] = [str(rng.randint(0, ARRAY_LENGTH - 1))]
        counter = scope.random_bounded_counter(rng, ARRAY_LENGTH)
        if counter is not None:
            candidates.append(counter)
            candidates.append(counter)   # favour loop counters
        if rng.random() < self.mix.p_masked_input_index:
            inputs = [g.name for g in scope.case.globals_ if g.is_input and g.length is None]
            if inputs:
                candidates.append(f"({rng.choice(inputs)} & {ARRAY_LENGTH - 1})")
        return rng.choice(candidates)

    def _leaf(self, scope: "_Scope") -> str:
        rng = self.rng
        choices: List[str] = [str(rng.randint(-8, 8))]
        choices.extend(scope.scalar_reads())
        array = scope.random_array(rng)
        if array is not None and self.mix.allow_arrays:
            choices.append(f"{array.name}[{self._array_index(scope)}]")
        return rng.choice(choices)

    def _expr(self, scope: "_Scope", depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.35:
            return self._leaf(scope)
        roll = rng.random()
        if roll < 0.12 and self.mix.allow_division:
            return f"({self._expr(scope, depth - 1)}) / {rng.choice(_DIVISORS)}"
        if roll < 0.24 and self.mix.allow_division:
            return f"({self._expr(scope, depth - 1)}) % {rng.choice(_DIVISORS)}"
        if roll < 0.32:
            return f"({self._expr(scope, depth - 1)}) >> {rng.randint(0, 3)}"
        if roll < 0.40:
            return f"({self._expr(scope, depth - 1)}) << {rng.randint(0, 3)}"
        if roll < 0.48:
            return f"-({self._expr(scope, depth - 1)})"
        op = rng.choice(_ARITH_OPS)
        return f"({self._expr(scope, depth - 1)} {op} {self._expr(scope, depth - 1)})"

    def _condition(self, scope: "_Scope") -> str:
        rng = self.rng
        left = self._expr(scope, 1)
        right = self._expr(scope, 1)
        cond = f"{left} {rng.choice(_COMPARE_OPS)} {right}"
        if rng.random() < self.mix.p_compare_chain:
            junction = rng.choice(("&&", "||"))
            third = f"{self._leaf(scope)} {rng.choice(_COMPARE_OPS)} {self._leaf(scope)}"
            cond = f"({cond}) {junction} ({third})"
        return cond


@dataclass
class _Scope:
    """Names visible while generating one function body."""

    case: GeneratedCase
    function: GFunction
    callees: List[GFunction]
    #: Handler functions callable through a function pointer (empty unless
    #: the mix enables function pointers).
    fnptr_targets: List[str] = field(default_factory=list)
    counters: List[Tuple[str, int]] = field(default_factory=list)
    counter_names: List[str] = field(default_factory=list)
    #: Estimated dynamic steps of the function body generated so far.
    estimate: int = 0
    #: Product of the bounds of the currently open loops.
    multiplier: int = 1
    #: Cap on distinct counters per function: together with max_locals and
    #: max_params this keeps every scalar local in a callee-saved home
    #: register, which the automatic loop-bound analysis depends on.
    max_counters: int = 6

    def new_counter(self) -> str:
        active = {name for name, _ in self.counters}
        if len(self.counter_names) >= self.max_counters:
            free = [name for name in self.counter_names if name not in active]
            if free:
                return free[0]
        name = f"i{len(self.counter_names)}"
        self.counter_names.append(name)
        self.function.locals_.append((name, "0"))
        return name

    def push_counter(self, name: str, bound: int) -> None:
        self.counters.append((name, bound))
        self.multiplier *= max(bound, 1)

    def pop_counter(self) -> None:
        _, bound = self.counters.pop()
        self.multiplier //= max(bound, 1)

    def charge(self, units: int) -> None:
        self.estimate += self.multiplier * units

    def fits(self, units: int, cap: int) -> bool:
        return self.estimate + self.multiplier * units <= cap

    def random_bounded_counter(self, rng: random.Random, limit: int) -> Optional[str]:
        eligible = [name for name, bound in self.counters if bound <= limit]
        return rng.choice(eligible) if eligible else None

    def _active_counters(self) -> set:
        return {name for name, _ in self.counters}

    def random_local(self, rng: random.Random) -> str:
        """A local that is safe to overwrite (never an active loop counter)."""
        active = self._active_counters()
        names = [name for name, _ in self.function.locals_ if name not in active]
        return rng.choice(names)

    def random_scalar_lvalue(self, rng: random.Random) -> str:
        active = self._active_counters()
        choices = [name for name, _ in self.function.locals_ if name not in active]
        choices.extend(g.name for g in self.case.globals_ if g.length is None and not g.is_input)
        return rng.choice(choices)

    def random_array(self, rng: random.Random) -> Optional[GlobalVar]:
        arrays = [g for g in self.case.globals_ if g.length is not None]
        return rng.choice(arrays) if arrays else None

    def scalar_reads(self) -> List[str]:
        """Every scalar name readable here (locals, params, globals, inputs)."""
        names = [name for name, _ in self.function.locals_]
        names.extend(p.name for p in self.function.params if not p.is_pointer)
        names.extend(g.name for g in self.case.globals_ if g.length is None)
        return names


# --------------------------------------------------------------------------- #
def generate_case(seed: int, mix: Optional[FeatureMix] = None) -> GeneratedCase:
    """Generate the program for one seed (deterministic)."""
    return ProgramGenerator(seed, mix=mix).generate()
