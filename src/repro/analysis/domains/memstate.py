"""Abstract machine state: register values, memory cells and branch facts.

The value analysis (:mod:`repro.analysis.value`) interprets instructions over
:class:`AbstractState`, which combines

* :class:`AbstractValue` per register — an interval plus the set of symbol
  bases the value may be an address of (data objects, the stack, functions);
* :class:`AbstractMemory` — a finite map of known memory cells addressed by
  ``(base symbol, byte offset)``; every cell absent from the map is unknown.
  A store through an unknown pointer *clobbers the whole memory map*, which is
  precisely the precision disaster the paper describes for imprecise memory
  accesses ("any write access to an unknown memory location destroys all known
  information about memory during the value analysis phase");
* predicate facts — which register currently holds the result of which
  comparison, so conditional branches can refine operand intervals on their
  outgoing edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, Optional, Tuple, Union

from repro.analysis.domains.interval import CONST_POOL_MAX, CONST_POOL_MIN, Interval
from repro.ir.instructions import Opcode

#: Symbolic base representing the incoming stack pointer of the analysed function.
STACK_BASE = "__sp__"


@dataclass(frozen=True, slots=True)
class AbstractValue:
    """Abstract content of a register or memory cell.

    ``interval`` describes the numeric value (or the offset relative to each
    base in ``bases`` when the value is an address).  ``is_float`` marks values
    produced by floating-point instructions: such values carry a top interval,
    which is what makes float-controlled loops unboundable for the analysis
    (MISRA rule 13.4 discussion).
    """

    interval: Interval = field(default_factory=Interval.top)
    bases: FrozenSet[str] = frozenset()
    is_float: bool = False

    # ------------------------------------------------------------------ #
    # Like :class:`~repro.analysis.domains.interval.Interval`, the common
    # values are interned: top/bottom/float are singletons and small constants
    # come from a pool, so repeated reads and constant immediates share one
    # frozen instance and the lattice operations below can answer by identity.
    @staticmethod
    def top() -> "AbstractValue":
        return _TOP_VALUE

    @staticmethod
    def bottom() -> "AbstractValue":
        return _BOTTOM_VALUE

    @staticmethod
    def const(value: int) -> "AbstractValue":
        cached = _CONST_VALUES.get(value)
        if cached is not None:
            return cached
        interval = Interval.const(value)
        if type(value) is int and CONST_POOL_MIN <= value <= CONST_POOL_MAX:
            # As Interval.const: int keys only, one instance across threads.
            return _CONST_VALUES.setdefault(value, AbstractValue(interval))
        return AbstractValue(interval)

    @staticmethod
    def float_value() -> "AbstractValue":
        return _FLOAT_VALUE

    @staticmethod
    def address(base: str, offset: Interval = None) -> "AbstractValue":  # type: ignore[assignment]
        if offset is None:
            offset = Interval.const(0)
        return AbstractValue(offset, frozenset({base}))

    # ------------------------------------------------------------------ #
    @property
    def is_top(self) -> bool:
        return self.interval.is_top and not self.bases and not self.is_float

    @property
    def is_bottom(self) -> bool:
        return self.interval.is_bottom

    @property
    def is_constant(self) -> bool:
        return not self.bases and not self.is_float and self.interval.is_constant

    @property
    def constant_value(self) -> Optional[int]:
        return self.interval.constant_value if self.is_constant else None

    # ------------------------------------------------------------------ #
    # Lattice
    # ------------------------------------------------------------------ #
    def join(self, other: "AbstractValue") -> "AbstractValue":
        if self is other:
            # Copy-on-write states share AbstractValue instances, so joining a
            # value with itself is the norm at join points; both operands are
            # frozen, making the identity answer exact.
            return self
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        interval = self.interval.join(other.interval)
        if other.bases <= self.bases:
            bases = self.bases
        elif self.bases <= other.bases:
            bases = other.bases
        else:
            bases = self.bases | other.bases
        is_float = self.is_float or other.is_float
        # Hand back an operand when it already equals the result, so chains of
        # joins over shared interned values allocate nothing.
        if interval is self.interval and bases is self.bases and is_float == self.is_float:
            return self
        if interval is other.interval and bases is other.bases and is_float == other.is_float:
            return other
        return AbstractValue(interval, bases, is_float)

    def widen(self, other: "AbstractValue") -> "AbstractValue":
        if self is other:
            return self
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        interval = self.interval.widen(other.interval)
        if other.bases <= self.bases:
            bases = self.bases
        elif self.bases <= other.bases:
            bases = other.bases
        else:
            bases = self.bases | other.bases
        is_float = self.is_float or other.is_float
        if interval is self.interval and bases is self.bases and is_float == self.is_float:
            return self
        return AbstractValue(interval, bases, is_float)

    def includes(self, other: "AbstractValue") -> bool:
        if self is other:
            return True
        if other.is_bottom:
            return True
        if self.is_bottom:
            return False
        if other.is_float and not self.is_float:
            return False
        if not other.bases <= self.bases:
            return False
        return self.interval.includes(other.interval)

    # ------------------------------------------------------------------ #
    # Arithmetic (address-aware)
    # ------------------------------------------------------------------ #
    def add(self, other: "AbstractValue") -> "AbstractValue":
        if self.is_float or other.is_float:
            return AbstractValue.float_value()
        return AbstractValue(
            self.interval.add(other.interval), self.bases | other.bases
        )

    def sub(self, other: "AbstractValue") -> "AbstractValue":
        if self.is_float or other.is_float:
            return AbstractValue.float_value()
        if self.bases and other.bases:
            # pointer difference: numeric, no base survives
            return AbstractValue(self.interval.sub(other.interval))
        return AbstractValue(self.interval.sub(other.interval), self.bases)

    def numeric(self, interval: Interval) -> "AbstractValue":
        """Helper: a pure numeric value with the given interval."""
        return AbstractValue(interval)

    def with_interval(self, interval: Interval) -> "AbstractValue":
        return replace(self, interval=interval)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_float:
            return "float⊤"
        text = str(self.interval)
        if self.bases:
            text = "+".join(sorted(self.bases)) + text
        return text


#: Shared top value — AbstractValue is frozen, so one instance serves all
#: "unknown register" reads without a fresh allocation per lookup.
_TOP_VALUE = AbstractValue(Interval.top())
_BOTTOM_VALUE = AbstractValue(Interval.bottom())
_FLOAT_VALUE = AbstractValue(Interval.top(), is_float=True)
#: Pooled small constants, interned on first use (same span as the interval
#: constant pool).
_CONST_VALUES: Dict[int, AbstractValue] = {}

#: A predicate fact operand: a register name or an integer constant.
FactOperand = Tuple[str, Union[str, int]]


@dataclass(frozen=True, slots=True)
class PredicateFact:
    """``register := lhs <relation> rhs`` — recorded at compare instructions."""

    relation: Opcode
    lhs: FactOperand
    rhs: FactOperand

    def mentions_register(self, register: str) -> bool:
        return (self.lhs[0] == "reg" and self.lhs[1] == register) or (
            self.rhs[0] == "reg" and self.rhs[1] == register
        )


class AbstractMemory:
    """A finite map of known memory cells; everything else is unknown.

    Cells are addressed by ``(base, offset)`` where ``base`` is a data-object
    name, a function name or :data:`STACK_BASE` and ``offset`` is a byte
    offset that must be a known constant for a strong update.

    The cell map is *copy-on-write*: :meth:`copy` shares it between the
    original and the clone in O(1), and the first mutation of either side
    materialises a private dict.  The value analysis copies the whole state
    on every block transfer, branch split and predicated instruction, but
    mutates memory far more rarely — sharing turns the dominant cost of those
    copies (O(cells) dict duplication) into a pointer assignment.
    """

    __slots__ = ("_cells", "_owned")

    def __init__(self, cells: Optional[Dict[Tuple[str, int], AbstractValue]] = None):
        self._cells: Dict[Tuple[str, int], AbstractValue] = dict(cells or {})
        self._owned = True

    # ------------------------------------------------------------------ #
    def copy(self) -> "AbstractMemory":
        clone = AbstractMemory.__new__(AbstractMemory)
        clone._cells = self._cells
        clone._owned = False
        self._owned = False
        return clone

    def _materialize(self) -> None:
        if not self._owned:
            self._cells = dict(self._cells)
            self._owned = True

    def cells(self) -> Dict[Tuple[str, int], AbstractValue]:
        return dict(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    # ------------------------------------------------------------------ #
    def load(self, base: Optional[str], offset: Optional[int]) -> AbstractValue:
        """Read a cell; unknown base or offset yields top."""
        if base is None or offset is None:
            return AbstractValue.top()
        return self._cells.get((base, offset), AbstractValue.top())

    def store_strong(self, base: str, offset: int, value: AbstractValue) -> None:
        self._materialize()
        self._cells[(base, offset)] = value

    def store_weak(self, base: str, value: AbstractValue) -> None:
        """Weak update: the store may hit any cell of ``base``."""
        keys = [key for key in self._cells if key[0] == base]
        if not keys:
            return
        self._materialize()
        for key in keys:
            self._cells[key] = self._cells[key].join(value)

    def clobber_all(self, keep_bases: Iterable[str] = ()) -> None:
        """Forget all cells except those with a base in ``keep_bases``."""
        keep = set(keep_bases)
        if all(key[0] in keep for key in self._cells):
            return
        self._cells = {
            key: value for key, value in self._cells.items() if key[0] in keep
        }
        self._owned = True

    # ------------------------------------------------------------------ #
    @staticmethod
    def _adopt(cells: Dict[Tuple[str, int], AbstractValue]) -> "AbstractMemory":
        """Wrap an already-private cell dict without copying it."""
        memory = AbstractMemory.__new__(AbstractMemory)
        memory._cells = cells
        memory._owned = True
        return memory

    def join(self, other: "AbstractMemory") -> "AbstractMemory":
        if self._cells is other._cells:
            # Shared (copy-on-write) cell map: joining it with itself is the
            # identity; hand out another sharing wrapper.
            return self.copy()
        result: Dict[Tuple[str, int], AbstractValue] = {}
        other_cells = other._cells
        for key, value in self._cells.items():
            if key in other_cells:
                result[key] = value.join(other_cells[key])
        return AbstractMemory._adopt(result)

    def widen(self, other: "AbstractMemory") -> "AbstractMemory":
        result: Dict[Tuple[str, int], AbstractValue] = {}
        other_cells = other._cells
        for key, value in self._cells.items():
            if key in other_cells:
                result[key] = value.widen(other_cells[key])
        return AbstractMemory._adopt(result)

    def includes(self, other: "AbstractMemory") -> bool:
        """True if ``other`` is at least as precise as ``self`` on self's cells."""
        if self._cells is other._cells:
            return True
        for key, value in self._cells.items():
            if key not in other._cells:
                return False
            if not value.includes(other._cells[key]):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractMemory):
            return NotImplemented
        return self._cells == other._cells

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [
            f"{base}+{offset}: {value}"
            for (base, offset), value in sorted(self._cells.items())
        ]
        return "{" + ", ".join(parts) + "}"


class AbstractState:
    """Register file + memory + predicate facts at one program point.

    Like :class:`AbstractMemory`, the register and fact maps are
    copy-on-write: :meth:`copy` is O(1) and the first mutation of either copy
    materialises a private dict.  All mutation goes through the methods below
    — never assign into :attr:`registers`/:attr:`facts` directly.
    """

    __slots__ = ("_registers", "_facts", "memory", "reachable", "_regs_owned", "_facts_owned")

    def __init__(
        self,
        registers: Optional[Dict[str, AbstractValue]] = None,
        memory: Optional[AbstractMemory] = None,
        facts: Optional[Dict[str, PredicateFact]] = None,
        reachable: bool = True,
    ):
        self._registers: Dict[str, AbstractValue] = dict(registers or {})
        self._regs_owned = True
        self.memory: AbstractMemory = memory if memory is not None else AbstractMemory()
        self._facts: Dict[str, PredicateFact] = dict(facts or {})
        self._facts_owned = True
        #: False for the unreachable (bottom) state.
        self.reachable = reachable

    # ------------------------------------------------------------------ #
    @property
    def registers(self) -> Dict[str, AbstractValue]:
        """The register map (read-only: mutate through :meth:`set`)."""
        return self._registers

    @property
    def facts(self) -> Dict[str, PredicateFact]:
        """The predicate-fact map (read-only: mutate through :meth:`set_fact`)."""
        return self._facts

    @staticmethod
    def unreachable() -> "AbstractState":
        return AbstractState(reachable=False)

    def copy(self) -> "AbstractState":
        clone = AbstractState.__new__(AbstractState)
        clone._registers = self._registers
        clone._regs_owned = False
        self._regs_owned = False
        clone._facts = self._facts
        clone._facts_owned = False
        self._facts_owned = False
        clone.memory = self.memory.copy()
        clone.reachable = self.reachable
        return clone

    def _own_registers(self) -> None:
        if not self._regs_owned:
            self._registers = dict(self._registers)
            self._regs_owned = True

    def _own_facts(self) -> None:
        if not self._facts_owned:
            self._facts = dict(self._facts)
            self._facts_owned = True

    # ------------------------------------------------------------------ #
    def get(self, register: str) -> AbstractValue:
        return self._registers.get(register, _TOP_VALUE)

    def set(self, register: str, value: AbstractValue) -> None:
        # Redefining a register kills every predicate fact that mentions it
        # and the fact stored for the register itself.
        self._own_registers()
        self._registers[register] = value
        facts = self._facts
        if facts:
            self._own_facts()
            facts = self._facts
            facts.pop(register, None)
            for holder in list(facts):
                if facts[holder].mentions_register(register):
                    del facts[holder]

    def replace_value(self, register: str, value: AbstractValue) -> None:
        """Overwrite a register *without* killing predicate facts.

        Used by branch refinement, which narrows a register's interval while
        the facts mentioning it remain valid (refinement only shrinks the
        concretisation, it does not redefine the register).
        """
        self._own_registers()
        self._registers[register] = value

    def set_fact(self, register: str, fact: PredicateFact) -> None:
        self._own_facts()
        self._facts[register] = fact

    def havoc_registers(self, registers: Iterable[str]) -> None:
        for register in registers:
            self.set(register, _TOP_VALUE)

    # ------------------------------------------------------------------ #
    # Lattice operations
    # ------------------------------------------------------------------ #
    @staticmethod
    def _adopt(
        registers: Dict[str, AbstractValue],
        memory: AbstractMemory,
        facts: Dict[str, PredicateFact],
    ) -> "AbstractState":
        """Wrap already-private dicts without copying them."""
        state = AbstractState.__new__(AbstractState)
        state._registers = registers
        state._regs_owned = True
        state.memory = memory
        state._facts = facts
        state._facts_owned = True
        state.reachable = True
        return state

    def join(self, other: "AbstractState") -> "AbstractState":
        if not self.reachable:
            return other.copy()
        if not other.reachable:
            return self.copy()
        self_registers = self._registers
        other_registers = other._registers
        registers: Dict[str, AbstractValue] = {}
        if self_registers is other_registers:
            # Copy-on-write copies share the register dict; joining a state
            # with (a copy of) itself reduces to duplicating the mapping.
            registers = dict(self_registers)
        else:
            for name, value in self_registers.items():
                other_value = other_registers.get(name, _TOP_VALUE)
                registers[name] = value.join(other_value)
            for name, value in other_registers.items():
                if name not in self_registers:
                    registers[name] = _TOP_VALUE.join(value)
        other_facts = other._facts
        if self._facts is other_facts:
            facts = dict(self._facts)
        else:
            facts = {
                reg: fact
                for reg, fact in self._facts.items()
                if other_facts.get(reg) == fact
            }
        return AbstractState._adopt(registers, self.memory.join(other.memory), facts)

    @staticmethod
    def join_all(states: Iterable["AbstractState"]) -> "AbstractState":
        """Least upper bound of many states, computed in one pass.

        Equivalent to folding :meth:`join` over ``states`` pairwise, but each
        register, memory cell and fact is visited once instead of once per
        operand pair — this is what callers merging all predecessor
        edge-states of a block should use.
        """
        live = [state for state in states if state.reachable]
        if not live:
            return AbstractState.unreachable()
        first = live[0]
        if len(live) == 1:
            return first.copy()
        rest = live[1:]

        # Registers: visit names in first-seen order (deterministic), joining
        # the value across every operand; absent means top.
        names = list(first._registers)
        seen = set(names)
        for state in rest:
            for name in state._registers:
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        registers: Dict[str, AbstractValue] = {}
        for name in names:
            value = first._registers.get(name, _TOP_VALUE)
            for state in rest:
                value = value.join(state._registers.get(name, _TOP_VALUE))
            registers[name] = value

        # Memory: only cells known in every operand survive.
        cells: Dict[Tuple[str, int], AbstractValue] = {}
        for key, value in first.memory._cells.items():
            known_everywhere = True
            for state in rest:
                other_value = state.memory._cells.get(key)
                if other_value is None:
                    known_everywhere = False
                    break
                value = value.join(other_value)
            if known_everywhere:
                cells[key] = value

        # Facts: kept only when every operand agrees.
        facts = {
            register: fact
            for register, fact in first._facts.items()
            if all(state._facts.get(register) == fact for state in rest)
        }
        return AbstractState._adopt(registers, AbstractMemory._adopt(cells), facts)

    def widen(self, other: "AbstractState") -> "AbstractState":
        if not self.reachable:
            return other.copy()
        if not other.reachable:
            return self.copy()
        self_registers = self._registers
        other_registers = other._registers
        registers: Dict[str, AbstractValue] = {}
        for name, value in self_registers.items():
            other_value = other_registers.get(name, _TOP_VALUE)
            registers[name] = value.widen(other_value)
        for name, value in other_registers.items():
            if name not in self_registers:
                registers[name] = _TOP_VALUE.widen(value)
        other_facts = other._facts
        facts = {
            reg: fact
            for reg, fact in self._facts.items()
            if other_facts.get(reg) == fact
        }
        return AbstractState._adopt(registers, self.memory.widen(other.memory), facts)

    def includes(self, other: "AbstractState") -> bool:
        """True if ``self`` over-approximates ``other`` (fixpoint check)."""
        if not other.reachable:
            return True
        if not self.reachable:
            return False
        if (
            self._registers is other._registers
            and self._facts is other._facts
            and self.memory._cells is other.memory._cells
        ):
            # Copy-on-write copies of one state: trivially equal.
            return True
        for name, value in self._registers.items():
            if not value.includes(other.get(name)):
                # self constrains `name` more than other does -> not an
                # over-approximation
                return False
        # Registers not mentioned in self are top there, always including other.
        if not set(self._facts.items()) <= set(other._facts.items()):
            return False
        return self.memory.includes(other.memory)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if not self.reachable:
            return "<unreachable>"
        regs = ", ".join(
            f"{name}={value}"
            for name, value in sorted(self.registers.items())
            if not value.is_top
        )
        return f"regs[{regs}] mem{self.memory}"
