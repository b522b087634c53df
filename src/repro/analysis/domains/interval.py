"""Interval abstract domain.

The classic integer interval domain ``[lo, hi]`` with the operations needed by
the value analysis: arithmetic transfer functions, lattice join/meet, widening
(to the 32-bit bounds) and condition-based refinement.  ``None`` bounds denote
-∞ / +∞; the domain is deliberately unbounded internally and is clamped to the
32-bit range only by :meth:`Interval.clamp32`, so tests can check arithmetic
precision independently of machine-width effects.

The paper's rule 13.4 discussion ("loop analyzers work well with integer
arithmetic but do not cope with floating point values") is reflected one level
up: floating-point producing instructions map to :meth:`Interval.top`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

#: Smallest / largest signed 32-bit values (used for widening and clamping).
INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
UINT32_MAX = 2**32 - 1


def _wrap_signed32(value: int) -> int:
    """Interpret a 32-bit pattern as the signed value the machine stores.

    Constant folding in the transfer functions must agree with the concrete
    interpreter, whose registers hold signed two's-complement words — e.g.
    ``-4 ^ 0`` is ``-4``, not ``4294967292``.
    """
    value &= UINT32_MAX
    return value - 0x1_0000_0000 if value > INT32_MAX else value


@dataclass(frozen=True, slots=True)
class Interval:
    """A (possibly unbounded) integer interval ``[lo, hi]``.

    ``lo is None`` means -∞ and ``hi is None`` means +∞.  The empty interval
    (bottom) is represented by the singleton :meth:`bottom` with the
    ``is_bottom`` flag set.
    """

    lo: Optional[int] = None
    hi: Optional[int] = None
    is_bottom: bool = False

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    # The constructors below hand out *interned* instances for the values the
    # value analysis produces constantly: top, bottom, small constants and a
    # few tiny ranges (the comparison results).  Interval is frozen, so a
    # shared instance is indistinguishable from a fresh one except by ``is`` —
    # which is exactly the point: lattice operations and AbstractState
    # comparisons gain identity fast paths, and the per-transfer allocation
    # churn of `Interval.const` drops to a dict lookup.
    @staticmethod
    def top() -> "Interval":
        return _TOP

    @staticmethod
    def bottom() -> "Interval":
        return _BOTTOM

    @staticmethod
    def const(value: int) -> "Interval":
        cached = _CONST_POOL.get(value)
        if cached is not None:
            return cached
        if type(value) is int and CONST_POOL_MIN <= value <= CONST_POOL_MAX:
            # Int keys only, so a bool never plants Interval(True, True) for
            # 1; setdefault, so racing threads agree on one instance.
            return _CONST_POOL.setdefault(value, Interval(value, value))
        return Interval(value, value)

    @staticmethod
    def range(lo: Optional[int], hi: Optional[int]) -> "Interval":
        if lo is not None and hi is not None and lo > hi:
            return _BOTTOM
        if lo == hi and lo is not None:
            return Interval.const(lo)
        return Interval(lo, hi)

    @staticmethod
    def of(values: Iterable[int]) -> "Interval":
        values = list(values)
        if not values:
            return Interval.bottom()
        return Interval(min(values), max(values))

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    @property
    def is_top(self) -> bool:
        return not self.is_bottom and self.lo is None and self.hi is None

    @property
    def is_constant(self) -> bool:
        return (
            not self.is_bottom
            and self.lo is not None
            and self.hi is not None
            and self.lo == self.hi
        )

    @property
    def constant_value(self) -> Optional[int]:
        return self.lo if self.is_constant else None

    @property
    def is_finite(self) -> bool:
        return not self.is_bottom and self.lo is not None and self.hi is not None

    def contains(self, value: int) -> bool:
        if self.is_bottom:
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def includes(self, other: "Interval") -> bool:
        """True if ``other`` ⊆ ``self``."""
        if other.is_bottom:
            return True
        if self.is_bottom:
            return False
        lo_ok = self.lo is None or (other.lo is not None and other.lo >= self.lo)
        hi_ok = self.hi is None or (other.hi is not None and other.hi <= self.hi)
        return lo_ok and hi_ok

    def width(self) -> Optional[int]:
        """Number of integers in the interval (``None`` if unbounded)."""
        if self.is_bottom:
            return 0
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo + 1

    def is_nonnegative(self) -> bool:
        return not self.is_bottom and self.lo is not None and self.lo >= 0

    # ------------------------------------------------------------------ #
    # Lattice operations
    # ------------------------------------------------------------------ #
    def join(self, other: "Interval") -> "Interval":
        if self is other:
            return self
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        # Return an operand when it already equals the result: downstream
        # identity fast paths (AbstractValue.join, state comparisons) then
        # short-circuit without comparing bounds again.
        if lo == self.lo and hi == self.hi:
            return self
        if lo == other.lo and hi == other.hi:
            return other
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> "Interval":
        if self is other:
            return self
        if self.is_bottom or other.is_bottom:
            return _BOTTOM
        if self.lo is None:
            lo = other.lo
        elif other.lo is None:
            lo = self.lo
        else:
            lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        if lo is not None and hi is not None and lo > hi:
            return _BOTTOM
        if lo == self.lo and hi == self.hi:
            return self
        if lo == other.lo and hi == other.hi:
            return other
        return Interval(lo, hi)

    def widen(self, other: "Interval") -> "Interval":
        """Standard widening: bounds that grew jump to ±∞ (clamped later)."""
        if self is other:
            return self
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        lo = self.lo
        if other.lo is None or (lo is not None and other.lo < lo):
            lo = None
        hi = self.hi
        if other.hi is None or (hi is not None and other.hi > hi):
            hi = None
        if lo is self.lo and hi is self.hi:
            return self
        return Interval(lo, hi)

    def narrow(self, other: "Interval") -> "Interval":
        """Standard narrowing: infinite bounds are refined from ``other``."""
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        lo = other.lo if self.lo is None else self.lo
        hi = other.hi if self.hi is None else self.hi
        return Interval.range(lo, hi)

    def clamp32(self) -> "Interval":
        """Clamp unbounded ends to the signed 32-bit range."""
        if self.is_bottom:
            return self
        lo = INT32_MIN if self.lo is None else max(self.lo, INT32_MIN)
        hi = INT32_MAX if self.hi is None else min(self.hi, INT32_MAX)
        return Interval.range(lo, hi)

    # ------------------------------------------------------------------ #
    # Arithmetic transfer functions
    # ------------------------------------------------------------------ #
    def add(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def neg(self) -> "Interval":
        if self.is_bottom:
            return self
        lo = None if self.hi is None else -self.hi
        hi = None if self.lo is None else -self.lo
        return Interval(lo, hi)

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def mul(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if self.is_constant and other.is_constant:
            return Interval.const(self.lo * other.lo)  # type: ignore[operator]
        # General case: if any bound is infinite the product is unbounded
        # unless the other operand is exactly zero.
        if self.is_constant and self.lo == 0:
            return Interval.const(0)
        if other.is_constant and other.lo == 0:
            return Interval.const(0)
        if not (self.is_finite and other.is_finite):
            return Interval.top()
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return Interval(min(products), max(products))

    def divide(self, other: "Interval") -> "Interval":
        """C-style truncating signed division (conservative)."""
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if other.is_constant and other.lo == 0:
            # Division by a guaranteed zero traps at run time; the abstract
            # result is bottom (no normal successor value).
            return Interval.bottom()
        if not (self.is_finite and other.is_finite):
            return Interval.top()
        candidates = []
        divisors = [d for d in (other.lo, other.hi, -1, 1) if d is not None and d != 0]
        divisors = [d for d in divisors if other.contains(d)]
        if not divisors:
            return Interval.top()
        for a in (self.lo, self.hi):
            for b in divisors:
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
                candidates.append(quotient)
        # When the divisor interval crosses +-1 the quotient can be as large as
        # |a|, which the candidate set covers because 1/-1 were included.
        return Interval(min(candidates), max(candidates))

    def remainder(self, other: "Interval") -> "Interval":
        """Conservative modulo: result magnitude below the divisor magnitude."""
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if not other.is_finite:
            return Interval.top()
        max_div = max(abs(other.lo), abs(other.hi))
        if max_div == 0:
            return Interval.bottom()
        if self.is_nonnegative():
            return Interval(0, max_div - 1)
        return Interval(-(max_div - 1), max_div - 1)

    def shift_left(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if other.is_constant and self.is_finite and 0 <= other.lo <= 31:
            lo = self.lo << other.lo
            hi = self.hi << other.lo
            # The machine wraps to signed 32 bits; an interval that leaves
            # that range no longer covers the wrapped concrete value.
            if INT32_MIN <= lo and hi <= INT32_MAX:
                return Interval(lo, hi)
        return Interval.top()

    def shift_right_logical(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if (
            other.is_constant
            and self.is_finite
            and self.is_nonnegative()
            and 0 <= other.lo <= 31
        ):
            return Interval(self.lo >> other.lo, self.hi >> other.lo)
        if other.is_constant and 0 <= other.lo <= 31 and other.lo > 0:
            # Logical shift of a possibly-negative 32-bit value is non-negative.
            return Interval(0, UINT32_MAX >> other.lo)
        return Interval.top()

    def shift_right_arith(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if other.is_constant and self.is_finite and 0 <= other.lo <= 31:
            return Interval(self.lo >> other.lo, self.hi >> other.lo)
        return Interval.top()

    def bit_and(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if self.is_constant and other.is_constant:
            return Interval.const(
                _wrap_signed32((self.lo & 0xFFFFFFFF) & (other.lo & 0xFFFFFFFF))
            )
        # x & mask is within [0, mask] for non-negative mask.
        if other.is_constant and other.lo >= 0:
            return Interval(0, other.lo)
        if self.is_constant and self.lo >= 0:
            return Interval(0, self.lo)
        if self.is_nonnegative() and other.is_nonnegative() and self.is_finite and other.is_finite:
            return Interval(0, min(self.hi, other.hi))
        return Interval.top()

    def bit_or(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if self.is_constant and other.is_constant:
            return Interval.const(
                _wrap_signed32((self.lo & 0xFFFFFFFF) | (other.lo & 0xFFFFFFFF))
            )
        if (
            self.is_finite
            and other.is_finite
            and self.is_nonnegative()
            and other.is_nonnegative()
        ):
            # The OR of two non-negative values is bounded by the next power of
            # two above the larger maximum, minus one (and OR cannot set the
            # sign bit when both operands are non-negative 32-bit values).
            bound = max(self.hi, other.hi)
            result_max = (1 << bound.bit_length()) - 1 if bound > 0 else 0
            return Interval(0, min(result_max, INT32_MAX))
        return Interval.top()

    def bit_xor(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if self.is_constant and other.is_constant:
            return Interval.const(
                _wrap_signed32((self.lo & 0xFFFFFFFF) ^ (other.lo & 0xFFFFFFFF))
            )
        return self.bit_or(other)

    def bit_not(self) -> "Interval":
        if self.is_bottom:
            return self
        return self.neg().sub(Interval.const(1))

    # ------------------------------------------------------------------ #
    # Comparison transfer functions (producing {0}, {1} or {0,1})
    # ------------------------------------------------------------------ #
    def compare_lt(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return _BOTTOM
        if self.hi is not None and other.lo is not None and self.hi < other.lo:
            return Interval.const(1)
        if self.lo is not None and other.hi is not None and self.lo >= other.hi:
            return Interval.const(0)
        return _ZERO_ONE

    def compare_le(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return _BOTTOM
        if self.hi is not None and other.lo is not None and self.hi <= other.lo:
            return Interval.const(1)
        if self.lo is not None and other.hi is not None and self.lo > other.hi:
            return Interval.const(0)
        return _ZERO_ONE

    def compare_eq(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return _BOTTOM
        if self.is_constant and other.is_constant:
            return Interval.const(int(self.lo == other.lo))
        if self.meet(other).is_bottom:
            return Interval.const(0)
        return _ZERO_ONE

    # ------------------------------------------------------------------ #
    # Refinement (used for branch conditions)
    # ------------------------------------------------------------------ #
    def refine_lt(self, other: "Interval") -> "Interval":
        """Refine ``self`` assuming ``self < other`` holds."""
        if other.hi is None:
            return self
        return self.meet(Interval(None, other.hi - 1))

    def refine_le(self, other: "Interval") -> "Interval":
        if other.hi is None:
            return self
        return self.meet(Interval(None, other.hi))

    def refine_gt(self, other: "Interval") -> "Interval":
        if other.lo is None:
            return self
        return self.meet(Interval(other.lo + 1, None))

    def refine_ge(self, other: "Interval") -> "Interval":
        if other.lo is None:
            return self
        return self.meet(Interval(other.lo, None))

    def refine_ne(self, other: "Interval") -> "Interval":
        if other.is_constant and self.is_finite:
            if self.lo == other.lo:
                return Interval.range(self.lo + 1, self.hi)
            if self.hi == other.lo:
                return Interval.range(self.lo, self.hi - 1)
        return self

    # ------------------------------------------------------------------ #
    def __str__(self) -> str:
        if self.is_bottom:
            return "⊥"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


#: Interned instances handed out by the constructors above.  The pool covers
#: the constants the analysis materialises constantly (immediates, loop steps,
#: comparison results, byte offsets), each interned on first use; anything
#: outside [CONST_POOL_MIN, CONST_POOL_MAX] allocates a new instance.
_TOP = Interval(None, None)
_BOTTOM = Interval(0, 0, is_bottom=True)
_ZERO_ONE = Interval(0, 1)
CONST_POOL_MIN, CONST_POOL_MAX = -1024, 4096
_CONST_POOL: Dict[int, Interval] = {}
