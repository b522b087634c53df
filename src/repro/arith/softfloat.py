"""IEEE-754 single-precision software floating point.

Platforms like the HCS12X (no FPU) or the MPC5554 (single-precision FPU only)
fall back to software routines for floating-point work.  Such routines contain
data-dependent normalisation loops — another instance of the paper's
"software arithmetic" predictability problem.  This module implements
single-precision add/sub/mul/div over plain integers, counts the
normalisation-shift steps each operation needs, and is property-tested against
Python's native floats.

The implementation uses round-to-nearest-even, supports signed zero and
infinities, flushes subnormal results to zero (a common choice of embedded
soft-float libraries) and treats NaN inputs as propagating quiet NaNs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass


_SIGN_BIT = 0x8000_0000
_EXP_MASK = 0xFF
_FRAC_BITS = 23
_FRAC_MASK = (1 << _FRAC_BITS) - 1
_EXP_BIAS = 127
_QNAN = 0x7FC0_0000


def float_to_bits(value: float) -> int:
    """IEEE-754 single-precision bit pattern of a Python float."""
    return struct.unpack("<I", struct.pack("<f", value))[0]


def bits_to_float(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFF_FFFF))[0]


@dataclass(frozen=True)
class SoftFloat:
    """A single-precision value carried as its raw bit pattern."""

    bits: int

    # ------------------------------------------------------------------ #
    @staticmethod
    def from_float(value: float) -> "SoftFloat":
        return SoftFloat(float_to_bits(value))

    def to_float(self) -> float:
        return bits_to_float(self.bits)

    # ------------------------------------------------------------------ #
    @property
    def sign(self) -> int:
        return (self.bits >> 31) & 1

    @property
    def exponent(self) -> int:
        return (self.bits >> _FRAC_BITS) & _EXP_MASK

    @property
    def fraction(self) -> int:
        return self.bits & _FRAC_MASK

    @property
    def is_nan(self) -> bool:
        return self.exponent == _EXP_MASK and self.fraction != 0

    @property
    def is_infinite(self) -> bool:
        return self.exponent == _EXP_MASK and self.fraction == 0

    @property
    def is_zero(self) -> bool:
        return self.exponent == 0 and self.fraction == 0

    @property
    def is_subnormal(self) -> bool:
        return self.exponent == 0 and self.fraction != 0

    def significand(self) -> int:
        """Significand with the implicit leading one (0 for zeros/subnormals)."""
        if self.exponent == 0:
            return self.fraction
        return self.fraction | (1 << _FRAC_BITS)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"SoftFloat({self.to_float()!r})"


@dataclass(frozen=True)
class SoftFloatResult:
    """Result value plus the number of normalisation steps the operation used."""

    value: SoftFloat
    normalisation_steps: int

    def to_float(self) -> float:
        return self.value.to_float()


def _pack(sign: int, exponent: int, fraction: int) -> SoftFloat:
    return SoftFloat(((sign & 1) << 31) | ((exponent & _EXP_MASK) << _FRAC_BITS) | (fraction & _FRAC_MASK))


def _round_and_pack(sign: int, exponent: int, significand: int, steps: int) -> SoftFloatResult:
    """Normalise/round a significand with 3 extra guard bits into a SoftFloat."""
    # Normalise left (small results) — data-dependent loop.
    while significand and significand < (1 << (_FRAC_BITS + 3)):
        significand <<= 1
        exponent -= 1
        steps += 1
    # Normalise right (overflowed results) — data-dependent loop.
    while significand >= (1 << (_FRAC_BITS + 4)):
        sticky = significand & 1
        significand = (significand >> 1) | sticky
        exponent += 1
        steps += 1

    if significand == 0:
        return SoftFloatResult(_pack(sign, 0, 0), steps)

    # Round to nearest even on the 3 guard bits.
    guard = significand & 0x7
    significand >>= 3
    if guard > 0x4 or (guard == 0x4 and (significand & 1)):
        significand += 1
        if significand >> (_FRAC_BITS + 1):
            significand >>= 1
            exponent += 1
            steps += 1

    if exponent >= _EXP_MASK:
        return SoftFloatResult(_pack(sign, _EXP_MASK, 0), steps)   # overflow -> inf
    if exponent <= 0:
        return SoftFloatResult(_pack(sign, 0, 0), steps)           # flush to zero
    return SoftFloatResult(_pack(sign, exponent, significand & _FRAC_MASK), steps)


def _handle_special(a: SoftFloat, b: SoftFloat) -> SoftFloat:
    if a.is_nan or b.is_nan:
        return SoftFloat(_QNAN)
    return None  # type: ignore[return-value]


# --------------------------------------------------------------------------- #
# Operations
# --------------------------------------------------------------------------- #
def float_add(a: SoftFloat, b: SoftFloat) -> SoftFloatResult:
    """Single-precision addition."""
    special = _handle_special(a, b)
    if special is not None:
        return SoftFloatResult(special, 0)
    if a.is_infinite or b.is_infinite:
        if a.is_infinite and b.is_infinite and a.sign != b.sign:
            return SoftFloatResult(SoftFloat(_QNAN), 0)
        return SoftFloatResult(a if a.is_infinite else b, 0)
    if a.is_zero or a.is_subnormal:
        return SoftFloatResult(SoftFloat(b.bits if not (b.is_subnormal) else (b.sign << 31)), 0)
    if b.is_zero or b.is_subnormal:
        return SoftFloatResult(SoftFloat(a.bits), 0)

    steps = 0
    exp_a, exp_b = a.exponent, b.exponent
    sig_a = a.significand() << 3
    sig_b = b.significand() << 3

    # Align the smaller operand — data-dependent shift loop.
    if exp_a < exp_b:
        a, b = b, a
        exp_a, exp_b = exp_b, exp_a
        sig_a, sig_b = sig_b, sig_a
    shift = exp_a - exp_b
    while shift > 0:
        sticky = sig_b & 1
        sig_b = (sig_b >> 1) | sticky
        shift -= 1
        steps += 1
        if sig_b == 0:
            break

    if a.sign == b.sign:
        significand = sig_a + sig_b
        sign = a.sign
    else:
        if sig_a >= sig_b:
            significand = sig_a - sig_b
            sign = a.sign
        else:
            significand = sig_b - sig_a
            sign = b.sign
    return _round_and_pack(sign, exp_a, significand, steps)


def float_sub(a: SoftFloat, b: SoftFloat) -> SoftFloatResult:
    """Single-precision subtraction (negate and add)."""
    negated = SoftFloat(b.bits ^ _SIGN_BIT)
    return float_add(a, negated)


def float_mul(a: SoftFloat, b: SoftFloat) -> SoftFloatResult:
    """Single-precision multiplication."""
    special = _handle_special(a, b)
    if special is not None:
        return SoftFloatResult(special, 0)
    sign = a.sign ^ b.sign
    if a.is_infinite or b.is_infinite:
        if a.is_zero or b.is_zero or a.is_subnormal or b.is_subnormal:
            return SoftFloatResult(SoftFloat(_QNAN), 0)
        return SoftFloatResult(_pack(sign, _EXP_MASK, 0), 0)
    if a.is_zero or b.is_zero or a.is_subnormal or b.is_subnormal:
        return SoftFloatResult(_pack(sign, 0, 0), 0)

    exponent = a.exponent + b.exponent - _EXP_BIAS
    product = a.significand() * b.significand()
    # Pre-shift the 48-bit product down to 27 bits (24 + 3 guard bits).
    significand = product >> (_FRAC_BITS - 3)
    if product & ((1 << (_FRAC_BITS - 3)) - 1):
        significand |= 1
    return _round_and_pack(sign, exponent, significand, 0)


def float_div(a: SoftFloat, b: SoftFloat) -> SoftFloatResult:
    """Single-precision division (long division over the significands)."""
    special = _handle_special(a, b)
    if special is not None:
        return SoftFloatResult(special, 0)
    sign = a.sign ^ b.sign
    if b.is_zero or b.is_subnormal:
        if a.is_zero or a.is_subnormal:
            return SoftFloatResult(SoftFloat(_QNAN), 0)
        return SoftFloatResult(_pack(sign, _EXP_MASK, 0), 0)
    if a.is_infinite:
        if b.is_infinite:
            return SoftFloatResult(SoftFloat(_QNAN), 0)
        return SoftFloatResult(_pack(sign, _EXP_MASK, 0), 0)
    if b.is_infinite or a.is_zero or a.is_subnormal:
        return SoftFloatResult(_pack(sign, 0, 0), 0)

    exponent = a.exponent - b.exponent + _EXP_BIAS
    dividend = a.significand() << (_FRAC_BITS + 3)
    quotient, remainder = divmod(dividend, b.significand())
    if remainder:
        quotient |= 1
    return _round_and_pack(sign, exponent, quotient, 0)
