"""``lDivMod``-style 32-bit unsigned division with an iteration counter.

The original routine ships with the CodeWarrior V4.6 runtime for the Freescale
HCS12X, a processor with a 16-bit hardware divider but no 32-bit one.  The
binary is proprietary, so this module reimplements the *algorithmic skeleton*
the paper describes — "an iteration computing successive approximations to the
final result" built on 16-bit hardware division steps:

1. dividends below 2^16 are handled with a single hardware division (no
   iteration at all — the paper's rare ``0`` row);
2. otherwise each iteration performs one scaled 16-bit estimate of the next
   quotient chunk (the estimate uses only the top 16 bits of the divisor and
   is capped at the 16-bit hardware quotient range) and subtracts the
   corresponding multiple of the divisor from the remainder;
3. the loop repeats until the remainder drops below the divisor.

The resulting iteration-count distribution has the properties Table 1 reports:
the overwhelming majority of random inputs finish in exactly one iteration,
counts 0–2 cover all but a fraction of a per-mille, and a very thin tail of
specific inputs (small divisors, where each 16-bit quotient chunk recovers only
a small part of a huge quotient) needs hundreds of iterations.  There is no
simple closed-form way to predict the count from the operands, which is
precisely why a static WCET analysis has to assume the worst case for every
context in which the operand values are unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

#: Values are 32-bit unsigned.
UINT32_MASK = 0xFFFF_FFFF
#: Quotient chunk produced by one 16-bit hardware division step.
CHUNK_MASK = 0xFFFF

#: A safe upper bound on the number of iterations of :func:`ldivmod` for any
#: 32-bit input pair.  The slow path peels at least ``divisor`` (and at least
#: one 16-bit chunk worth of quotient) per iteration, so the count is bounded
#: by ``ceil(2^32 / (divisor * 2^16))`` for divisors below 2^16 and by a small
#: constant otherwise; the global maximum is attained at ``divisor == 1``.
#: This is the number a WCET analysis has to assume when nothing is known
#: about the operands — compare it with the typical count of 1.
LDIVMOD_WORST_CASE_BOUND = 65536


@dataclass(frozen=True)
class DivisionResult:
    """Quotient, remainder and the number of approximation iterations."""

    quotient: int
    remainder: int
    iterations: int


def ldivmod(dividend: int, divisor: int) -> DivisionResult:
    """Divide two 32-bit unsigned integers, counting approximation iterations.

    Raises :class:`ReproError` on division by zero or out-of-range operands.
    The returned quotient/remainder are always exact (property-tested against
    Python's ``divmod``); only the *work* needed to obtain them varies.
    """
    if not 0 <= dividend <= UINT32_MASK or not 0 <= divisor <= UINT32_MASK:
        raise ReproError("ldivmod operands must be 32-bit unsigned integers")
    if divisor == 0:
        raise ReproError("ldivmod: division by zero")

    # Fast path: the dividend fits into 16 bits, a single hardware division
    # finishes the job without entering the approximation loop.
    if dividend <= CHUNK_MASK:
        return DivisionResult(dividend // divisor, dividend % divisor, 0)

    # Scale the divisor down to a 16-bit estimate (what the 16-bit hardware
    # divider can digest).
    shift = max(0, divisor.bit_length() - 16)
    divisor_high = divisor >> shift

    quotient = 0
    remainder = dividend
    iterations = 0
    # The approximation loop always runs at least once for 32-bit dividends
    # (the scaling and the first hardware estimate are performed even when the
    # quotient turns out to be zero) — this is why Table 1 shows iteration
    # count 1, not 0, for the ordinary dividend < divisor case.
    while True:
        iterations += 1
        if remainder >= divisor:
            # One 16-bit hardware division: estimate the next quotient chunk
            # from the top bits of the remainder and the (truncated) top bits
            # of the divisor.  Using divisor_high + 1 guarantees an
            # under-estimate, so the remainder never goes negative; the chunk
            # is capped at the 16-bit quotient range of the hardware divider.
            chunk = (remainder >> shift) // (divisor_high + 1)
            if chunk > CHUNK_MASK:
                chunk = CHUNK_MASK
            if chunk == 0:
                chunk = 1
            quotient += chunk
            remainder -= chunk * divisor
        if remainder < divisor:
            break

    return DivisionResult(quotient, remainder, iterations)
