"""Software-arithmetic workloads (Section 4.3 "Software Arithmetic") and the
single-path transformation pair (Section 2, Puschner/Kirner critique).

* ``ldivmod`` — the estimate-and-correct 32-bit division compiled to the IR
  (the same algorithm as :mod:`repro.arith.ldivmod`); its loop is input-data
  dependent, so WCET analysis must either be told the worst-case iteration
  count or assume a huge bound.
* ``restoring division`` — the fixed-iteration alternative; its loop bound is
  found automatically and its WCET equals its typical time.
* ``fixed-point filter`` vs. ``soft-float style filter`` — a small control-law
  kernel in constant-time fixed-point arithmetic vs. one calling the division
  routine per sample.
* ``single-path pair`` — an IR-level kernel once with data-dependent branches
  and once transformed into a single path using predicated instructions: the
  predicated version always fetches (and pays for) both alternatives, which is
  exactly why the paper argues the transformation impairs the worst case.
"""

from __future__ import annotations

import functools
from typing import Tuple

from repro.annotations import AnnotationSet
from repro.arith.ldivmod import LDIVMOD_WORST_CASE_BOUND
from repro.ir.builder import ProgramBuilder
from repro.ir.program import Program
from repro.minic.codegen import compile_source

#: Number of samples processed by the filter kernels.
FILTER_SAMPLES = 8

# --------------------------------------------------------------------------- #
# lDivMod in mini-C (same algorithm as repro.arith.ldivmod, unsigned 32 bit)
# --------------------------------------------------------------------------- #
LDIVMOD_SOURCE = """
unsigned int last_remainder;

/* Estimate-and-correct division built on a 16-bit hardware divider
   (reimplementation of the CodeWarrior lDivMod skeleton). */
unsigned int ldivmod(unsigned int dividend, unsigned int divisor) {
    unsigned int quotient = 0;
    unsigned int remainder = dividend;
    unsigned int shift = 0;
    unsigned int divisor_high;
    unsigned int chunk;
    unsigned int scaled;

    if (dividend < 65536) {
        last_remainder = dividend % divisor;
        return dividend / divisor;
    }
    scaled = divisor;
    while (scaled >= 65536) {
        scaled = scaled >> 1;
        shift = shift + 1;
    }
    divisor_high = scaled;
approximate:
    if (remainder >= divisor) {
        chunk = (remainder >> shift) / (divisor_high + 1);
        if (chunk > 65535) {
            chunk = 65535;
        }
        if (chunk == 0) {
            chunk = 1;
        }
        quotient = quotient + chunk;
        remainder = remainder - chunk * divisor;
    }
    if (remainder >= divisor) {
        goto approximate;
    }
    last_remainder = remainder;
    return quotient;
}

unsigned int dividend_input;
unsigned int divisor_input;

int main(void) {
    return ldivmod(dividend_input, divisor_input);
}
"""

RESTORING_SOURCE = """
unsigned int last_remainder;

/* Restoring shift-subtract division: exactly 32 iterations, data independent. */
unsigned int restoring_div(unsigned int dividend, unsigned int divisor) {
    unsigned int remainder = 0;
    unsigned int quotient = 0;
    int bit;
    for (bit = 31; bit >= 0; bit--) {
        remainder = (remainder << 1) | ((dividend >> bit) & 1);
        if (remainder >= divisor) {
            remainder = remainder - divisor;
            quotient = quotient | (1 << bit);
        }
    }
    last_remainder = remainder;
    return quotient;
}

unsigned int dividend_input;
unsigned int divisor_input;

int main(void) {
    return restoring_div(dividend_input, divisor_input);
}
"""

# --------------------------------------------------------------------------- #
# Control-law kernels: division-based scaling vs. fixed-point scaling
# --------------------------------------------------------------------------- #
DIVISION_FILTER_SOURCE = f"""
unsigned int samples[{FILTER_SAMPLES}];
unsigned int gains[{FILTER_SAMPLES}];
unsigned int last_remainder;

unsigned int ldivmod(unsigned int dividend, unsigned int divisor) {{
    unsigned int quotient = 0;
    unsigned int remainder = dividend;
    unsigned int shift = 0;
    unsigned int divisor_high;
    unsigned int chunk;
    unsigned int scaled;
    if (dividend < 65536) {{
        last_remainder = dividend % divisor;
        return dividend / divisor;
    }}
    scaled = divisor;
    while (scaled >= 65536) {{
        scaled = scaled >> 1;
        shift = shift + 1;
    }}
    divisor_high = scaled;
approximate:
    if (remainder >= divisor) {{
        chunk = (remainder >> shift) / (divisor_high + 1);
        if (chunk > 65535) {{
            chunk = 65535;
        }}
        if (chunk == 0) {{
            chunk = 1;
        }}
        quotient = quotient + chunk;
        remainder = remainder - chunk * divisor;
    }}
    if (remainder >= divisor) {{
        goto approximate;
    }}
    last_remainder = remainder;
    return quotient;
}}

int main(void) {{
    int i;
    unsigned int acc = 0;
    for (i = 0; i < {FILTER_SAMPLES}; i++) {{
        acc = acc + ldivmod(samples[i], gains[i] + 1);
    }}
    return acc;
}}
"""

FIXEDPOINT_FILTER_SOURCE = f"""
int samples[{FILTER_SAMPLES}];
int gains[{FILTER_SAMPLES}];

/* Q16.16 multiply by a pre-computed reciprocal: constant-time scaling. */
int main(void) {{
    int i;
    int acc = 0;
    for (i = 0; i < {FILTER_SAMPLES}; i++) {{
        int scaled = (samples[i] * gains[i]) >> 16;
        acc = acc + scaled;
    }}
    return acc;
}}
"""


def ldivmod_program(entry: str = "ldivmod") -> Program:
    return compile_source(LDIVMOD_SOURCE, entry=entry)


def restoring_program(entry: str = "restoring_div") -> Program:
    return compile_source(RESTORING_SOURCE, entry=entry)


def division_filter_program() -> Program:
    return compile_source(DIVISION_FILTER_SOURCE)


def fixedpoint_filter_program() -> Program:
    return compile_source(FIXEDPOINT_FILTER_SOURCE)


def ldivmod_annotations(
    max_iterations: int = LDIVMOD_WORST_CASE_BOUND,
    scaling_bound: int = 16,
) -> AnnotationSet:
    """Manual bounds for the ldivmod loops (nothing is derivable automatically).

    ``max_iterations`` bounds the ``approximate`` correction loop (the safe
    bound for unknown operands is :data:`LDIVMOD_WORST_CASE_BOUND`; a designer
    who can restrict the operand ranges may use a smaller number).
    ``scaling_bound`` bounds the divisor-scaling ``while`` loop (at most 16
    shifts are ever needed to bring a 32-bit divisor below 2^16).
    """
    annotation_set = AnnotationSet()
    annotation_set.add_loop_bound(
        "ldivmod", "approximate", max_iterations,
        comment="correction loop: worst case over all 32-bit operand pairs",
    )
    # The scaling loop is a counter-like loop on a data value; annotate it for
    # robustness (the automatic analysis cannot bound `scaled >>= 1` loops).
    for label in _loop_labels("ldivmod"):
        annotation_set.add_loop_bound(
            "ldivmod", label, scaling_bound, comment="a 32-bit divisor needs at most 16 shifts"
        )
    return annotation_set


@functools.lru_cache(maxsize=None)
def _loop_labels(function_name: str) -> Tuple[str, ...]:
    # Memoised: the source is a constant, and every ldivmod project reads
    # these labels for its annotations.
    program = compile_source(LDIVMOD_SOURCE, entry=function_name)
    return tuple(
        label
        for label in program.function(function_name).labels()
        if label.startswith("loop_")
    )


def division_filter_annotations(max_iterations: int = LDIVMOD_WORST_CASE_BOUND) -> AnnotationSet:
    """Same bounds as :func:`ldivmod_annotations` but for the filter workload."""
    annotation_set = AnnotationSet()
    annotation_set.add_loop_bound(
        "ldivmod", "approximate", max_iterations,
        comment="correction loop: worst case over all 32-bit operand pairs",
    )
    compiled = division_filter_program()
    for label in compiled.function("ldivmod").labels():
        if label.startswith("loop_"):
            annotation_set.add_loop_bound(
                "ldivmod", label, 16, comment="a 32-bit divisor needs at most 16 shifts"
            )
    return annotation_set


# --------------------------------------------------------------------------- #
# Single-path transformation pair (IR level, uses predicated instructions)
# --------------------------------------------------------------------------- #
def branchy_kernel() -> Program:
    """Data-dependent kernel: per element either a cheap or an expensive path."""
    builder = ProgramBuilder(entry="main")
    builder.data("values", FILTER_SAMPLES * 4)
    fb = builder.function("main")
    fb.mov("r14", 0)            # index
    fb.mov("r15", 0)            # accumulator
    fb.la("r16", "values")
    fb.label("loop")
    fb.load("r17", "r16", 0)
    fb.slt("r18", "r17", 0)
    fb.bt("r18", "negative")
    # positive path: saturating gain
    fb.mul("r19", "r17", 5)
    fb.sra("r19", "r19", 2)
    fb.add("r15", "r15", "r19")
    fb.br("join")
    fb.label("negative")
    # negative path: expensive compensation
    fb.mul("r19", "r17", -3)
    fb.add("r19", "r19", 7)
    fb.mul("r19", "r19", "r17")
    fb.sub("r15", "r15", "r19")
    fb.label("join")
    fb.add("r16", "r16", 4)
    fb.add("r14", "r14", 1)
    fb.slt("r18", "r14", FILTER_SAMPLES)
    fb.bt("r18", "loop")
    fb.mov("r3", "r15")
    fb.halt()
    return builder.build()


def single_path_kernel() -> Program:
    """The same kernel after the single-path transformation.

    Both alternatives are turned into predicated instructions guarded by the
    comparison result and its negation: every iteration fetches and times both
    paths, which removes the data dependence of the execution time but makes
    every iteration as expensive as the sum of both alternatives — the paper's
    argument against the transformation on conventional hardware.
    """
    builder = ProgramBuilder(entry="main")
    builder.data("values", FILTER_SAMPLES * 4)
    fb = builder.function("main")
    fb.mov("r14", 0)
    fb.mov("r15", 0)
    fb.la("r16", "values")
    fb.label("loop")
    fb.load("r17", "r16", 0)
    fb.slt("r18", "r17", 0)      # predicate: value is negative
    fb.seq("r20", "r18", 0)      # complementary predicate
    # positive path, predicated on r20
    fb.mul("r19", "r17", 5, pred="r20")
    fb.sra("r19", "r19", 2, pred="r20")
    fb.add("r15", "r15", "r19", pred="r20")
    # negative path, predicated on r18
    fb.mul("r19", "r17", -3, pred="r18")
    fb.add("r19", "r19", 7, pred="r18")
    fb.mul("r19", "r19", "r17", pred="r18")
    fb.sub("r15", "r15", "r19", pred="r18")
    fb.add("r16", "r16", 4)
    fb.add("r14", "r14", 1)
    fb.slt("r18", "r14", FILTER_SAMPLES)
    fb.bt("r18", "loop")
    fb.mov("r3", "r15")
    fb.halt()
    return builder.build()
