"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.hardware.processor import leon2_like, simple_scalar
from repro.ir.asmparser import parse_assembly

# Every Hypothesis test draws the same examples on every run, so a tier-1
# failure reproduces from a rerun of the same commit.  ``derandomize`` also
# turns the example database off; ``max_examples`` stays per test.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


COUNTER_LOOP_ASM = """
.data buf 64 init=1,2,3,4,5,6,7,8
.func main
    mov r3, 0
    mov r4, 0
    la r6, buf
loop:
    load r7, [r6 + 0]
    add r3, r3, r7
    add r6, r6, 4
    add r4, r4, 1
    slt r5, r4, 8
    bt r5, loop
    call scale
    halt
.func scale params=1
    mul r3, r3, 3
    ret
"""


@pytest.fixture
def counter_loop_program():
    """A small two-function program with an 8-iteration counter loop."""
    return parse_assembly(COUNTER_LOOP_ASM)


@pytest.fixture
def scalar_processor():
    return simple_scalar()


@pytest.fixture
def cached_processor():
    return leon2_like()
