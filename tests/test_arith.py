"""Tests for the software-arithmetic package (lDivMod, restoring, soft-float,
fixed point, the Table 1 sampling harness)."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.arith import (
    Fixed,
    PAPER_TABLE1_ROWS,
    RESTORING_ITERATIONS,
    SoftFloat,
    float_add,
    float_div,
    float_mul,
    float_sub,
    ldivmod,
    restoring_divmod,
    sample_iteration_histogram,
)

uint32 = st.integers(0, 2**32 - 1)
uint32_nonzero = st.integers(1, 2**32 - 1)


class TestLDivMod:
    @given(dividend=uint32, divisor=uint32_nonzero)
    @settings(max_examples=300, deadline=None)
    def test_quotient_and_remainder_are_exact(self, dividend, divisor):
        result = ldivmod(dividend, divisor)
        assert (result.quotient, result.remainder) == divmod(dividend, divisor)

    @given(dividend=uint32, divisor=uint32_nonzero)
    @settings(max_examples=200, deadline=None)
    def test_remainder_is_reduced(self, dividend, divisor):
        assert 0 <= ldivmod(dividend, divisor).remainder < divisor

    def test_division_by_zero_rejected(self):
        with pytest.raises(ReproError):
            ldivmod(5, 0)

    def test_out_of_range_operands_rejected(self):
        with pytest.raises(ReproError):
            ldivmod(2**32, 1)

    def test_small_dividend_takes_zero_iterations(self):
        assert ldivmod(1234, 5).iterations == 0

    def test_typical_large_operands_take_one_iteration(self):
        assert ldivmod(0x12345678, 0x00FF_0000).iterations == 1

    def test_directed_worst_case_is_huge(self):
        # Four orders of magnitude above the typical single iteration.
        assert ldivmod(0xFFFF_FFFF, 3).iterations == 21854

    @given(dividend=uint32, divisor=uint32_nonzero)
    @settings(max_examples=200, deadline=None)
    def test_restoring_division_is_exact_and_constant_time(self, dividend, divisor):
        result = restoring_divmod(dividend, divisor)
        assert (result.quotient, result.remainder) == divmod(dividend, divisor)
        assert result.iterations == RESTORING_ITERATIONS


class TestSamplingHarness:
    def test_histogram_shape(self):
        """Table 1 at the default seed: the exact histogram, and the paper's
        prose claims around it."""
        histogram = sample_iteration_histogram(samples=200_000)
        assert histogram.samples == 200_000
        assert sum(histogram.counts.values()) == 200_000
        pinned = {"1": 199_982, "2": 17, "4 .. 9": 1}
        assert histogram.bucketed() == [
            (label, pinned.get(label, 0)) for label, _ in PAPER_TABLE1_ROWS
        ]
        assert histogram.max_iterations == 5
        assert histogram.max_inputs == (0xCD3484D3, 0x00003E5C)
        # "1 iteration in more than 99.8 %", "0, 1 or 2 in more than 99.999 %".
        assert histogram.fraction_exactly(1) > 0.998
        assert histogram.fraction_at_most(2) > 0.99999

    def test_histogram_is_deterministic(self):
        a = sample_iteration_histogram(samples=5_000, seed=7)
        b = sample_iteration_histogram(samples=5_000, seed=7)
        assert a.counts == b.counts and a.max_inputs == b.max_inputs

    def test_bucket_layout_matches_paper(self):
        histogram = sample_iteration_histogram(samples=2_000)
        labels = [label for label, _ in histogram.bucketed()]
        paper_labels = [label for label, _ in PAPER_TABLE1_ROWS]
        assert labels == paper_labels

    def test_format_table_mentions_worst_case(self):
        histogram = sample_iteration_histogram(samples=2_000)
        assert "worst observed" in histogram.format_table()

    def test_restoring_histogram_is_a_single_bar(self):
        histogram = sample_iteration_histogram(samples=2_000, divide=restoring_divmod)
        assert set(histogram.counts) == {RESTORING_ITERATIONS}


def _finite_floats():
    return st.floats(
        min_value=1e-30, max_value=1e30, allow_nan=False, allow_infinity=False
    ).map(lambda x: float(np.float32(x)))


class TestSoftFloat:
    @given(a=_finite_floats(), b=_finite_floats(), negate=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_addition_matches_numpy_float32(self, a, b, negate):
        if negate:
            b = -b
        reference = float(np.float32(a) + np.float32(b))
        if not math.isfinite(reference) or (reference != 0 and abs(reference) < 1.2e-38):
            return
        result = float_add(SoftFloat.from_float(a), SoftFloat.from_float(b)).to_float()
        if reference == 0.0:
            assert abs(result) < 1e-37
        else:
            assert result == pytest.approx(reference, rel=2e-6)

    @given(a=_finite_floats(), b=_finite_floats())
    @settings(max_examples=200, deadline=None)
    def test_multiplication_matches_numpy_float32(self, a, b):
        reference_64 = float(a) * float(b)
        reference = float(np.float32(a) * np.float32(b))
        if not math.isfinite(reference) or abs(reference_64) < 1.2e-38 or abs(reference_64) > 3e38:
            return
        result = float_mul(SoftFloat.from_float(a), SoftFloat.from_float(b)).to_float()
        assert result == pytest.approx(reference, rel=2e-6)

    @given(a=_finite_floats(), b=_finite_floats())
    @settings(max_examples=200, deadline=None)
    def test_division_matches_numpy_float32(self, a, b):
        reference_64 = float(a) / float(b)
        reference = float(np.float32(a) / np.float32(b))
        if not math.isfinite(reference) or abs(reference_64) < 1.2e-38 or abs(reference_64) > 3e38:
            return
        result = float_div(SoftFloat.from_float(a), SoftFloat.from_float(b)).to_float()
        assert result == pytest.approx(reference, rel=2e-6)

    def test_subtraction_uses_negation(self):
        result = float_sub(SoftFloat.from_float(5.0), SoftFloat.from_float(3.0))
        assert result.to_float() == pytest.approx(2.0)

    def test_special_values(self):
        inf = SoftFloat.from_float(float("inf"))
        one = SoftFloat.from_float(1.0)
        assert float_add(inf, one).value.is_infinite
        assert math.isnan(float_sub(inf, inf).to_float())
        zero = SoftFloat.from_float(0.0)
        assert float_div(one, zero).value.is_infinite
        assert math.isnan(float_div(zero, zero).to_float())

    def test_normalisation_steps_are_data_dependent(self):
        close = float_sub(SoftFloat.from_float(1.0000001), SoftFloat.from_float(1.0))
        far = float_add(SoftFloat.from_float(1.0), SoftFloat.from_float(2.0))
        assert close.normalisation_steps > far.normalisation_steps


class TestFixedPoint:
    def test_round_trip(self):
        assert Fixed.from_float(3.25).to_float() == pytest.approx(3.25)
        assert Fixed.from_int(7).to_int() == 7

    def test_arithmetic(self):
        a = Fixed.from_float(2.5)
        b = Fixed.from_float(0.5)
        assert (a + b).to_float() == pytest.approx(3.0)
        assert (a - b).to_float() == pytest.approx(2.0)
        assert (a * b).to_float() == pytest.approx(1.25)
        assert (a / b).to_float() == pytest.approx(5.0)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ReproError):
            Fixed.from_int(1) / Fixed.from_int(0)

    def test_saturation(self):
        big = Fixed.from_float(40000.0)
        assert (big * big).raw == 2**31 - 1

    def test_ordering(self):
        assert Fixed.from_float(1.5) < Fixed.from_float(2.0)
        assert Fixed.from_float(-1.0) <= Fixed.from_float(-1.0)

    @given(x=st.floats(-16000, 16000, allow_nan=False), y=st.floats(-16000, 16000, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_addition_close_to_real_arithmetic(self, x, y):
        # Operands are kept within half the Q16.16 range so the sum cannot
        # saturate (saturation behaviour is covered by test_saturation).
        result = (Fixed.from_float(x) + Fixed.from_float(y)).to_float()
        assert result == pytest.approx(x + y, abs=2e-4)
