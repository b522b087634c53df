"""Property-based tests of the abstract domains (intervals, abstract state)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.domains.interval import Interval
from repro.analysis.domains.memstate import (
    STACK_BASE,
    AbstractMemory,
    AbstractState,
    AbstractValue,
)

small_ints = st.integers(-1000, 1000)


def intervals(draw_bounds=small_ints):
    """Strategy for (non-bottom) intervals, including half-open ones."""
    return st.builds(
        lambda a, b, open_lo, open_hi: Interval(
            None if open_lo else min(a, b), None if open_hi else max(a, b)
        ),
        small_ints,
        small_ints,
        st.booleans(),
        st.booleans(),
    )


def members(interval: Interval, candidates):
    return [value for value in candidates if interval.contains(value)]


# --------------------------------------------------------------------------- #
# Interval lattice laws
# --------------------------------------------------------------------------- #
class TestIntervalLattice:
    @given(intervals(), intervals())
    @settings(max_examples=200, deadline=None)
    def test_join_is_upper_bound(self, a, b):
        joined = a.join(b)
        assert joined.includes(a) and joined.includes(b)

    @given(intervals(), intervals())
    @settings(max_examples=200, deadline=None)
    def test_meet_is_lower_bound(self, a, b):
        met = a.meet(b)
        assert a.includes(met) and b.includes(met)

    @given(intervals())
    @settings(max_examples=100, deadline=None)
    def test_join_with_bottom_is_identity(self, a):
        assert a.join(Interval.bottom()) == a

    @given(intervals(), intervals())
    @settings(max_examples=200, deadline=None)
    def test_widening_over_approximates_join(self, a, b):
        widened = a.widen(b)
        assert widened.includes(a.join(b))

    @given(intervals())
    @settings(max_examples=100, deadline=None)
    def test_top_includes_everything(self, a):
        assert Interval.top().includes(a)

    def test_bottom_properties(self):
        bottom = Interval.bottom()
        assert bottom.is_bottom and not bottom.contains(0) and bottom.width() == 0

    def test_constant_interval(self):
        c = Interval.const(5)
        assert c.is_constant and c.constant_value == 5 and c.width() == 1


# --------------------------------------------------------------------------- #
# Interval arithmetic soundness: f(a) in F(A) whenever a in A
# --------------------------------------------------------------------------- #
class TestIntervalArithmeticSoundness:
    @given(intervals(), intervals(), small_ints, small_ints)
    @settings(max_examples=200, deadline=None)
    def test_add_sound(self, A, B, a, b):
        if A.contains(a) and B.contains(b):
            assert A.add(B).contains(a + b)

    @given(intervals(), intervals(), small_ints, small_ints)
    @settings(max_examples=200, deadline=None)
    def test_sub_sound(self, A, B, a, b):
        if A.contains(a) and B.contains(b):
            assert A.sub(B).contains(a - b)

    @given(intervals(), intervals(), small_ints, small_ints)
    @settings(max_examples=200, deadline=None)
    def test_mul_sound(self, A, B, a, b):
        if A.contains(a) and B.contains(b):
            assert A.mul(B).contains(a * b)

    @given(intervals(), intervals(), small_ints, small_ints)
    @settings(max_examples=200, deadline=None)
    def test_divide_sound(self, A, B, a, b):
        if b == 0 or not (A.contains(a) and B.contains(b)):
            return
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        assert A.divide(B).contains(quotient)

    @given(intervals(), small_ints)
    @settings(max_examples=150, deadline=None)
    def test_neg_sound(self, A, a):
        if A.contains(a):
            assert A.neg().contains(-a)

    @given(st.integers(0, 4000), st.integers(0, 4000), st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_shift_left_sound(self, a, b, shift):
        A = Interval(min(a, b), max(a, b))
        assert A.shift_left(Interval.const(shift)).contains(a << shift)

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=150, deadline=None)
    def test_bit_and_mask_bound(self, value, mask):
        A = Interval(0, 255)
        result = A.bit_and(Interval.const(mask))
        assert result.contains(value & mask)

    def test_compare_lt_definitive(self):
        assert Interval(0, 3).compare_lt(Interval(5, 9)) == Interval.const(1)
        assert Interval(10, 12).compare_lt(Interval(0, 9)) == Interval.const(0)
        assert Interval(0, 9).compare_lt(Interval(5, 6)) == Interval(0, 1)

    def test_refinement_lt(self):
        refined = Interval(0, 100).refine_lt(Interval.const(10))
        assert refined == Interval(0, 9)

    def test_refinement_ne_trims_endpoints(self):
        assert Interval(0, 10).refine_ne(Interval.const(10)) == Interval(0, 9)
        assert Interval(0, 10).refine_ne(Interval.const(0)) == Interval(1, 10)


# --------------------------------------------------------------------------- #
# Abstract values / memory / state
# --------------------------------------------------------------------------- #
class TestAbstractState:
    def test_address_values_keep_their_base(self):
        pointer = AbstractValue.address("buf", Interval.const(8))
        moved = pointer.add(AbstractValue.const(4))
        assert moved.bases == frozenset({"buf"})
        assert moved.interval == Interval.const(12)

    def test_pointer_difference_is_numeric(self):
        a = AbstractValue.address("buf", Interval.const(8))
        b = AbstractValue.address("buf", Interval.const(4))
        assert a.sub(b).bases == frozenset()

    def test_float_values_are_top_intervals(self):
        assert AbstractValue.float_value().interval.is_top

    def test_strong_update_then_load(self):
        memory = AbstractMemory()
        memory.store_strong("buf", 4, AbstractValue.const(42))
        assert memory.load("buf", 4).constant_value == 42

    def test_unknown_cell_is_top(self):
        assert AbstractMemory().load("buf", 0).is_top

    def test_weak_update_joins(self):
        memory = AbstractMemory()
        memory.store_strong("buf", 0, AbstractValue.const(1))
        memory.store_weak("buf", AbstractValue.const(5))
        loaded = memory.load("buf", 0)
        assert loaded.interval == Interval(1, 5)

    def test_clobber_all_keeps_selected_bases(self):
        memory = AbstractMemory()
        memory.store_strong(STACK_BASE, 0, AbstractValue.const(1))
        memory.store_strong("globals", 0, AbstractValue.const(2))
        memory.clobber_all(keep_bases={STACK_BASE})
        assert memory.load(STACK_BASE, 0).constant_value == 1
        assert memory.load("globals", 0).is_top

    def test_state_join_keeps_common_facts_only(self):
        a = AbstractState()
        b = AbstractState()
        a.set("r1", AbstractValue.const(1))
        b.set("r1", AbstractValue.const(3))
        joined = a.join(b)
        assert joined.get("r1").interval == Interval(1, 3)

    def test_setting_register_kills_dependent_facts(self):
        from repro.analysis.domains.memstate import PredicateFact
        from repro.ir.instructions import Opcode

        state = AbstractState()
        state.set("r1", AbstractValue.const(1))
        state.set_fact("r2", PredicateFact(Opcode.SLT, ("reg", "r1"), ("const", 5)))
        state.set("r1", AbstractValue.const(9))
        assert "r2" not in state.facts

    def test_unreachable_state_join_identity(self):
        state = AbstractState()
        state.set("r1", AbstractValue.const(4))
        joined = state.join(AbstractState.unreachable())
        assert joined.get("r1").constant_value == 4

    def test_includes_is_reflexive(self):
        state = AbstractState()
        state.set("r1", AbstractValue(Interval(0, 5)))
        assert state.includes(state)
