"""The paper's evaluation, rerun as tier-1 assertions.

Each test reruns one experiment on the workloads that reproduce it: Figure 1's
phases, Section 4.3's design-level facts (operating modes, error scenarios,
the message handler's flow facts, memory regions, software arithmetic), the
MISRA rule experiments and the single-path argument of Section 2.  It checks
the paper's claim (which variant wins, and by roughly what factor) and pins
every bound and observed cycle count the experiment yields, so a change that
moves one fails here by name.  Table 1 lives in tests/test_arith.py.
"""

from __future__ import annotations

import pytest

from repro.annotations import AnnotationSet
from repro.errors import CFGError, UnboundedLoopError
from repro.guidelines import ChallengeTier, GuidelineChecker
from repro.hardware import TraceTimer, hcs12x_like, leon2_like, simple_scalar
from repro.ir import Interpreter
from repro.wcet import WCETAnalyzer
from repro.workloads import (
    arithmetic_suite,
    error_handling,
    flight_control,
    functions_suite,
    loops_suite,
    message_handler,
    pointer_suite,
)


def _analyze(program, processor=None, annotations=None, **query):
    analyzer = WCETAnalyzer(program, processor or simple_scalar(), annotations=annotations)
    return analyzer.analyze(**query)


def _wcet(program, processor=None, annotations=None, **query):
    return _analyze(program, processor, annotations, **query).wcet_cycles


def _observed(program, processor, function=None, **inputs):
    """``(cycles, return value)`` of one concrete run under the trace timer."""
    run = Interpreter(program).run(function, **inputs)
    return TraceTimer(processor, program).time(run.trace).cycles, run.return_value


def _findings(source, rule):
    return GuidelineChecker().check_source(source).findings_for(rule)


class TestFigure1:
    def test_every_phase_runs_and_yields_its_products(self):
        report = _analyze(
            message_handler.program(), leon2_like(), message_handler.annotations(),
            entry="handle_message",
        )
        assert {timing.phase for timing in report.phases} >= {
            "decoding", "loop/value analysis", "cache analysis",
            "pipeline analysis", "path analysis",
        }
        entry = report.entry_report
        assert (report.wcet_cycles, report.bcet_cycles) == (1627, 63)
        assert len(entry.block_times) == 14
        assert len([loop for loop in entry.loop_reports if loop.bound is not None]) == 2
        assert entry.icache_summary == {"AH": 45, "AM": 8, "NC": 12}
        assert entry.dcache_summary == {"AH": 0, "AM": 1, "NC": 16}


class TestDesignLevelFacts:
    """Section 4.3: each documented fact tightens the bound."""

    def test_operating_modes(self):
        program, annotations = flight_control.program(), flight_control.annotations()
        unaware, ground, air = (
            _wcet(program, leon2_like(), annotations, mode=mode)
            for mode in (None, "ground", "air")
        )
        assert (unaware, ground, air) == (4698, 340, 4698)
        # The worst mode is the mode-unaware bound; the cheap mode is >= 3x tighter.
        assert max(ground, air) == unaware
        assert unaware >= 3 * ground

    def test_error_scenarios(self):
        program, annotations = error_handling.program(), error_handling.annotations()
        all_at_once, single_fault, excluded = (
            _wcet(program, leon2_like(), annotations, entry="monitor", error_scenario=scenario)
            for scenario in (None, "single_fault", "errors_excluded")
        )
        assert (all_at_once, single_fault, excluded) == (6938, 1935, 259)
        # Four handlers against one: the single-fault scenario gains over 2x.
        assert all_at_once > 2 * single_fault
        assert single_fault > excluded

    def test_message_handler_facts(self):
        program = message_handler.program()
        loop_bounds_only, argument_range, exclusion = (
            _wcet(program, leon2_like(), annotations, entry="handle_message")
            for annotations in (
                message_handler.fallback_loop_bounds(),
                message_handler.annotations(True, False),
                message_handler.annotations(True, True),
            )
        )
        assert (loop_bounds_only, argument_range, exclusion) == (4892, 2972, 1627)
        # Read/write exclusion leaves one of the two copy loops in the worst case.
        assert argument_range / exclusion > 1.5

    def test_memory_region_annotation_recovers_precision(self):
        processor = leon2_like()
        program = pointer_suite.device_driver_program()
        unannotated = _analyze(program, processor, entry="can_driver")
        annotated = _wcet(
            program, processor, pointer_suite.device_driver_annotations(("ram",)),
            entry="can_driver",
        )
        observed, _ = _observed(program, processor, initial_data={"mailbox_index": [2]})
        unknown = sum(f.unknown_accesses for f in unannotated.functions.values())
        assert (unannotated.wcet_cycles, annotated, observed, unknown) == (465, 385, 291, 1)
        assert unannotated.wcet_cycles > annotated >= observed

    def test_average_case_division_has_a_terrible_bound(self):
        processor = hcs12x_like()
        ldivmod = arithmetic_suite.ldivmod_program()
        restoring = arithmetic_suite.restoring_program()
        ldivmod_wcet = _wcet(
            ldivmod, processor, arithmetic_suite.ldivmod_annotations(), entry="ldivmod"
        )
        restoring_wcet = _wcet(restoring, processor, entry="restoring_div")
        typical = [0x12345678, 0x00010001]
        ldivmod_run = _observed(ldivmod, processor, "ldivmod", args=typical)
        restoring_run = _observed(restoring, processor, "restoring_div", args=typical)
        assert (ldivmod_wcet, restoring_wcet) == (6947454, 2140)
        assert (ldivmod_run, restoring_run) == ((298, 0x1234), (1779, 0x1234))
        # Faster on typical operands, orders of magnitude worse in the bound.
        assert ldivmod_run[0] < restoring_run[0]
        assert ldivmod_wcet > 50 * restoring_wcet

    def test_fixed_point_kernel_beats_division_kernel(self):
        division = _wcet(
            arithmetic_suite.division_filter_program(), hcs12x_like(),
            arithmetic_suite.division_filter_annotations(),
        )
        fixed_point = _wcet(arithmetic_suite.fixedpoint_filter_program(), hcs12x_like())
        assert (division, fixed_point) == (55580546, 686)
        assert division > 10 * fixed_point


class TestMisraRules:
    @pytest.mark.parametrize("rule", ["13.4", "13.6"])
    def test_violation_defeats_automatic_loop_bounds(self, rule):
        violating = loops_suite.violating_program(rule)
        conforming = _wcet(loops_suite.conforming_program(rule))
        with pytest.raises(UnboundedLoopError):
            _analyze(violating)
        annotated = _wcet(violating, annotations=loops_suite.manual_annotations(rule))
        assert (conforming, annotated) == {"13.4": (802, 1069), "13.6": (1642, 1922)}[rule]
        violating_source, conforming_source = loops_suite.VARIANTS[rule]
        assert len(_findings(violating_source, rule)) == 1
        assert _findings(conforming_source, rule) == []

    def test_rule_14_1_dead_code_inflates_the_bound(self):
        violating = loops_suite.violating_program("14.1")
        documented = AnnotationSet().add_infeasible(
            "main", "debug_path", reason="debug dumps are disabled in production"
        )
        inflated = _wcet(violating)
        tight = _wcet(loops_suite.conforming_program("14.1"))
        annotated = _wcet(violating, annotations=documented)
        assert (inflated, tight, annotated) == (2325, 802, 812)
        assert inflated > max(tight, annotated)

    def test_rule_14_4_goto_needs_a_manual_bound(self):
        violating = loops_suite.violating_program("14.4")
        with pytest.raises(UnboundedLoopError):
            _analyze(violating)
        annotated = _analyze(violating, annotations=loops_suite.manual_annotations("14.4"))
        assert annotated.wcet_cycles == 899
        assert len([loop for loop in annotated.loop_reports() if loop.irreducible]) == 1
        assert _wcet(loops_suite.conforming_program("14.4")) == 1834

    def test_rule_14_5_continue_is_harmless(self):
        violating = _wcet(loops_suite.violating_program("14.5"))
        conforming = _wcet(loops_suite.conforming_program("14.5"))
        assert violating == conforming == 1346
        findings = _findings(loops_suite.VARIANTS["14.5"][0], "14.5")
        assert [finding.challenge for finding in findings] == [ChallengeTier.NONE]

    def test_rule_16_1_variadic_needs_an_argument_range(self):
        variadic = functions_suite.variadic_program()
        with pytest.raises(UnboundedLoopError):
            _analyze(variadic, entry="sum_values")
        annotated = _wcet(
            variadic, annotations=functions_suite.variadic_annotations(), entry="sum_values"
        )
        automatic = _wcet(functions_suite.fixed_arity_program(), entry="sum_values")
        assert (annotated, automatic) == (236, 228)
        assert annotated >= automatic
        assert len(_findings(functions_suite.VARIADIC_SOURCE, "16.1")) == 1

    def test_rule_16_2_recursion_needs_a_depth(self):
        recursive = functions_suite.recursive_program()
        with pytest.raises(CFGError):
            _analyze(recursive)
        shallow = _wcet(recursive, annotations=functions_suite.recursion_annotations())
        deep = _wcet(recursive, annotations=functions_suite.recursion_annotations(depth=32))
        automatic = _wcet(functions_suite.iterative_program())
        assert (shallow, deep, automatic) == (579, 2005, 241)
        assert deep > shallow > automatic
        assert len(_findings(functions_suite.RECURSIVE_SOURCE, "16.2")) == 1

    def test_rule_20_4_heap_inflates_the_bound_not_the_run(self):
        processor = leon2_like()
        heap, static = pointer_suite.heap_program(), pointer_suite.static_program()
        heap_report = _analyze(heap, processor)
        static_wcet = _wcet(static, processor)
        heap_observed, _ = _observed(heap, processor)
        static_observed, _ = _observed(static, processor)
        assert (heap_report.wcet_cycles, static_wcet) == (2516, 1828)
        assert (heap_observed, static_observed) == (998, 975)
        assert heap_report.entry_report.unknown_accesses == 2
        assert heap_report.wcet_cycles > 1.3 * static_wcet
        assert heap_report.wcet_cycles >= heap_observed and static_wcet >= static_observed
        assert len(_findings(pointer_suite.HEAP_BUFFER_SOURCE, "20.4")) == 1

    def test_rule_20_7_setjmp_is_tier_one(self):
        findings = _findings(pointer_suite.LONGJMP_SOURCE, "20.7")
        assert len(findings) == 2
        assert all(finding.challenge is ChallengeTier.TIER_ONE for finding in findings)
        assert _findings(pointer_suite.STRUCTURED_ERROR_SOURCE, "20.7") == []


class TestSinglePath:
    INPUTS = (
        [5, 3, 9, 1, 7, 2, 8, 4],
        [-5, -3, -9, -1, -7, -2, -8, -4],
        [5, -3, 9, -1, 7, -2, 8, -4],
    )

    def test_single_path_code_worsens_the_worst_case(self):
        """Section 2: predicating both branch arms makes the time input
        independent, but every run pays for both arms."""
        processor = simple_scalar()
        branchy = arithmetic_suite.branchy_kernel()
        single_path = arithmetic_suite.single_path_kernel()
        branchy_wcet, single_wcet = _wcet(branchy, processor), _wcet(single_path, processor)
        branchy_cycles, single_cycles = [], []
        for values in self.INPUTS:
            cycles, result = _observed(branchy, processor, initial_data={"values": values})
            branchy_cycles.append(cycles)
            cycles, single_result = _observed(
                single_path, processor, initial_data={"values": values}
            )
            single_cycles.append(cycles)
            assert single_result == result
        assert (branchy_wcet, single_wcet) == (271, 325)
        assert (branchy_cycles, single_cycles) == ([217, 225, 221], [273, 273, 273])
        assert single_wcet > branchy_wcet
        assert branchy_wcet >= max(branchy_cycles) and single_wcet >= max(single_cycles)
