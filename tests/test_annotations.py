"""Tests for the design-level annotation framework and its text format."""

from __future__ import annotations

import pytest

from repro.annotations import (
    AnnotationSet,
    ErrorScenario,
    OperatingMode,
    parse_annotations,
)
from repro.annotations.flowfacts import FlowConstraint, InfeasiblePath, LoopBoundAnnotation
from repro.errors import AnnotationError, ParseError


class TestAnnotationSet:
    def test_builders_and_queries(self):
        annotations = (
            AnnotationSet()
            .add_loop_bound("task", "copy_loop", 16)
            .add_flow_constraint("task", [("read", 1), ("write", 1)], "<=", 1)
            .add_infeasible("task", "debug")
            .add_recursion_bound("traverse", 4)
            .add_argument_range("task", "r3", 0, 16)
            .add_memory_regions("driver", ["ram", "device"])
        )
        assert annotations.loop_bounds_for("task")[0].max_iterations == 16
        assert annotations.flow_constraints_for("task")[0].relation == "<="
        assert annotations.infeasible_for("task")[0].location == "debug"
        assert annotations.recursion_bound_for("traverse").max_depth == 4
        assert annotations.argument_ranges_for("task")[0].high == 16
        assert annotations.memory_regions_for("driver").regions == ("ram", "device")
        assert annotations.summary()["loop_bounds"] == 1

    def test_negative_loop_bound_rejected(self):
        with pytest.raises(AnnotationError):
            LoopBoundAnnotation("f", "loop", -1)

    def test_empty_argument_range_rejected(self):
        with pytest.raises(AnnotationError):
            AnnotationSet().add_argument_range("f", "r3", 5, 1)

    def test_bad_flow_relation_rejected(self):
        with pytest.raises(AnnotationError):
            FlowConstraint("f", (("a", 1),), "<", 1)

    def test_mode_merging(self):
        annotations = AnnotationSet()
        ground = OperatingMode("ground")
        ground.add(InfeasiblePath("task", "air_branch", mode="ground"))
        ground.add(LoopBoundAnnotation("task", "gear", 3, mode="ground"))
        annotations.add_mode(ground)

        base = annotations.for_mode(None)
        assert not base.infeasible_for("task")
        merged = annotations.for_mode("ground")
        assert merged.infeasible_for("task")
        assert merged.loop_bounds_for("task")[0].max_iterations == 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(AnnotationError):
            AnnotationSet().for_mode("orbit")

    def test_duplicate_mode_rejected(self):
        annotations = AnnotationSet().add_mode(OperatingMode("ground"))
        with pytest.raises(AnnotationError):
            annotations.add_mode(OperatingMode("ground"))

    def test_error_scenario_lowering_exclusion(self):
        scenario = ErrorScenario("excluded", max_simultaneous=0)
        scenario.add_handler("monitor", "handle_a").add_handler("monitor", "handle_b")
        infeasible, constraints = scenario.to_flow_facts()
        assert len(infeasible) == 2 and not constraints

    def test_error_scenario_lowering_bound(self):
        scenario = ErrorScenario("single", max_simultaneous=1)
        scenario.add_handler("monitor", "handle_a").add_handler("monitor", "handle_b")
        infeasible, constraints = scenario.to_flow_facts()
        assert not infeasible and constraints[0].bound == 1
        assert len(constraints[0].terms) == 2

    def test_with_error_scenario(self):
        annotations = AnnotationSet()
        scenario = ErrorScenario("single", max_simultaneous=1)
        scenario.add_handler("monitor", "handle_a")
        annotations.add_error_scenario(scenario)
        applied = annotations.with_error_scenario("single")
        assert applied.flow_constraints_for("monitor")

    def test_merge_two_sets(self):
        first = AnnotationSet().add_loop_bound("f", "l", 4)
        second = AnnotationSet().add_recursion_bound("g", 2)
        merged = first.merge(second)
        assert merged.loop_bounds_for("f") and merged.recursion_bound_for("g")

    def test_control_flow_hints(self):
        annotations = AnnotationSet().add_call_targets(0x1040, ["a", "b"])
        assert annotations.control_flow_hints.call_targets(0x1040) == ("a", "b")


class TestAnnotationParser:
    TEXT = """
    # loop bounds
    loopbound handler.copy_loop 16
    flow handler: read_path + write_path <= 1
    infeasible main.debug_dump disabled in production
    recursion traverse 4
    argrange handler r3 0 16
    memregions can_driver ram,device
    calltargets 0x1040 handler_a,handler_b
    branchtargets 0x1080 case0,case1

    mode ground {
        infeasible flight.air_branch
        loopbound flight.gear_loop 3
    }

    errorscenario single_fault max=1 {
        handler monitor.handle_overvoltage
        handler monitor.handle_undervoltage
    }
    """

    def test_full_round_trip(self):
        annotations = parse_annotations(self.TEXT)
        assert annotations.loop_bounds_for("handler")[0].max_iterations == 16
        assert annotations.flow_constraints_for("handler")[0].bound == 1
        assert annotations.infeasible_for("main")
        assert annotations.recursion_bound_for("traverse").max_depth == 4
        assert annotations.argument_ranges_for("handler")[0].register == "r3"
        assert annotations.memory_regions_for("can_driver").regions == ("ram", "device")
        assert annotations.control_flow_hints.call_targets(0x1040) == ("handler_a", "handler_b")
        assert annotations.control_flow_hints.branch_targets(0x1080) == ("case0", "case1")
        assert "ground" in annotations.modes
        assert annotations.modes["ground"].loop_bounds()[0].max_iterations == 3
        assert annotations.error_scenarios[0].max_simultaneous == 1
        assert len(annotations.error_scenarios[0].handlers) == 2

    def test_flow_constraint_with_coefficients(self):
        annotations = parse_annotations("flow f: 2*a + b >= 3")
        constraint = annotations.flow_constraints_for("f")[0]
        assert constraint.terms == (("a", 2), ("b", 1))
        assert constraint.relation == ">=" and constraint.bound == 3

    def test_addresses_as_locations(self):
        annotations = parse_annotations("loopbound f.0x1014 8")
        assert annotations.loop_bounds_for("f")[0].location == 0x1014

    @pytest.mark.parametrize(
        "text, terms",
        [
            ("flow f: 0x1014 <= 3", ((0x1014, 1),)),
            ("flow f: a + 2*0x1014 <= 3", (("a", 1), (0x1014, 2))),
        ],
    )
    def test_flow_constraint_terms_may_be_block_addresses(self, text, terms):
        assert parse_annotations(text).flow_constraints_for("f")[0].terms == terms

    def test_malformed_address_term_is_a_parse_error_naming_the_line(self):
        with pytest.raises(ParseError, match="^2:0: expected an integer, got '0xzz'$"):
            parse_annotations("\nflow f: 0xzz <= 3")

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ParseError):
            parse_annotations("frobnicate f.loop 3")

    def test_unclosed_mode_block_rejected(self):
        with pytest.raises(ParseError):
            parse_annotations("mode ground {\nloopbound f.l 3\n")

    @pytest.mark.parametrize(
        "text, token",
        [
            ("loopbound main.0xzz 16", "0xzz"),
            ("infeasible main.0x", "0x"),
            ("loopbound main.08 3", "08"),
        ],
    )
    def test_malformed_numeric_location_is_a_parse_error(self, text, token):
        expected = f"1:0: expected an integer, got '{token}'"
        with pytest.raises(ParseError, match=expected):
            parse_annotations(text)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("loopbound f.loop -1", 1),
            ("\nargrange f r3 5 1", 2),
            ("mode m {\n}\nmode m {\n}", 3),
        ],
    )
    def test_refused_facts_are_parse_errors_naming_the_line(self, text, line):
        with pytest.raises(ParseError, match=f"^{line}:0: "):
            parse_annotations(text)

    def test_bad_location_rejected(self):
        with pytest.raises(ParseError):
            parse_annotations("loopbound justafunction 3")
