"""Integration tests: the workload catalogue and the end-to-end soundness
invariant (static bound vs. measured execution) across workloads and
processor configurations."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.hardware import TraceTimer, hcs12x_like, leon2_like, simple_scalar
from repro.ir import Interpreter
from repro.wcet import WCETAnalyzer
from repro.workloads import catalog, get_workload, workload_names
from repro.workloads import (
    arithmetic_suite,
    error_handling,
    flight_control,
    message_handler,
    pointer_suite,
)


class TestCatalog:
    def test_catalog_is_non_trivial(self):
        assert len(workload_names()) >= 20

    def test_every_workload_compiles(self):
        for name, workload in catalog().items():
            program = workload.program()
            assert program.instruction_count() > 0, name

    def test_every_workload_has_paper_section(self):
        for workload in catalog().values():
            assert workload.paper_section

    def test_get_workload_unknown_name(self):
        with pytest.raises(KeyError):
            get_workload("does-not-exist")

    def test_entries_are_built_once_and_shared(self):
        entries = catalog()
        entries.clear()  # a caller's copy; the registry is unaffected
        assert get_workload("ldivmod") is catalog()["ldivmod"]
        assert len(catalog()) == len(workload_names())

    def test_rule_variants_come_in_pairs(self):
        names = set(workload_names())
        for rule in ("13.4", "13.6", "14.1", "14.4", "14.5"):
            assert f"rule-{rule}-violating" in names
            assert f"rule-{rule}-conforming" in names


SOUND_WORKLOADS = [
    # (name, entry args, initial data)
    ("static-buffer", [], {}),
    ("heap-buffer", [], {}),
    ("rule-13.4-conforming", [], {}),
    ("rule-13.6-conforming", [], {}),
    ("rule-14.5-violating", [], {"samples": [1, 0, 3, 0, 5, 6, 0, 8]}),
    ("rule-14.5-conforming", [], {"samples": [1, 0, 3, 0, 5, 6, 0, 8]}),
    ("iterative-sum", [], {"weights": [1, 2, 3, 4, 5, 6, 7, 8]}),
    ("fixed-arity-sum", [], {"argument_area": [2, 4, 6, 8, 1, 3, 5, 7]}),
    ("branchy-kernel", [], {"values": [3, -2, 7, -1, 5, 0, -4, 9]}),
    ("single-path", [], {"values": [3, -2, 7, -1, 5, 0, -4, 9]}),
]


class TestSoundness:
    @pytest.mark.parametrize("name,args,data", SOUND_WORKLOADS)
    @pytest.mark.parametrize("make_processor", [simple_scalar, leon2_like, hcs12x_like])
    def test_bound_dominates_observation(self, name, args, data, make_processor):
        """BCET bound <= observed cycles <= WCET bound, on every platform."""
        workload = get_workload(name)
        program = workload.program()
        processor = make_processor()
        report = WCETAnalyzer(
            program, processor, annotations=workload.annotation_set()
        ).analyze(entry=workload.entry)
        execution = Interpreter(program).run(workload.entry, args=args, initial_data=data)
        observed = TraceTimer(processor, program).time(execution.trace)
        assert report.bcet_cycles <= observed.cycles <= report.wcet_cycles, name

    def test_message_handler_bound_covers_full_buffer(self):
        """The annotated bound covers the worst input (a full receive buffer)."""
        processor = leon2_like()
        program = message_handler.program()
        report = WCETAnalyzer(
            program, processor, annotations=message_handler.annotations()
        ).analyze(entry="handle_message")
        execution = Interpreter(program).run(
            "handle_message",
            args=[1, 0, message_handler.BUFFER_WORDS],
            initial_data={"rx_buffer": list(range(message_handler.BUFFER_WORDS))},
        )
        observed = TraceTimer(processor, program).time(execution.trace)
        assert observed.cycles <= report.wcet_cycles

    def test_flight_control_mode_bound_covers_mode_execution(self):
        processor = leon2_like()
        program = flight_control.program()
        analyzer = WCETAnalyzer(program, processor, annotations=flight_control.annotations())
        ground_report = analyzer.analyze(mode="ground")
        execution = Interpreter(program).run(initial_data={"operating_mode": [0]})
        observed = TraceTimer(processor, program).time(execution.trace)
        assert observed.cycles <= ground_report.wcet_cycles

    def test_error_monitor_scenario_bound_covers_single_fault_run(self):
        processor = leon2_like()
        program = error_handling.program()
        analyzer = WCETAnalyzer(program, processor, annotations=error_handling.annotations())
        report = analyzer.analyze(entry="monitor", error_scenario="single_fault")
        execution = Interpreter(program).run(
            "monitor",
            initial_data={
                "sensor_value": [0, 0, 0, 10],
                "limit_low": [-5, 0, 0, 0],
                "limit_high": [0, 5, 5, 0],
            },
        )
        observed = TraceTimer(processor, program).time(execution.trace)
        assert observed.cycles <= report.wcet_cycles

    def test_ldivmod_bound_covers_directed_worst_case_run(self):
        """The annotated worst-case bound covers even the nastiest operands."""
        processor = hcs12x_like()
        program = arithmetic_suite.ldivmod_program()
        report = WCETAnalyzer(
            program, processor, annotations=arithmetic_suite.ldivmod_annotations()
        ).analyze(entry="ldivmod")
        execution = Interpreter(program, max_steps=20_000_000).run(
            "ldivmod", args=[0xFFFF_FFFF, 0x0001_0000]
        )
        observed = TraceTimer(processor, program).time(execution.trace)
        assert execution.return_value == 0xFFFF_FFFF // 0x0001_0000
        assert observed.cycles <= report.wcet_cycles

    def test_dispatch_needs_and_uses_call_target_hints(self):
        program = pointer_suite.dispatch_program()
        processor = simple_scalar()
        with pytest.raises(ReproError):
            WCETAnalyzer(program, processor).analyze()
        annotations = pointer_suite.dispatch_annotations(program)
        report = WCETAnalyzer(program, processor, annotations=annotations).analyze()
        # The indirect call is charged with the more expensive handler.
        slow = report.functions["handle_slow"].wcet_cycles
        fast = report.functions["handle_fast"].wcet_cycles
        assert slow > fast
        assert report.wcet_cycles >= slow
