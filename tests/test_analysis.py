"""Tests for the value analysis, loop-bound analysis and reachability."""

from __future__ import annotations

import pytest

from repro.analysis import (
    LoopBoundAnalysis,
    ValueAnalysis,
    find_unreachable_code,
)
from repro.analysis.domains.interval import Interval
from repro.analysis.domains.memstate import AbstractValue
from repro.cfg import find_loops, reconstruct_cfg
from repro.ir import Interpreter, parse_assembly


def analyse(asm: str, function: str = "main", initial_registers=None):
    program = parse_assembly(asm)
    cfg = reconstruct_cfg(program, function)
    loops = find_loops(cfg)
    values = ValueAnalysis(
        program, cfg, loops, initial_registers=initial_registers or {}
    ).run()
    bounds = LoopBoundAnalysis(cfg, loops, values).run()
    return program, cfg, loops, values, bounds


COUNTER_LOOP = """
.func main
    mov r4, 0
loop:
    add r4, r4, 1
    slt r5, r4, 10
    bt r5, loop
    halt
"""


class TestValueAnalysis:
    def test_constant_propagation(self):
        asm = ".func main\n    mov r3, 4\n    add r3, r3, 6\n    mul r3, r3, 2\n    halt\n"
        program, cfg, loops, values, _ = analyse(asm)
        exit_state = values.edge_state(cfg.entry_block, -2)
        assert exit_state.get("r3").constant_value == 20

    def test_branch_refinement_narrows_intervals(self):
        asm = (
            ".func main params=1\n"
            "    slt r5, r3, 10\n"
            "    bf r5, big\n"
            "    mov r4, 1\n"
            "    halt\n"
            "big:\n"
            "    mov r4, 2\n"
            "    halt\n"
        )
        program, cfg, loops, values, _ = analyse(
            asm, initial_registers={"r3": AbstractValue(Interval(0, 100))}
        )
        blocks = cfg.node_ids()
        small_block, big_block = blocks[1], blocks[2]
        assert values.state_at_block_entry(small_block).get("r3").interval == Interval(0, 9)
        assert values.state_at_block_entry(big_block).get("r3").interval == Interval(10, 100)

    def test_constant_condition_marks_edge_infeasible(self):
        asm = (
            ".func main\n"
            "    mov r5, 0\n"
            "    bt r5, dead\n"
            "    mov r3, 1\n"
            "    halt\n"
            "dead:\n"
            "    mov r3, 99\n"
            "    halt\n"
        )
        program, cfg, loops, values, _ = analyse(asm)
        dead_block = cfg.node_ids()[2]
        assert not values.state_at_block_entry(dead_block).reachable
        assert dead_block in find_unreachable_code(cfg, values).semantically_unreachable

    def test_loop_counter_interval_is_widened_but_bounded_by_refinement(self):
        program, cfg, loops, values, bounds = analyse(COUNTER_LOOP)
        header = loops.loops[0].header
        counter = values.state_at_block_entry(header).get("r4").interval
        assert counter.contains(0) and counter.contains(9)

    def test_load_address_resolution(self):
        asm = (
            ".data table 32 readonly init=7\n"
            ".func main\n"
            "    la r6, table\n"
            "    load r3, [r6 + 0]\n"
            "    halt\n"
        )
        program, cfg, loops, values, _ = analyse(asm)
        accesses = list(values.accesses.values())
        assert len(accesses) == 1
        assert accesses[0].bases == frozenset({"table"})
        assert accesses[0].absolute.is_constant

    def test_readonly_initial_data_is_known(self):
        asm = (
            ".data table 16 readonly init=5,6\n"
            ".func main\n"
            "    la r6, table\n"
            "    load r3, [r6 + 4]\n"
            "    halt\n"
        )
        program, cfg, loops, values, _ = analyse(asm)
        exit_state = values.edge_state(cfg.node_ids()[-1], -2)
        assert exit_state.get("r3").constant_value == 6

    def test_unknown_pointer_access_is_flagged(self):
        asm = ".func main params=1\n    load r4, [r3 + 0]\n    halt\n"
        program, cfg, loops, values, _ = analyse(asm)
        access = list(values.accesses.values())[0]
        assert access.unknown

    def test_call_clobbers_caller_saved_registers(self):
        asm = (
            ".func main\n    mov r3, 5\n    mov r14, 7\n    call helper\n    halt\n"
            ".func helper\n    ret\n"
        )
        program, cfg, loops, values, _ = analyse(asm)
        exit_state = values.edge_state(cfg.node_ids()[-1], -2)
        assert exit_state.get("r3").is_top          # caller-saved: forgotten
        assert exit_state.get("r14").constant_value == 7  # callee-saved: kept

    def test_soundness_against_interpreter(self, counter_loop_program):
        """Every concrete register value must lie in its abstract interval."""
        program = counter_loop_program
        cfg = reconstruct_cfg(program, "main")
        loops = find_loops(cfg)
        values = ValueAnalysis(program, cfg, loops).run()
        result = Interpreter(program).run()
        final_r4 = result.registers["r4"]
        exit_sources = cfg.exit_blocks()
        joined = Interval.bottom()
        for source in exit_sources:
            state = values.edge_state(source, -2)
            if state.reachable:
                joined = joined.join(state.get("r4").interval)
        assert joined.contains(final_r4)


class TestLoopBounds:
    def test_simple_counter_loop(self):
        *_, bounds = analyse(COUNTER_LOOP)
        assert bounds.all_bounded
        assert list(bounds.bounds.values())[0].max_back_edges == 10

    def test_counting_down_loop(self):
        asm = (
            ".func main\n    mov r4, 16\nloop:\n    sub r4, r4, 2\n"
            "    sgt r5, r4, 0\n    bt r5, loop\n    halt\n"
        )
        *_, bounds = analyse(asm)
        assert list(bounds.bounds.values())[0].max_back_edges == 8

    def test_not_equal_exit_condition(self):
        asm = (
            ".func main\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    sne r5, r4, 12\n    bt r5, loop\n    halt\n"
        )
        *_, bounds = analyse(asm)
        assert list(bounds.bounds.values())[0].max_back_edges == 12

    def test_step_greater_than_one(self):
        asm = (
            ".func main\n    mov r4, 0\nloop:\n    add r4, r4, 3\n"
            "    slt r5, r4, 10\n    bt r5, loop\n    halt\n"
        )
        *_, bounds = analyse(asm)
        assert list(bounds.bounds.values())[0].max_back_edges == 4  # ceil(10/3)

    def test_interpreter_never_exceeds_bound(self):
        program, cfg, loops, values, bounds = analyse(COUNTER_LOOP)
        result = Interpreter(program).run()
        header = loops.loops[0].header
        bound = bounds.bounds[header]
        assert result.trace.block_counts[header] <= bound.max_header_executions

    def test_data_dependent_loop_fails(self):
        asm = (
            ".func main params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    halt\n"
        )
        *_, bounds = analyse(asm)
        assert not bounds.all_bounded
        assert list(bounds.failures.values())[0].reason in (
            "data-dependent-limit",
            "unknown-initial-value",
        )

    def test_argument_range_makes_data_dependent_loop_bounded(self):
        asm = (
            ".func main params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    halt\n"
        )
        *_, bounds = analyse(
            asm, initial_registers={"r3": AbstractValue(Interval(0, 16))}
        )
        assert bounds.all_bounded
        assert list(bounds.bounds.values())[0].max_back_edges == 16

    def test_float_condition_fails_with_specific_reason(self):
        asm = (
            ".func main\n    mov r4, 0\n    itof r8, r4\n    mov r9, 10\n    itof r9, r9\n"
            "loop:\n    mov r10, 1\n    itof r10, r10\n    fadd r8, r8, r10\n"
            "    fslt r5, r8, r9\n    bt r5, loop\n    halt\n"
        )
        *_, bounds = analyse(asm)
        assert list(bounds.failures.values())[0].reason == "float-condition"

    def test_complex_update_fails(self):
        asm = (
            ".func main params=1\n    mov r4, 1\nloop:\n    mul r4, r4, 2\n"
            "    slt r5, r4, 100\n    bt r5, loop\n    halt\n"
        )
        *_, bounds = analyse(asm)
        assert list(bounds.failures.values())[0].reason == "complex-update"

    def test_irreducible_loop_fails(self):
        asm = (
            ".func main\n    mov r3, 0\n    bt r3, middle\nhead:\n    add r3, r3, 1\n"
            "middle:\n    add r3, r3, 2\n    slt r4, r3, 20\n    bt r4, head\n    halt\n"
        )
        *_, bounds = analyse(asm)
        assert any(f.reason == "irreducible" for f in bounds.failures.values())

    def test_annotation_overrides_failure(self):
        asm = (
            ".func main params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    halt\n"
        )
        *_, bounds = analyse(asm)
        header = list(bounds.failures)[0]
        bounds.add_annotation(header, 32, detail="designer bound")
        assert bounds.all_bounded
        assert bounds.bounds[header].source == "annotation"

    def test_diverging_loop_detected(self):
        asm = (
            ".func main\n    mov r4, 10\nloop:\n    add r4, r4, 1\n"
            "    sgt r5, r4, 0\n    bt r5, loop\n    halt\n"
        )
        *_, bounds = analyse(asm)
        assert list(bounds.failures.values())[0].reason == "diverging"


class TestReachability:
    def test_structurally_dead_block(self):
        asm = (
            ".func main\n    br end\n    mov r3, 1\nend:\n    halt\n"
        )
        program = parse_assembly(asm)
        cfg = reconstruct_cfg(program, "main")
        report = find_unreachable_code(cfg)
        assert report.structurally_unreachable
        assert report.dead_instruction_count >= 1

    def test_semantically_dead_branch(self):
        asm = (
            ".func main\n    mov r5, 1\n    bt r5, taken\n    mov r3, 0\n    halt\n"
            "taken:\n    mov r3, 1\n    halt\n"
        )
        program = parse_assembly(asm)
        cfg = reconstruct_cfg(program, "main")
        loops = find_loops(cfg)
        values = ValueAnalysis(program, cfg, loops).run()
        report = find_unreachable_code(cfg, values)
        assert report.semantically_unreachable

    def test_clean_program_has_no_dead_code(self, counter_loop_program):
        cfg = reconstruct_cfg(counter_loop_program, "main")
        report = find_unreachable_code(cfg)
        assert not report.has_unreachable_code
