"""Coverage for :mod:`repro.analysis.reachability` — hand-written edge cases
plus structural invariants checked on CFGs of *generated* programs (the
differential harness's generator doubles as a CFG fuzzer here).
"""

from __future__ import annotations

import pytest

from repro.analysis.reachability import find_unreachable_code
from repro.analysis.value import ValueAnalysis
from repro.cfg.loops import find_loops
from repro.cfg.reconstruct import reconstruct_program
from repro.ir import Interpreter
from repro.ir.asmparser import parse_assembly
from repro.minic import compile_source
from repro.testing import generate_case, render_case

#: Seeds whose generated CFGs the invariants are checked on.
CFG_SEEDS = [2, 5, 13, 29, 41]


def _generated_cfgs(seed):
    case = generate_case(seed)
    rendered = render_case(case)
    program = compile_source(rendered.source, entry=case.entry)
    cfgs = reconstruct_program(program, hints=rendered.annotations.control_flow_hints)
    return program, cfgs


class TestReachabilityHandWritten:
    def test_code_after_the_final_branch_is_structurally_unreachable(self):
        program = parse_assembly(
            """
            .func main
                mov r3, 1
                br done
                add r3, r3, 1
                add r3, r3, 2
            done:
                halt
            """
        )
        cfgs = reconstruct_program(program)
        result = find_unreachable_code(cfgs["main"])
        assert result.has_unreachable_code
        assert result.structurally_unreachable
        assert result.dead_instruction_count >= 2
        assert not result.semantically_unreachable

    def test_constant_false_branch_is_semantically_unreachable(self):
        program = compile_source(
            """
            int main(void) {
                int x = 1;
                if (0) {
                    x = 100;
                }
                return x;
            }
            """
        )
        cfgs = reconstruct_program(program)
        cfg = cfgs["main"]
        loops = find_loops(cfg)
        values = ValueAnalysis(program, cfg, loops).run()
        result = find_unreachable_code(cfg, values)
        assert result.semantically_unreachable, "the if(0) body never executes"

    def test_fully_reachable_function_reports_nothing(self, counter_loop_program):
        cfgs = reconstruct_program(counter_loop_program)
        result = find_unreachable_code(cfgs["main"])
        assert not result.has_unreachable_code
        assert result.all_unreachable() == []
        assert result.dead_instruction_count == 0


class TestReachabilityOnGeneratedCFGs:
    @pytest.mark.parametrize("seed", CFG_SEEDS)
    def test_unreachable_blocks_never_execute(self, seed):
        """Differential check: statically unreachable blocks stay unexecuted."""
        case = generate_case(seed)
        rendered = render_case(case)
        program = compile_source(rendered.source, entry=case.entry)
        cfgs = reconstruct_program(program, hints=rendered.annotations.control_flow_hints)
        execution = Interpreter(program, max_steps=case.max_steps).run(case.entry)
        executed = set(execution.trace.instruction_addresses)
        for name, cfg in cfgs.items():
            loops = find_loops(cfg)
            values = ValueAnalysis(program, cfg, loops).run()
            result = find_unreachable_code(cfg, values)
            for block_id in result.all_unreachable():
                for address in cfg.block(block_id).addresses():
                    assert address not in executed, (
                        f"seed {seed} {name}: {address:#x} reported unreachable "
                        "but present in the concrete trace"
                    )

    @pytest.mark.parametrize("seed", CFG_SEEDS)
    def test_structural_reachability_matches_cfg_walk(self, seed):
        _, cfgs = _generated_cfgs(seed)
        for cfg in cfgs.values():
            result = find_unreachable_code(cfg)
            reachable = cfg.reachable_from_entry()
            for block_id in cfg.node_ids():
                if block_id in reachable:
                    assert block_id not in result.structurally_unreachable
                else:
                    assert block_id in result.structurally_unreachable
