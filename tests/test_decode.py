"""Decoding runs once per program (:mod:`repro.cfg.decode`).

Every analysis, operating mode and oracle check of one program reads one
decoded form, memoised on the :class:`~repro.ir.program.Program`.  These tests
count ``reconstruct_cfg`` calls to pin that, and check that a changed program
or different hints decode again and that a decode failure is never memoised.
"""

from __future__ import annotations

import pytest

from repro.api import AnalysisService, Project
from repro.cfg import reconstruct as reconstruct_module
from repro.cfg.decode import decode_program
from repro.cfg.reconstruct import ControlFlowHints
from repro.errors import CFGError
from repro.hardware.processor import leon2_like, simple_scalar
from repro.ir.asmparser import parse_assembly
from repro.ir.instructions import Instruction, Opcode
from repro.ir.program import DataObject, Function
from repro.testing import oracle as oracle_module
from repro.testing.generator import generate_case
from repro.wcet import analyzer as analyzer_module
from repro.wcet import WCETAnalyzer
from repro.workloads import flight_control

ICALL_ASM = """
.func main
    la r4, helper
    icall r4
    halt
.func helper
    ret
.func other
    ret
"""
ICALL_ERROR = (
    "main@0x1004: indirect call with no callee hints "
    "(function pointer, tier-one challenge)"
)


@pytest.fixture
def decodes(monkeypatch):
    """Names of the functions ``reconstruct_cfg`` decodes, in call order."""
    calls = []
    original = reconstruct_module.reconstruct_cfg

    def counting(program, function_name, *args, **kwargs):
        calls.append(function_name)
        return original(program, function_name, *args, **kwargs)

    monkeypatch.setattr(reconstruct_module, "reconstruct_cfg", counting)
    return calls


def _icall_hints(program, *targets):
    hints = ControlFlowHints()
    hints.add_call_targets(program.function("main").instructions[1].address, targets)
    return hints


class TestDecodeOnce:
    def test_project_analysed_twice_decodes_each_function_once(self, decodes):
        project = Project.from_workload("flight-control", processor="leon2", cache="off")
        service = AnalysisService(project)
        first = service.analyze()
        second = service.analyze()
        assert sorted(decodes) == sorted(project.build().functions)
        assert second.report.wcet_cycles == first.report.wcet_cycles
        assert second.report.bcet_cycles == first.report.bcet_cycles

    def test_all_modes_decodes_each_function_once(self, decodes):
        analyzer = WCETAnalyzer(
            flight_control.program(),
            leon2_like(),
            annotations=flight_control.annotations(),
        )
        reports = analyzer.analyze_all_modes()
        assert len(reports) > 1
        assert sorted(decodes) == sorted(analyzer.program.functions)
        for report in reports.values():
            (decoding,) = [t for t in report.phases if t.phase == "decoding"]
            assert decoding.detail.endswith("basic blocks (shared across modes)")

    def test_single_analyses_keep_the_plain_detail(self, decodes):
        analyzer = WCETAnalyzer(
            flight_control.program(),
            leon2_like(),
            annotations=flight_control.annotations(),
        )
        for mode in [None] + analyzer.annotations.mode_names():
            report = analyzer.analyze(mode=mode)
            (decoding,) = [t for t in report.phases if t.phase == "decoding"]
            assert decoding.detail.endswith(" basic blocks")
        assert sorted(decodes) == sorted(analyzer.program.functions)

    def test_add_function_forces_a_new_decode(self, decodes, counter_loop_program):
        program = counter_loop_program
        first = decode_program(program)
        assert decode_program(program) is first
        program.add_function(Function("extra", [Instruction(Opcode.RET)]))
        second = decode_program(program)
        assert second is not first
        assert "extra" in second.cfgs
        assert decodes == ["main", "scale", "main", "scale", "extra"]

    def test_add_data_forces_a_new_decode(self, decodes, counter_loop_program):
        program = counter_loop_program
        first = decode_program(program)
        program.add_data(DataObject("pad", 4))
        assert decode_program(program) is not first
        assert decodes == ["main", "scale", "main", "scale"]

    def test_hint_sets_are_keyed_by_content(self, decodes):
        program = parse_assembly(ICALL_ASM)
        to_helper = decode_program(program, _icall_hints(program, "helper"))
        to_other = decode_program(program, _icall_hints(program, "other"))
        assert to_helper is not to_other
        assert to_helper.callgraph.callees("main") == {"helper"}
        assert to_other.callgraph.callees("main") == {"other"}
        # An equal hint set in a new object is the same entry.
        assert decode_program(program, _icall_hints(program, "helper")) is to_helper
        assert len(decodes) == 2 * len(program.functions)

    def test_strict_icall_error_is_unchanged_and_not_memoised(self, decodes):
        program = parse_assembly(ICALL_ASM)
        for _ in range(2):
            with pytest.raises(CFGError) as excinfo:
                WCETAnalyzer(program, simple_scalar()).analyze()
            assert str(excinfo.value) == ICALL_ERROR
        assert decodes == ["main", "main"]

    def test_sccs_and_recursive_set_come_from_one_pass(self):
        program = parse_assembly(
            ".func main\n    call a\n    halt\n"
            ".func a\n    call b\n    ret\n"
            ".func b\n    call a\n    ret\n"
        )
        decoded = decode_program(program)
        assert decoded.recursive == {"a", "b"}
        assert list(decoded.components) == decoded.callgraph.strongly_connected_components()

    def test_loop_forests_are_built_once(self, counter_loop_program):
        decoded = decode_program(counter_loop_program)
        assert decoded.loops("main") is decoded.loops("main")
        assert len(decoded.loops("main").loops) == 1


class TestOracleReadsTheAnalyzersDecode:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_structure_checks_read_the_analyzers_cfg_objects(
        self, seed, decodes, monkeypatch
    ):
        analyzed = []
        checked = []
        original_decode = analyzer_module.decode_program
        original_check = oracle_module.DifferentialOracle._check_structure

        def recording_decode(*args, **kwargs):
            analyzed.append(original_decode(*args, **kwargs))
            return analyzed[-1]

        def recording_check(self, decoded, report, *args):
            checked.append((decoded, report))
            return original_check(self, decoded, report, *args)

        monkeypatch.setattr(analyzer_module, "decode_program", recording_decode)
        monkeypatch.setattr(
            oracle_module.DifferentialOracle, "_check_structure", recording_check
        )
        result = oracle_module.DifferentialOracle().check(generate_case(seed))
        assert result.ok, result.violations
        assert checked and analyzed
        (decoded,) = {id(d): d for d in analyzed}.values()
        for oracle_decoded, report in checked:
            for name in report.functions:
                assert oracle_decoded.cfgs[name] is decoded.cfgs[name]
                assert oracle_decoded.loops(name) is decoded.loops(name)
        # One decode per function for the analysis and every vector's checks.
        assert sorted(decodes) == sorted(decoded.cfgs)
