"""Tests for the IR: instructions, programs, builder, assembler, interpreter."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AssemblyError, ExecutionError, IRError
from repro.ir import (
    Imm,
    Instruction,
    Interpreter,
    Label,
    Opcode,
    ProgramBuilder,
    Reg,
    Sym,
    parse_assembly,
)
from repro.ir.instructions import (
    INSTRUCTION_SIZE,
    OpClass,
    canonical_register,
    validate_instruction,
)
from repro.ir.interpreter import to_signed, to_unsigned, wrap32
from repro.ir.program import CODE_BASE, DATA_BASE, DataObject, Function, Program


# --------------------------------------------------------------------------- #
# Registers and instructions
# --------------------------------------------------------------------------- #
class TestRegisters:
    def test_canonical_register_plain(self):
        assert canonical_register("r5") == "r5"

    def test_canonical_register_aliases(self):
        assert canonical_register("sp") == "r29"
        assert canonical_register("fp") == "r30"
        assert canonical_register("lr") == "r31"

    def test_canonical_register_case_insensitive(self):
        assert canonical_register("R7") == "r7"

    def test_register_out_of_range_rejected(self):
        with pytest.raises(IRError):
            canonical_register("r32")

    def test_non_register_rejected(self):
        with pytest.raises(IRError):
            canonical_register("x1")


class TestInstruction:
    def test_branch_target_of_conditional(self):
        instr = Instruction(Opcode.BT, operands=(Reg("r1"), Label("loop")))
        assert instr.branch_target() == "loop"
        assert instr.is_conditional_branch

    def test_call_target(self):
        instr = Instruction(Opcode.CALL, operands=(Sym("helper"),))
        assert instr.call_target() == "helper"
        assert instr.is_call and not instr.is_indirect

    def test_indirect_call_has_no_static_target(self):
        instr = Instruction(Opcode.ICALL, operands=(Reg("r3"),))
        assert instr.call_target() is None
        assert instr.is_indirect

    def test_defined_and_used_registers(self):
        instr = Instruction(Opcode.ADD, dest=Reg("r1"), operands=(Reg("r2"), Imm(3)))
        assert instr.defined_register() == "r1"
        assert instr.used_registers() == ("r2",)

    def test_predicate_register_is_used(self):
        instr = Instruction(
            Opcode.ADD, dest=Reg("r1"), operands=(Reg("r2"), Imm(3)), pred=Reg("r9")
        )
        assert "r9" in instr.used_registers()
        assert instr.is_predicated

    def test_op_class_of_division(self):
        instr = Instruction(Opcode.DIVU, dest=Reg("r1"), operands=(Reg("r2"), Reg("r3")))
        assert instr.op_class is OpClass.DIV

    def test_terminators(self):
        assert Instruction(Opcode.RET).is_terminator
        assert Instruction(Opcode.HALT).is_terminator
        assert not Instruction(Opcode.NOP).is_terminator

    def test_validate_rejects_branch_without_label(self):
        with pytest.raises(IRError):
            validate_instruction(Instruction(Opcode.BR))

    def test_validate_rejects_store_without_base(self):
        with pytest.raises(IRError):
            validate_instruction(Instruction(Opcode.STORE, operands=(Reg("r1"),)))

    def test_validate_accepts_well_formed_load(self):
        validate_instruction(
            Instruction(Opcode.LOAD, dest=Reg("r1"), operands=(Reg("r2"),), offset=4)
        )


# --------------------------------------------------------------------------- #
# Program and layout
# --------------------------------------------------------------------------- #
class TestProgramLayout:
    def test_functions_are_laid_out_contiguously(self, counter_loop_program):
        program = counter_loop_program
        main = program.function("main")
        scale = program.function("scale")
        assert main.entry_address == CODE_BASE
        assert scale.entry_address == main.entry_address + main.size

    def test_data_objects_are_in_the_data_segment(self, counter_loop_program):
        buf = counter_loop_program.data("buf")
        assert buf.address >= DATA_BASE
        assert buf.size == 64

    def test_symbol_address_lookup(self, counter_loop_program):
        program = counter_loop_program
        assert program.symbol_address("main") == program.function("main").entry_address
        assert program.symbol_address("buf") == program.data("buf").address

    def test_instruction_at_address(self, counter_loop_program):
        program = counter_loop_program
        main = program.function("main")
        assert program.instruction_at(main.entry_address).opcode is Opcode.MOV

    def test_unknown_symbol_raises(self, counter_loop_program):
        with pytest.raises(IRError):
            counter_loop_program.symbol_address("missing")

    def test_duplicate_function_rejected(self):
        program = Program()
        program.add_function(Function("f", [Instruction(Opcode.RET)]))
        with pytest.raises(IRError):
            program.add_function(Function("f", [Instruction(Opcode.RET)]))

    def test_entry_must_exist(self):
        program = Program(entry="main")
        program.add_function(Function("other", [Instruction(Opcode.RET)]))
        with pytest.raises(IRError):
            program.validate()

    def test_function_must_end_in_terminator(self):
        function = Function("f", [Instruction(Opcode.NOP)])
        with pytest.raises(IRError):
            function.validate()

    def test_data_object_size_is_word_aligned(self):
        assert DataObject("x", 5).size == 8

    def test_listing_contains_all_functions(self, counter_loop_program):
        listing = counter_loop_program.listing()
        assert ".func main" in listing and ".func scale" in listing


# --------------------------------------------------------------------------- #
# Builder
# --------------------------------------------------------------------------- #
class TestBuilder:
    def test_builder_resolves_labels(self):
        builder = ProgramBuilder()
        fb = builder.function("main")
        fb.mov("r3", 1)
        fb.label("end")
        fb.halt()
        program = builder.build()
        assert program.function("main").labels() == {"end": 1}

    def test_register_operands_are_shared_per_canonical_name(self):
        from repro.ir import builder as builder_module

        fb = ProgramBuilder().function("main")
        first = fb.add("r3", "r3", 1)
        second = fb.mov("R03", "SP")
        assert first.dest is first.operands[0] is builder_module._reg("r3")
        assert second.dest == first.dest and second.operands == (Reg("r29"),)
        # Other spellings are canonicalised but never kept.
        assert all(reg.name == name for name, reg in builder_module._REGS.items())

    def test_builder_rejects_undefined_branch_target(self):
        builder = ProgramBuilder()
        fb = builder.function("main")
        fb.br("nowhere")
        fb.halt()
        with pytest.raises(IRError):
            builder.build()

    def test_builder_rejects_call_to_undefined_function(self):
        builder = ProgramBuilder()
        fb = builder.function("main")
        fb.call("ghost")
        fb.halt()
        with pytest.raises(IRError):
            builder.build()

    def test_pending_label_attaches_to_next_instruction(self):
        builder = ProgramBuilder()
        fb = builder.function("main")
        fb.mov("r3", 0)
        fb.label("tail")
        fb.halt()
        program = builder.build()
        assert program.function("main").instructions[-1].label == "tail"

    def test_double_label_inserts_nop_carrier(self):
        builder = ProgramBuilder()
        fb = builder.function("main")
        fb.label("first")
        fb.label("second")
        fb.halt()
        program = builder.build()
        labels = program.function("main").labels()
        assert set(labels) == {"first", "second"}
        assert program.function("main").instructions[0].opcode is Opcode.NOP

    def test_predicated_emission(self):
        builder = ProgramBuilder()
        fb = builder.function("main")
        fb.add("r3", "r3", 1, pred="r9")
        fb.halt()
        program = builder.build()
        assert program.function("main").instructions[0].pred == Reg("r9")


# --------------------------------------------------------------------------- #
# Assembler
# --------------------------------------------------------------------------- #
class TestAssembler:
    def test_round_trip_simple_program(self, counter_loop_program):
        assert counter_loop_program.instruction_count() > 0

    def test_memory_operand_offsets(self):
        program = parse_assembly(
            ".func main\n    la r4, x\n    load r3, [r4 + 12]\n    halt\n.data x 16\n"
        )
        load = program.function("main").instructions[1]
        assert load.offset == 12

    def test_unknown_opcode_reports_line(self):
        with pytest.raises(AssemblyError) as excinfo:
            parse_assembly(".func main\n    frobnicate r1\n    halt\n")
        assert "line 2" in str(excinfo.value)

    def test_leading_zero_literal_is_an_assembly_error(self):
        with pytest.raises(AssemblyError, match=r"line 2: bad number '08'"):
            parse_assembly(".func main\n    mov r4, 08\n    halt\n")

    @pytest.mark.parametrize("line", ["?r4", "loop: ? r4"])
    def test_predicate_without_instruction_is_an_assembly_error(self, line):
        expected = r"line 2: predicate \?r4 has no instruction"
        with pytest.raises(AssemblyError, match=expected):
            parse_assembly(f".func main\n{line}\n    halt\n")

    def test_builder_errors_are_assembly_errors_with_a_line(self):
        with pytest.raises(AssemblyError, match=r"line 2: not a register name"):
            parse_assembly(".func main\n    mov r3 r4, 0\n    halt\n")
        with pytest.raises(AssemblyError, match="nowhere"):
            parse_assembly(".func main\n    br nowhere\n    halt\n")

    def test_instruction_outside_function_rejected(self):
        with pytest.raises(AssemblyError):
            parse_assembly("mov r1, 2\n")

    def test_data_attributes(self):
        program = parse_assembly(
            ".data regs 32 region=device readonly init=1,2\n.func main\n    halt\n"
        )
        obj = program.data("regs")
        assert obj.region == "device" and obj.readonly and obj.initial == (1, 2)

    def test_predicate_suffix(self):
        program = parse_assembly(".func main\n    add r3, r3, 1 ?r9\n    halt\n")
        assert program.function("main").instructions[0].pred == Reg("r9")

    def test_comments_are_ignored(self):
        program = parse_assembly(
            "# top comment\n.func main\n    mov r3, 1  ; trailing\n    halt\n"
        )
        assert len(program.function("main")) == 2


# --------------------------------------------------------------------------- #
# Interpreter
# --------------------------------------------------------------------------- #
class TestInterpreter:
    def test_counter_loop_result(self, counter_loop_program):
        result = Interpreter(counter_loop_program).run()
        # sum(1..8) = 36, scaled by 3 -> 108
        assert result.return_value == 108
        assert result.halted

    def test_trace_records_loop_iterations(self, counter_loop_program):
        result = Interpreter(counter_loop_program).run()
        main = counter_loop_program.function("main")
        loop_head = main.label_addresses()["loop"]
        assert result.trace.block_counts[loop_head] == 8

    def test_call_counts(self, counter_loop_program):
        result = Interpreter(counter_loop_program).run()
        assert result.trace.call_counts["scale"] == 1

    def test_arguments_are_passed_in_registers(self):
        program = parse_assembly(".func main params=2\n    add r3, r3, r4\n    halt\n")
        result = Interpreter(program).run(args=[30, 12])
        assert result.return_value == 42

    def test_initial_data_override(self, counter_loop_program):
        result = Interpreter(counter_loop_program).run(
            initial_data={"buf": [10] * 8}
        )
        assert result.return_value == 10 * 8 * 3

    def test_division_by_zero_traps(self):
        program = parse_assembly(".func main\n    mov r4, 0\n    divs r3, r3, r4\n    halt\n")
        with pytest.raises(ExecutionError):
            Interpreter(program).run()

    def test_step_limit_detects_divergence(self):
        program = parse_assembly(".func main\nspin:\n    br spin\n    halt\n")
        with pytest.raises(ExecutionError):
            Interpreter(program, max_steps=1000).run()

    def test_readonly_data_cannot_be_written(self):
        program = parse_assembly(
            ".data tbl 16 readonly\n.func main\n    la r4, tbl\n    store r3, [r4 + 0]\n    halt\n"
        )
        with pytest.raises(ExecutionError):
            Interpreter(program).run()

    def test_predicated_instruction_skipped_when_false(self):
        program = parse_assembly(
            ".func main\n    mov r3, 1\n    mov r9, 0\n    add r3, r3, 10 ?r9\n    halt\n"
        )
        assert Interpreter(program).run().return_value == 1

    def test_predicated_instruction_executes_when_true(self):
        program = parse_assembly(
            ".func main\n    mov r3, 1\n    mov r9, 1\n    add r3, r3, 10 ?r9\n    halt\n"
        )
        assert Interpreter(program).run().return_value == 11

    def test_indirect_call_through_register(self):
        program = parse_assembly(
            ".func main\n    la r11, helper\n    icall r11\n    halt\n"
            ".func helper\n    mov r3, 77\n    ret\n"
        )
        assert Interpreter(program).run().return_value == 77

    def test_branch_outside_every_function_raises_lookup_error(self):
        program = parse_assembly(".func main\n    mov r4, 64\n    ibr r4\n    halt\n")
        with pytest.raises(IRError, match="no function contains address 0x40"):
            Interpreter(program).run()

    def test_only_executed_instructions_are_decoded(self):
        program = parse_assembly(
            ".func main\n    mov r3, 1\n    bt r3, done\n    mov r3, 2\n"
            "done:\n    halt\n.func unused\n    mov r3, 3\n    ret\n"
        )
        interpreter = Interpreter(program)
        result = interpreter.run()
        assert result.return_value == 1
        assert set(interpreter._decoded) == set(result.trace.instruction_addresses)
        assert len(interpreter._decoded) == 3 < program.instruction_count()

    def test_block_counts_count_every_fetch(self):
        program = parse_assembly(
            ".func main\n    mov r4, 3\n    mov r9, 0\nloop:\n"
            "    add r3, r3, 1 ?r9\n    sub r4, r4, 1\n    bt r4, loop\n    halt\n"
        )
        trace = Interpreter(program).run().trace
        # The predicated-off add is fetched once per iteration.
        assert trace.block_counts[CODE_BASE + 2 * INSTRUCTION_SIZE] == 3

    def test_register_moves_and_alu_keep_32_bit_values(self):
        program = parse_assembly(
            ".data port 4 region=device\n.func main\n"
            "    la r4, port\n    mov r5, r4\n    mov r6, 0xFFFFFFFF\n"
            "    mov r7, 2.5\n    add r8, r7, 1\n    add r9, r8, 1.5\n"
            "    sub r10, r6, r8\n    halt\n"
        )
        registers = Interpreter(program).run().registers
        # la leaves the device address unwrapped; a copy wraps it.
        assert registers["r4"] == program.symbol_address("port") >= 2**31
        assert registers["r5"] == to_signed(registers["r4"])
        assert registers["r6"] == -1
        assert registers["r7"] == 2.5
        assert registers["r8"] == 3 and registers["r9"] == 4
        assert registers["r10"] == -4

    def test_unsigned_comparison(self):
        program = parse_assembly(
            ".func main\n    mov r4, -1\n    mov r5, 1\n    sltu r3, r5, r4\n    halt\n"
        )
        # 1 <u 0xffffffff
        assert Interpreter(program).run().return_value == 1

    def test_float_roundtrip(self):
        program = parse_assembly(
            ".func main\n    mov r4, 7\n    itof r5, r4\n    fmul r5, r5, 2.5\n    ftoi r3, r5\n    halt\n"
        )
        assert Interpreter(program).run().return_value == 17

    @given(a=st.integers(-(2**31), 2**31 - 1), b=st.integers(-(2**31), 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_add_wraps_like_hardware(self, a, b):
        program = parse_assembly(".func main params=2\n    add r3, r3, r4\n    halt\n")
        result = Interpreter(program).run(args=[a, b])
        assert result.return_value == wrap32(a + b)

    @given(value=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_signed_unsigned_conversions_roundtrip(self, value):
        assert to_unsigned(to_signed(value)) == value
