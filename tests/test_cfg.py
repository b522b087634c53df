"""Tests for CFG reconstruction, dominators, loops and the call graph."""

from __future__ import annotations

import pytest

from repro.errors import CFGError
from repro.cfg import (
    ControlFlowHints,
    build_callgraph,
    compute_dominators,
    decode_program,
    find_loops,
    reconstruct_cfg,
    reconstruct_program,
)
from repro.cfg.graph import ENTRY, EXIT, EdgeKind
from repro.ir import parse_assembly

NESTED_LOOP_ASM = """
.func main
    mov r3, 0
    mov r4, 0
outer:
    mov r5, 0
inner:
    add r3, r3, r5
    add r5, r5, 1
    slt r6, r5, 4
    bt r6, inner
    add r4, r4, 1
    slt r6, r4, 3
    bt r6, outer
    halt
"""

IRREDUCIBLE_ASM = """
.func main
    mov r3, 0
    bt r3, middle
head:
    add r3, r3, 1
middle:
    add r3, r3, 2
    slt r4, r3, 20
    bt r4, head
    halt
"""

DIAMOND_ASM = """
.func main
    slt r4, r3, 10
    bf r4, big
    mov r5, 1
    br join
big:
    mov r5, 2
join:
    add r3, r3, r5
    halt
"""


class TestReconstruction:
    def test_block_count_of_diamond(self):
        cfg = reconstruct_cfg(parse_assembly(DIAMOND_ASM), "main")
        assert cfg.num_blocks == 4

    def test_every_block_ends_properly(self):
        cfg = reconstruct_cfg(parse_assembly(NESTED_LOOP_ASM), "main")
        for block in cfg.blocks.values():
            # A block is either terminated or falls through to another block.
            assert cfg.successors(block.id)

    def test_entry_and_exit_edges(self):
        cfg = reconstruct_cfg(parse_assembly(DIAMOND_ASM), "main")
        assert cfg.successors(ENTRY) == [cfg.entry_block]
        assert cfg.exit_blocks(), "halt block must connect to the virtual exit"

    def test_taken_and_fallthrough_edges(self):
        cfg = reconstruct_cfg(parse_assembly(DIAMOND_ASM), "main")
        kinds = {edge.kind for edge in cfg.out_edges(cfg.entry_block)}
        assert kinds == {EdgeKind.TAKEN, EdgeKind.FALLTHROUGH}

    def test_unresolved_indirect_branch_is_strict_error(self):
        asm = ".func main\n    la r4, main\n    ibr r4\n    halt\n"
        with pytest.raises(CFGError):
            reconstruct_cfg(parse_assembly(asm), "main")

    def test_indirect_branch_resolved_by_hints(self):
        asm = ".func main\n    la r4, main\nalt:\n    ibr r4\n    halt\n"
        program = parse_assembly(asm)
        address = program.function("main").instructions[1].address
        hints = ControlFlowHints()
        hints.add_branch_targets(address, ["alt"])
        cfg = reconstruct_cfg(program, "main", hints=hints)
        assert any(e.kind is EdgeKind.INDIRECT for e in cfg.edges())

    def test_reconstruct_program_covers_all_functions(self, counter_loop_program):
        cfgs = reconstruct_program(counter_loop_program)
        assert set(cfgs) == {"main", "scale"}

    def test_block_containing(self):
        cfg = reconstruct_cfg(parse_assembly(DIAMOND_ASM), "main")
        entry_block = cfg.block(cfg.entry_block)
        last_address = entry_block.instructions[-1].address
        assert cfg.block_containing(last_address).id == cfg.entry_block

    def test_reverse_postorder_starts_with_entry_block(self):
        cfg = reconstruct_cfg(parse_assembly(NESTED_LOOP_ASM), "main")
        assert cfg.reverse_postorder()[0] == cfg.entry_block

    def test_dot_export_mentions_blocks(self):
        cfg = reconstruct_cfg(parse_assembly(DIAMOND_ASM), "main")
        assert "digraph" in cfg.to_dot()


class TestDominators:
    def test_entry_block_dominates_everything(self):
        cfg = reconstruct_cfg(parse_assembly(NESTED_LOOP_ASM), "main")
        dom = compute_dominators(cfg)
        for block in cfg.node_ids():
            assert dom.dominates(cfg.entry_block, block)

    def test_branches_do_not_dominate_join(self):
        cfg = reconstruct_cfg(parse_assembly(DIAMOND_ASM), "main")
        dom = compute_dominators(cfg)
        blocks = cfg.node_ids()
        join = blocks[-1]
        then_block, else_block = blocks[1], blocks[2]
        assert not dom.dominates(then_block, join)
        assert not dom.dominates(else_block, join)
        assert dom.idom[join] == cfg.entry_block

    def test_loop_forest_keeps_the_dominator_tree(self):
        cfg = reconstruct_cfg(parse_assembly(NESTED_LOOP_ASM), "main")
        assert find_loops(cfg).dominators.idom == compute_dominators(cfg).idom


class TestLoops:
    def test_nested_loops_detected_with_depths(self):
        cfg = reconstruct_cfg(parse_assembly(NESTED_LOOP_ASM), "main")
        forest = find_loops(cfg)
        assert len(forest) == 2
        assert forest.max_depth() == 2
        inner = max(forest.loops, key=lambda l: l.depth)
        outer = min(forest.loops, key=lambda l: l.depth)
        assert inner.parent == outer.header
        assert inner.blocks < outer.blocks

    def test_reducible_program_has_no_irreducible_loops(self):
        cfg = reconstruct_cfg(parse_assembly(NESTED_LOOP_ASM), "main")
        forest = find_loops(cfg)
        assert forest.reducible and not forest.has_irreducible

    def test_goto_into_loop_is_irreducible(self):
        cfg = reconstruct_cfg(parse_assembly(IRREDUCIBLE_ASM), "main")
        forest = find_loops(cfg)
        assert not forest.reducible
        assert forest.has_irreducible
        irreducible = [loop for loop in forest.loops if loop.irreducible]
        assert irreducible and len(irreducible[0].entries) >= 2

    def test_loop_exit_edges_leave_the_loop(self):
        cfg = reconstruct_cfg(parse_assembly(NESTED_LOOP_ASM), "main")
        forest = find_loops(cfg)
        for loop in forest.loops:
            for edge in loop.exit_edges(cfg):
                assert edge.source in loop.blocks
                assert edge.target not in loop.blocks

    def test_innermost_loop_query(self):
        cfg = reconstruct_cfg(parse_assembly(NESTED_LOOP_ASM), "main")
        forest = find_loops(cfg)
        inner = max(forest.loops, key=lambda l: l.depth)
        assert forest.innermost_loop_of(inner.header) is inner

    def test_straight_line_code_has_no_loops(self):
        cfg = reconstruct_cfg(parse_assembly(DIAMOND_ASM), "main")
        assert len(find_loops(cfg)) == 0


class TestCallGraph:
    def test_simple_call_edge(self, counter_loop_program):
        graph = build_callgraph(counter_loop_program)
        assert graph.callees("main") == {"scale"}
        assert graph.callers("scale") == {"main"}

    def test_bottom_up_order_puts_callees_first(self, counter_loop_program):
        components = decode_program(counter_loop_program).components
        order = [name for component in components for name in component]
        assert order.index("scale") < order.index("main")

    def test_recursion_detection(self):
        asm = (
            ".func main\n    call even\n    halt\n"
            ".func even\n    call odd\n    ret\n"
            ".func odd\n    call even\n    ret\n"
        )
        decoded = decode_program(parse_assembly(asm))
        assert decoded.recursive == {"even", "odd"}
        assert list(decoded.components) == [{"even", "odd"}, {"main"}]

    def test_self_recursion_detected(self):
        asm = ".func main\n    call main\n    halt\n"
        assert decode_program(parse_assembly(asm)).recursive == {"main"}

    def test_indirect_call_needs_hints_in_strict_mode(self):
        asm = ".func main\n    la r4, helper\n    icall r4\n    halt\n.func helper\n    ret\n"
        with pytest.raises(CFGError):
            build_callgraph(parse_assembly(asm))

    def test_indirect_call_resolved_by_hints(self):
        asm = ".func main\n    la r4, helper\n    icall r4\n    halt\n.func helper\n    ret\n"
        program = parse_assembly(asm)
        address = program.function("main").instructions[1].address
        hints = ControlFlowHints()
        hints.add_call_targets(address, ["helper"])
        graph = build_callgraph(program, hints=hints)
        assert graph.callees("main") == {"helper"}
        assert any(site.indirect for site in graph.call_sites)

    def test_reachability_from_entry(self, counter_loop_program):
        graph = build_callgraph(counter_loop_program)
        assert graph.reachable_from("main") == {"main", "scale"}

    def test_sccs_are_emitted_callees_first(self, counter_loop_program):
        components = build_callgraph(counter_loop_program).strongly_connected_components()
        flattened = [name for component in components for name in component]
        assert flattened.index("scale") < flattened.index("main")
