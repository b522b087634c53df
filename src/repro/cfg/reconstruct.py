"""CFG reconstruction from laid-out IR programs (the decoding phase).

The reconstruction splits every function into maximal basic blocks and wires
control-flow edges.  Direct branches are resolved from their label operands.
*Indirect* branches (``ibr``) and *indirect calls* (``icall``) — the binary
footprint of function pointers and computed gotos — cannot be resolved from
the instruction stream alone (Section 3.2, "Function Pointers"); they must be
resolved through :class:`ControlFlowHints`.  If no hint is available the
reconstruction raises :class:`~repro.errors.CFGError`: an unresolved indirect
transfer is a tier-one challenge, and no WCET bound can be computed at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.errors import CFGError
from repro.ir.instructions import Opcode
from repro.ir.program import Function, Program
from repro.cfg.graph import ENTRY, EXIT, BasicBlock, ControlFlowGraph, EdgeKind


@dataclass
class ControlFlowHints:
    """User/designer-supplied resolution of indirect control flow.

    Attributes
    ----------
    indirect_branch_targets:
        Maps the address of an ``ibr`` instruction to the list of code labels
        (within the same function) it may jump to.
    indirect_call_targets:
        Maps the address of an ``icall`` instruction to the list of function
        names it may call.  This models the event-handler tables the paper
        mentions (CAN communication callbacks etc.).
    """

    indirect_branch_targets: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    indirect_call_targets: Dict[int, Tuple[str, ...]] = field(default_factory=dict)

    def branch_targets(self, address: int) -> Optional[Tuple[str, ...]]:
        return self.indirect_branch_targets.get(address)

    def call_targets(self, address: int) -> Optional[Tuple[str, ...]]:
        return self.indirect_call_targets.get(address)

    def add_branch_targets(self, address: int, labels: Sequence[str]) -> None:
        self.indirect_branch_targets[address] = tuple(labels)

    def add_call_targets(self, address: int, functions: Sequence[str]) -> None:
        self.indirect_call_targets[address] = tuple(functions)


def _find_leaders(function: Function, hints: Optional[ControlFlowHints]) -> Set[int]:
    """Compute the set of basic-block leader addresses of ``function``."""
    labels = function.label_addresses()
    leaders: Set[int] = {function.entry_address}
    instructions = function.instructions
    for index, instr in enumerate(instructions):
        target = instr.branch_target()
        if target is not None:
            leaders.add(labels[target])
        if hints is not None and instr.opcode is Opcode.IBR:
            for label in hints.branch_targets(instr.address) or ():
                if label in labels:
                    leaders.add(labels[label])
        if instr.is_terminator and index + 1 < len(instructions):
            leaders.add(instructions[index + 1].address)
        # A labelled instruction always starts a block even if nothing is known
        # to branch to it (keeps reconstruction deterministic and makes
        # unreachable-code detection meaningful, cf. MISRA rule 14.1).
        if instr.label is not None:
            leaders.add(instr.address)
    return leaders


def reconstruct_cfg(
    program: Program,
    function_name: str,
    hints: Optional[ControlFlowHints] = None,
) -> ControlFlowGraph:
    """Reconstruct the CFG of one function.

    An unresolved indirect branch or call, or a conditional branch that ends
    the function, raises :class:`CFGError`.
    """
    program.ensure_layout()
    function = program.function(function_name)
    if not function.instructions:
        raise CFGError(f"function {function_name!r} has no instructions")

    hints = hints or ControlFlowHints()
    labels = function.label_addresses()
    leaders = sorted(_find_leaders(function, hints))
    cfg = ControlFlowGraph(function_name, entry_block=function.entry_address)

    # Build the blocks.
    leader_set = set(leaders)
    current: Optional[BasicBlock] = None
    for instr in function.instructions:
        if instr.address in leader_set:
            if current is not None:
                cfg.add_block(current)
            current = BasicBlock(
                start_address=instr.address, function_name=function_name
            )
        assert current is not None
        current.instructions.append(instr)
        if instr.is_terminator:
            cfg.add_block(current)
            current = None
    if current is not None:
        cfg.add_block(current)

    # Wire the edges.
    block_ids = cfg.node_ids()
    next_block: Dict[int, Optional[int]] = {}
    for index, block_id in enumerate(block_ids):
        next_block[block_id] = block_ids[index + 1] if index + 1 < len(block_ids) else None

    cfg.add_edge(ENTRY, function.entry_address, EdgeKind.ENTRY)

    for block_id in block_ids:
        block = cfg.block(block_id)
        last = block.last
        fallthrough = next_block[block_id]

        if last.opcode is Opcode.BR:
            cfg.add_edge(block_id, labels[last.branch_target()], EdgeKind.TAKEN)
        elif last.opcode in (Opcode.BT, Opcode.BF):
            cfg.add_edge(block_id, labels[last.branch_target()], EdgeKind.TAKEN)
            if fallthrough is not None:
                cfg.add_edge(block_id, fallthrough, EdgeKind.FALLTHROUGH)
            else:
                raise CFGError(
                    f"{function_name}@{last.address:#x}: conditional branch at end "
                    "of function with no fall-through"
                )
        elif last.opcode is Opcode.IBR:
            targets = hints.branch_targets(last.address)
            if targets is None:
                raise CFGError(
                    f"{function_name}@{last.address:#x}: indirect branch with no "
                    "target hints (function pointer / computed goto, tier-one "
                    "challenge)"
                )
            for label in targets:
                if label not in labels:
                    raise CFGError(
                        f"indirect branch hint targets unknown label {label!r} "
                        f"in {function_name!r}"
                    )
                cfg.add_edge(block_id, labels[label], EdgeKind.INDIRECT)
        elif last.opcode in (Opcode.RET, Opcode.HALT):
            cfg.add_edge(block_id, EXIT, EdgeKind.EXIT)
        else:
            # Block ends because the next instruction is a leader.
            if fallthrough is not None:
                cfg.add_edge(block_id, fallthrough, EdgeKind.FALLTHROUGH)
            else:
                cfg.add_edge(block_id, EXIT, EdgeKind.EXIT)

        # Unresolved indirect calls do not affect intraprocedural edges but
        # make the interprocedural analysis impossible.
        for instr in block.instructions:
            if instr.opcode is Opcode.ICALL and hints.call_targets(instr.address) is None:
                raise CFGError(
                    f"{function_name}@{instr.address:#x}: indirect call with no "
                    "callee hints (function pointer, tier-one challenge)"
                )

    return cfg


def reconstruct_program(
    program: Program, hints: Optional[ControlFlowHints] = None
) -> Dict[str, ControlFlowGraph]:
    """Reconstruct the CFGs of all functions of ``program``."""
    return {
        name: reconstruct_cfg(program, name, hints=hints) for name in program.functions
    }
