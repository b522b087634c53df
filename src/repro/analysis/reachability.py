"""Unreachable-code detection (MISRA-C rule 14.1).

Two notions of unreachability are reported:

* *structural*: basic blocks with no path from the function entry in the CFG —
  classic dead code that rule 14.1 requires to be removed;
* *semantic*: blocks that are structurally connected but whose entry state
  never becomes reachable in the value analysis (e.g. guarded by a condition
  that is statically false).  The paper notes that a static analysis
  over-approximates the control flow, so removing such code (or excluding it
  via annotations) removes a source of over-estimation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.analysis.value import ValueAnalysisResult
from repro.cfg.graph import ControlFlowGraph


@dataclass
class ReachabilityResult:
    """Unreachable blocks of one function."""

    function_name: str
    structurally_unreachable: List[int] = field(default_factory=list)
    semantically_unreachable: List[int] = field(default_factory=list)
    #: Number of instructions in unreachable blocks (for reporting).
    dead_instruction_count: int = 0

    @property
    def has_unreachable_code(self) -> bool:
        return bool(self.structurally_unreachable or self.semantically_unreachable)

    def all_unreachable(self) -> List[int]:
        return sorted(set(self.structurally_unreachable) | set(self.semantically_unreachable))


def find_unreachable_code(
    cfg: ControlFlowGraph, values: Optional[ValueAnalysisResult] = None
) -> ReachabilityResult:
    """Detect structurally and semantically unreachable blocks of ``cfg``."""
    result = ReachabilityResult(function_name=cfg.function_name)

    reachable: Set[int] = cfg.reachable_from_entry()
    for block_id in cfg.node_ids():
        if block_id not in reachable:
            result.structurally_unreachable.append(block_id)

    if values is not None:
        for block_id in cfg.node_ids():
            if block_id in result.structurally_unreachable:
                continue
            state = values.state_at_block_entry(block_id)
            if not state.reachable:
                result.semantically_unreachable.append(block_id)

    result.structurally_unreachable.sort()
    result.semantically_unreachable.sort()
    result.dead_instruction_count = sum(
        len(cfg.block(block_id)) for block_id in result.all_unreachable()
    )
    return result
