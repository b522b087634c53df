"""Dominator analysis over control-flow graphs.

Implements the classic iterative dominator algorithm (Cooper/Harvey/Kennedy
style, on reverse postorder).  Dominators are the backbone of natural-loop
detection: :func:`~repro.cfg.loops.find_loops` computes them once per function
and keeps them on the :class:`~repro.cfg.loops.LoopForest`, where the
loop-bound analysis (:mod:`repro.analysis.loopbounds`) reads them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import CFGError
from repro.cfg.graph import ENTRY, EXIT, ControlFlowGraph


@dataclass
class DominatorInfo:
    """Immediate dominators of one CFG (``None`` marks the root)."""

    idom: Dict[int, Optional[int]] = field(default_factory=dict)

    def dominates(self, a: int, b: int) -> bool:
        """True if node ``a`` dominates node ``b`` (reflexive)."""
        node: Optional[int] = b
        while node is not None:
            if node == a:
                return True
            node = self.idom.get(node)
        return False


def compute_dominators(cfg: ControlFlowGraph) -> DominatorInfo:
    """Compute immediate dominators of all blocks reachable from the entry.

    The virtual :data:`~repro.cfg.graph.ENTRY` node is the root; unreachable
    blocks are absent from the result (callers use that to detect dead code,
    cf. MISRA rule 14.1).
    """
    order = cfg.reverse_postorder()
    if not order:
        raise CFGError(
            f"function {cfg.function_name!r} has no blocks reachable from entry"
        )
    position = {node: index for index, node in enumerate([ENTRY] + order)}

    idom: Dict[int, Optional[int]] = {ENTRY: None}
    changed = True

    def intersect(a: int, b: int) -> int:
        while a != b:
            while position[a] > position[b]:
                parent = idom.get(a)
                if parent is None:
                    return b
                a = parent
            while position[b] > position[a]:
                parent = idom.get(b)
                if parent is None:
                    return a
                b = parent
        return a

    while changed:
        changed = False
        for node in order:
            candidates = [
                p
                for p in cfg.predecessors(node)
                if p in idom and p != EXIT
            ]
            if not candidates:
                continue
            new_idom = candidates[0]
            for pred in candidates[1:]:
                new_idom = intersect(new_idom, pred)
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True

    return DominatorInfo(idom=idom)
