"""Dominator analysis over control-flow graphs.

Implements the classic iterative dominator algorithm (Cooper/Harvey/Kennedy
style, on reverse postorder).  Dominators are the backbone of natural-loop
detection (:mod:`repro.cfg.loops`) and of the virtual-loop-unrolling contexts
used by the WCET analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import CFGError
from repro.cfg.graph import ENTRY, EXIT, ControlFlowGraph


@dataclass
class DominatorInfo:
    """Immediate dominators and derived queries for one CFG."""

    cfg: ControlFlowGraph
    idom: Dict[int, Optional[int]] = field(default_factory=dict)

    def dominates(self, a: int, b: int) -> bool:
        """True if node ``a`` dominates node ``b`` (reflexive)."""
        node: Optional[int] = b
        while node is not None:
            if node == a:
                return True
            node = self.idom.get(node)
        return False

    def immediate_dominator(self, node: int) -> Optional[int]:
        return self.idom.get(node)

    def dominator_tree_children(self) -> Dict[int, List[int]]:
        children: Dict[int, List[int]] = {}
        for node, parent in self.idom.items():
            if parent is not None:
                children.setdefault(parent, []).append(node)
        for child_list in children.values():
            child_list.sort()
        return children

    def dominance_frontier(self) -> Dict[int, Set[int]]:
        """Dominance frontiers (useful for SSA-style analyses and tests)."""
        frontier: Dict[int, Set[int]] = {node: set() for node in self.idom}
        for node in self.idom:
            predecessors = [
                p for p in self.cfg.predecessors(node) if p in self.idom
            ]
            if len(predecessors) < 2:
                continue
            for pred in predecessors:
                runner: Optional[int] = pred
                while runner is not None and runner != self.idom.get(node):
                    frontier.setdefault(runner, set()).add(node)
                    runner = self.idom.get(runner)
        return frontier


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

    info = DominatorInfo(cfg=cfg, idom=idom)
    return info
