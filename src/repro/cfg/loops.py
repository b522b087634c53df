"""Loop detection: natural loops, nesting, and irreducibility.

Two of the tier-one challenges of Section 3.2 live here:

* *Loops and recursions* — every loop needs an iteration bound before a WCET
  bound can be computed at all.  The natural-loop structure computed here is
  what the loop-bound analysis (:mod:`repro.analysis.loopbounds`) and the
  annotation system attach bounds to.
* *Irreducible loops* — loops with multiple entry points (constructed with
  ``goto``, ``setjmp``/``longjmp`` or hand-written assembly).  The paper notes
  there is no feasible approach to bound them automatically and that
  precision-enhancing techniques such as virtual loop unrolling are not
  applicable.  We detect them with the classic criterion: the CFG is reducible
  iff every retreating edge (DFS edge to an ancestor) targets a dominator of
  its source.

The dominator tree computed for that criterion stays on the
:class:`LoopForest`, so each function's dominators are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.dominators import DominatorInfo, compute_dominators
from repro.cfg.graph import (
    ENTRY,
    EXIT,
    ControlFlowGraph,
    Edge,
    strongly_connected_components,
)


@dataclass
class Loop:
    """A loop (natural or irreducible cycle) of a CFG.

    Attributes
    ----------
    header:
        The (canonical) header block.  For natural loops this is the unique
        entry; for irreducible cycles it is the lowest-address entry node and
        :attr:`entries` lists all of them.
    blocks:
        All blocks belonging to the loop, including the header.
    back_edges:
        The latch edges ``(tail, header)`` that close the loop.
    entries:
        Entry blocks (length 1 for natural loops, >1 for irreducible ones).
    irreducible:
        True when the cycle has multiple entries.
    parent:
        Enclosing loop header, if nested.
    """

    header: int
    blocks: Set[int] = field(default_factory=set)
    back_edges: List[Tuple[int, int]] = field(default_factory=list)
    entries: Set[int] = field(default_factory=set)
    irreducible: bool = False
    parent: Optional[int] = None
    depth: int = 1

    @property
    def body(self) -> Set[int]:
        """Blocks of the loop excluding the header."""
        return self.blocks - {self.header}

    def contains(self, block: int) -> bool:
        return block in self.blocks

    def exit_edges(self, cfg: ControlFlowGraph) -> List[Edge]:
        """Edges leaving the loop (from a loop block to a non-loop block)."""
        result: List[Edge] = []
        for block in sorted(self.blocks):
            for edge in cfg.out_edges(block):
                if edge.target not in self.blocks:
                    result.append(edge)
        return result

    def latch_blocks(self) -> List[int]:
        return [tail for tail, _ in self.back_edges]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "irreducible cycle" if self.irreducible else "loop"
        return f"{kind} header={self.header:#x} blocks={len(self.blocks)} depth={self.depth}"


@dataclass
class LoopForest:
    """All loops of one function plus derived queries."""

    function_name: str
    #: The function's dominator tree, which decided the back edges.
    dominators: DominatorInfo
    loops: List[Loop] = field(default_factory=list)
    #: True if the whole CFG is reducible (no multi-entry cycles).
    reducible: bool = True
    #: Retreating edges that are not back edges (witnesses of irreducibility).
    irreducible_edges: List[Tuple[int, int]] = field(default_factory=list)

    def loop_with_header(self, header: int) -> Optional[Loop]:
        for loop in self.loops:
            if loop.header == header:
                return loop
        return None

    def innermost_loop_of(self, block: int) -> Optional[Loop]:
        """The innermost loop containing ``block`` (or ``None``)."""
        best: Optional[Loop] = None
        for loop in self.loops:
            if block in loop.blocks:
                if best is None or loop.depth > best.depth:
                    best = loop
        return best

    def max_depth(self) -> int:
        return max((loop.depth for loop in self.loops), default=0)

    @property
    def has_irreducible(self) -> bool:
        return any(loop.irreducible for loop in self.loops) or bool(
            self.irreducible_edges
        )

    def __len__(self) -> int:
        return len(self.loops)


def _natural_loop_body(cfg: ControlFlowGraph, header: int, tail: int) -> Set[int]:
    """Blocks of the natural loop defined by back edge ``tail -> header``."""
    body = {header}
    stack: List[int] = []
    if tail not in body:
        body.add(tail)
        stack.append(tail)
    while stack:
        node = stack.pop()
        for pred in cfg.predecessors(node):
            if pred in (ENTRY, EXIT):
                continue
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def find_loops(cfg: ControlFlowGraph) -> LoopForest:
    """Detect all loops of ``cfg`` and classify reducibility."""
    dominators = compute_dominators(cfg)
    reachable = cfg.reachable_from_entry()
    forest = LoopForest(function_name=cfg.function_name, dominators=dominators)

    # --- classify retreating edges via iterative DFS ---------------------- #
    color: Dict[int, int] = {}  # 0 unvisited / 1 on stack / 2 done
    retreating: List[Tuple[int, int]] = []
    order_stack: List[Tuple[int, List[int]]] = []

    start = cfg.entry_block
    color[start] = 1
    order_stack.append((start, [s for s in cfg.successors(start) if s in reachable]))
    while order_stack:
        node, successors = order_stack[-1]
        if successors:
            succ = successors.pop()
            state = color.get(succ, 0)
            if state == 0:
                color[succ] = 1
                order_stack.append(
                    (succ, [s for s in cfg.successors(succ) if s in reachable])
                )
            elif state == 1:
                retreating.append((node, succ))
        else:
            color[node] = 2
            order_stack.pop()

    back_edges: List[Tuple[int, int]] = []
    for tail, head in retreating:
        if dominators.dominates(head, tail):
            back_edges.append((tail, head))
        else:
            forest.irreducible_edges.append((tail, head))
            forest.reducible = False

    # --- natural loops from back edges ------------------------------------ #
    loops_by_header: Dict[int, Loop] = {}
    for tail, header in back_edges:
        body = _natural_loop_body(cfg, header, tail)
        loop = loops_by_header.get(header)
        if loop is None:
            loop = Loop(header=header, blocks=set(), entries={header})
            loops_by_header[header] = loop
        loop.blocks |= body
        loop.back_edges.append((tail, header))

    # --- irreducible cycles as SCC-based pseudo-loops ---------------------- #
    if not forest.reducible:
        heads_of_irreducible = {head for _, head in forest.irreducible_edges}
        components = strongly_connected_components(
            sorted(reachable),
            lambda node: [s for s in cfg.successors(node) if s in reachable],
        )
        for component in components:
            if len(component) < 2:
                continue
            entries = {
                node
                for node in component
                if any(pred not in component for pred in cfg.predecessors(node))
            }
            # Only treat the SCC as irreducible if it has more than one entry
            # and actually contains one of the offending retreating edges.
            if len(entries) > 1 and (component & heads_of_irreducible):
                header = min(entries)
                if header in loops_by_header:
                    loop = loops_by_header[header]
                    loop.blocks |= component
                    loop.entries |= entries
                    loop.irreducible = True
                else:
                    loop = Loop(
                        header=header,
                        blocks=set(component),
                        entries=entries,
                        irreducible=True,
                        back_edges=[
                            (tail, head)
                            for tail, head in forest.irreducible_edges
                            if head in component
                        ],
                    )
                    loops_by_header[header] = loop

    forest.loops = sorted(loops_by_header.values(), key=lambda l: l.header)

    # --- nesting and depth -------------------------------------------------- #
    for inner in forest.loops:
        best_parent: Optional[Loop] = None
        for outer in forest.loops:
            if outer is inner:
                continue
            if inner.header in outer.blocks and inner.blocks <= outer.blocks:
                if best_parent is None or len(outer.blocks) < len(best_parent.blocks):
                    best_parent = outer
        if best_parent is not None:
            inner.parent = best_parent.header

    def depth_of(loop: Loop) -> int:
        depth = 1
        parent = loop.parent
        seen = set()
        while parent is not None and parent not in seen:
            seen.add(parent)
            depth += 1
            parent_loop = next(
                (l for l in forest.loops if l.header == parent), None
            )
            parent = parent_loop.parent if parent_loop else None
        return depth

    for loop in forest.loops:
        loop.depth = depth_of(loop)

    return forest
