"""Bourdoncle-style weak topological order (WTO) for fixpoint scheduling.

A weak topological order of a CFG is a linearization of its nodes together
with a hierarchy of *components* (the loops) such that every edge ``u -> v``
either goes forward in the linearization or enters the *head* of a component
containing ``u`` (Bourdoncle, "Efficient chaotic iteration strategies with
widenings", 1993).  Scheduling a worklist by WTO position makes the solver
iterate an inner component until it stabilises before any state propagates
outward — the iteration strategy with the best known convergence behaviour
for interval-style domains.

We derive the WTO from structures the analyzer already owns instead of
re-running Bourdoncle's recursive SCC decomposition:

* the **linearization** is the CFG's reverse postorder.  For a reducible CFG
  this *is* a valid WTO linearization: every retreating edge targets a natural
  loop header that dominates (and whose loop contains) its source.  For
  irreducible CFGs the SCC pseudo-loops of :mod:`repro.cfg.loops` provide the
  component heads, and reverse postorder remains the canonical order the
  solver has always used — keeping results bit-identical by construction;
* the **components** and their heads come from the existing
  :class:`~repro.cfg.loops.LoopForest` — one component per loop, nested
  exactly as the loops nest.

The heads double as the widening points of the fixpoint iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.loops import LoopForest


@dataclass
class WeakTopologicalOrder:
    """A WTO of one CFG: linear positions plus the component hierarchy."""

    function_name: str
    #: Node id -> position in the linearization (0 = first to evaluate).
    positions: Dict[int, int] = field(default_factory=dict)
    #: Component head -> all member blocks (including the head).
    components: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    #: Heads ordered outermost-first (stable order for widening-point setup).
    heads: Tuple[int, ...] = ()

    # ------------------------------------------------------------------ #
    def position(self, node: int) -> int:
        """Scheduling priority of ``node`` (unknown nodes sort last)."""
        return self.positions.get(node, len(self.positions))

    def is_head(self, node: int) -> bool:
        return node in self.components

    def __len__(self) -> int:
        return len(self.positions)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        """Render the classic parenthesised WTO notation."""
        ordered = sorted(self.positions, key=self.positions.__getitem__)
        opened: List[int] = []
        parts: List[str] = []
        for node in ordered:
            while opened and node not in self.components[opened[-1]]:
                parts.append(")")
                opened.pop()
            if node in self.components:
                parts.append(f"({node:#x}")
                opened.append(node)
            else:
                parts.append(f"{node:#x}")
        parts.extend(")" for _ in opened)
        return " ".join(parts)


def compute_wto(cfg: ControlFlowGraph, loops: LoopForest) -> WeakTopologicalOrder:
    """Compute the WTO of ``cfg`` from its decoded loop forest."""
    order = cfg.reverse_postorder()
    positions = {node: index for index, node in enumerate(order)}
    components = {
        loop.header: frozenset(loop.blocks) for loop in loops.loops
    }
    heads = tuple(
        loop.header
        for loop in sorted(loops.loops, key=lambda l: (l.depth, positions.get(l.header, 0)))
    )
    return WeakTopologicalOrder(
        function_name=cfg.function_name,
        positions=positions,
        components=components,
        heads=heads,
    )
