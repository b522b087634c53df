"""Generic worklist fixpoint solver over control-flow graphs.

The solver is parameterised over the abstract domain through three callbacks
(transfer, join, widen) plus an inclusion check, and is shared by the value
analysis and by the abstract cache analyses.  Widening is applied at the
heads of the weak topological order (the decoded loop headers) once a node
has been revisited :data:`WIDEN_AFTER` times, which guarantees termination
for infinite-height domains such as intervals.

Scheduling
----------

Pending nodes are kept in a binary heap keyed by their position in a
Bourdoncle-style weak topological order (:mod:`repro.analysis.wto`), so every
pop selects the earliest unstable node in O(log n).  Because inner-loop nodes
precede everything after the loop in the linearization, an unstable inner
component is re-iterated to its local fixpoint before any of its states
propagate outward — the recommended chaotic-iteration strategy for
interval-style domains.  (The seed implementation achieved the same
evaluation *order* by re-sorting the whole worklist on every pop, at
O(n log n) per pop; the heap keeps the order, and therefore all results,
bit-identical while removing the re-sort.)
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, List, Set, TypeVar

from repro.errors import AnalysisError
from repro.analysis.wto import WeakTopologicalOrder
from repro.cfg.graph import EXIT, ControlFlowGraph
from repro.obs import metrics as obs_metrics

_M_ITERATIONS = obs_metrics.REGISTRY.counter(
    "repro_fixpoint_iterations_total", "Worklist iterations across fixpoint solves."
)
_M_JOINS = obs_metrics.REGISTRY.counter(
    "repro_fixpoint_joins_total", "Pairwise joins at merge points."
)
_M_WIDENS = obs_metrics.REGISTRY.counter(
    "repro_fixpoint_widens_total", "Widenings applied at loop heads."
)

#: A widening point widens, rather than joins, from its ``WIDEN_AFTER``-th
#: changed entry state on.
WIDEN_AFTER = 2

State = TypeVar("State")


@dataclass
class FixpointResult(Generic[State]):
    """Result of a forward fixpoint computation."""

    #: Abstract state at the entry of each block.
    block_in: Dict[int, State] = field(default_factory=dict)
    #: Abstract state at the exit of each block (per outgoing edge).
    edge_out: Dict[tuple, State] = field(default_factory=dict)
    #: Number of worklist iterations performed.
    iterations: int = 0
    #: Number of pairwise joins performed at merge points.
    joins: int = 0
    #: Number of widenings applied at loop heads.
    widens: int = 0


class ForwardSolver(Generic[State]):
    """Forward worklist solver with widening at the WTO's component heads.

    Parameters
    ----------
    cfg:
        The control-flow graph to solve over.
    transfer:
        ``transfer(block_id, in_state) -> Dict[successor_id, out_state]``:
        computes the state propagated along each outgoing edge (this lets
        clients refine states differently on branch outcomes).
    join:
        Binary least-upper-bound on states.
    widen:
        Widening operator on states (old, new) -> widened.
    includes:
        ``includes(old, new)`` must return True when ``old`` already
        over-approximates ``new`` (fixpoint reached for that node).
    wto:
        Weak topological order of ``cfg``, built from its decoded loop forest
        (:func:`~repro.analysis.wto.compute_wto`).  Its positions are the
        scheduling priority, and its heads (the loop headers) are where
        widening, rather than join, is applied after :data:`WIDEN_AFTER`
        visits.
    max_iterations:
        Hard safety limit on total node evaluations.
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        transfer: Callable[[int, State], Dict[int, State]],
        join: Callable[[State, State], State],
        widen: Callable[[State, State], State],
        includes: Callable[[State, State], bool],
        wto: WeakTopologicalOrder,
        max_iterations: int = 100_000,
    ):
        self.cfg = cfg
        self.transfer = transfer
        self.join = join
        self.widen = widen
        self.includes = includes
        self.wto = wto
        self.widening_points: Set[int] = set(wto.heads)
        self.max_iterations = max_iterations

    def solve(self, entry_state: State) -> FixpointResult[State]:
        cfg = self.cfg
        result: FixpointResult[State] = FixpointResult()
        visits: Dict[int, int] = {}

        block_in: Dict[int, State] = {}
        entry_block = cfg.entry_block
        block_in[entry_block] = entry_state

        # Scheduling priority: WTO position (reverse postorder linearization).
        position = self.wto.positions
        fallback = len(position)

        # Min-heap of (position, node); `pending` mirrors heap membership so a
        # node is never queued twice.
        heap: List[tuple] = [(position.get(entry_block, fallback), entry_block)]
        pending: Set[int] = {entry_block}

        widening_points = self.widening_points
        includes = self.includes
        transfer = self.transfer
        edge_out = result.edge_out

        iterations = 0
        joins = 0
        widens = 0
        while heap:
            _, block = heapq.heappop(heap)
            pending.discard(block)

            iterations += 1
            if iterations > self.max_iterations:
                raise AnalysisError(
                    f"fixpoint did not stabilise after {self.max_iterations} "
                    f"iterations in function {cfg.function_name!r}"
                )

            in_state = block_in.get(block)
            if in_state is None:
                continue
            out_states = transfer(block, in_state)

            for successor, out_state in out_states.items():
                edge_out[(block, successor)] = out_state
                if successor == EXIT:
                    continue
                old = block_in.get(successor)
                if old is None:
                    block_in[successor] = out_state
                    changed = True
                else:
                    if includes(old, out_state):
                        changed = False
                    else:
                        visits[successor] = visits.get(successor, 0) + 1
                        if (
                            successor in widening_points
                            and visits[successor] >= WIDEN_AFTER
                        ):
                            new_state = self.widen(old, out_state)
                            widens += 1
                        else:
                            new_state = self.join(old, out_state)
                            joins += 1
                        block_in[successor] = new_state
                        changed = True
                if changed and successor not in pending:
                    heapq.heappush(
                        heap, (position.get(successor, fallback), successor)
                    )
                    pending.add(successor)

        result.block_in = block_in
        result.iterations = iterations
        result.joins = joins
        result.widens = widens
        if iterations:
            _M_ITERATIONS.inc(iterations)
        if joins:
            _M_JOINS.inc(joins)
        if widens:
            _M_WIDENS.inc(widens)
        return result

