"""One decode per program: the decoding phase of Figure 1, memoised.

Decoding is a pure function of the laid-out program and its control-flow
hints.  :func:`decode_program` therefore runs it once per
:class:`~repro.ir.program.Program` and key, and every later analysis,
operating mode and oracle check reads the same :class:`DecodedProgram`.  The
memo lives on the program and dies with it; ``add_function``/``add_data``
reset it.  A decode that raises is not stored, so it raises the same
:class:`~repro.errors.CFGError` on every call.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from repro.cfg.callgraph import CallGraph, build_callgraph
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.loops import LoopForest, find_loops
from repro.cfg.reconstruct import ControlFlowHints, reconstruct_program
from repro.ir.program import Program


class DecodedProgram:
    """The read-only product of decoding one program under one key.

    ``cfgs`` and ``callgraph`` are what :func:`reconstruct_program` and
    :func:`build_callgraph` return; ``detail`` the ``"N basic blocks"`` phase
    detail; ``components`` the call graph's SCCs in Tarjan order (callees
    before callers) and ``recursive`` the members of its recursion cycles.
    Loop forests, each with its function's dominator tree, are built on
    first request.  Nothing here may be mutated.
    """

    def __init__(self, cfgs: Dict[str, ControlFlowGraph], callgraph: CallGraph):
        self.cfgs = cfgs
        self.callgraph = callgraph
        self.detail = f"{sum(len(cfg.blocks) for cfg in cfgs.values())} basic blocks"
        self.components: Tuple[Set[str], ...] = tuple(
            callgraph.strongly_connected_components()
        )
        self.recursive: FrozenSet[str] = frozenset(
            name
            for component in self.components
            if len(component) > 1
            or any(name in callgraph.edges.get(name, ()) for name in component)
            for name in component
        )
        self._loops: Dict[str, LoopForest] = {}

    def loops(self, name: str) -> LoopForest:
        """The loop forest of function ``name``, built on first request."""
        forest = self._loops.get(name)
        if forest is None:
            forest = self._loops.setdefault(name, find_loops(self.cfgs[name]))
        return forest


def decode_program(
    program: Program, hints: Optional[ControlFlowHints] = None
) -> DecodedProgram:
    """The decoded form of ``program`` under ``hints``.

    Keyed by the hints' content, since :class:`ControlFlowHints` is mutable:
    two equal hint sets share one entry, two different ones get two.
    Reconstruction runs before the call graph, so an unresolved indirect
    transfer raises the reconstruction's :class:`~repro.errors.CFGError`.
    """
    hints = hints or ControlFlowHints()
    key = (
        _content(hints.indirect_call_targets),
        _content(hints.indirect_branch_targets),
    )
    return program.decoded(
        key,
        lambda: DecodedProgram(
            reconstruct_program(program, hints=hints), build_callgraph(program, hints=hints)
        ),
    )


def _content(targets_by_address: Dict[int, Sequence[str]]) -> tuple:
    return tuple(
        sorted((address, tuple(targets)) for address, targets in targets_by_address.items())
    )
