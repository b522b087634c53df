"""Control-flow reconstruction — the "decoding phase" of Figure 1.

Given a laid-out :class:`~repro.ir.program.Program`, this package rebuilds the
control-flow graph of every function, computes dominator information, detects
natural loops, flags *irreducible* loops (multiple-entry cycles, the tier-one
challenge of Section 3.2), and builds the interprocedural call graph whose
strongly connected components give the recursion cycles.

Indirect branches and indirect calls (function pointers) cannot generally be
resolved automatically; resolution hints are supplied through
:class:`ControlFlowHints`, the machine-level counterpart of the "additional
knowledge" the paper says is required.  An indirect transfer without a hint
raises :class:`~repro.errors.CFGError`: no WCET bound exists without it.

:func:`decode_program` runs all of that once per program and hint set, and
hands every later phase the same :class:`DecodedProgram`.
"""

from repro.cfg.graph import BasicBlock, ControlFlowGraph, Edge, EdgeKind
from repro.cfg.reconstruct import ControlFlowHints, reconstruct_cfg, reconstruct_program
from repro.cfg.dominators import DominatorInfo, compute_dominators
from repro.cfg.loops import Loop, LoopForest, find_loops
from repro.cfg.callgraph import CallGraph, build_callgraph
from repro.cfg.decode import DecodedProgram, decode_program

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "Edge",
    "EdgeKind",
    "ControlFlowHints",
    "reconstruct_cfg",
    "reconstruct_program",
    "DominatorInfo",
    "compute_dominators",
    "Loop",
    "LoopForest",
    "find_loops",
    "CallGraph",
    "build_callgraph",
    "DecodedProgram",
    "decode_program",
]
