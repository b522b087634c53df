"""Interprocedural call graph construction.

MISRA-C rule 16.2 forbids direct and indirect recursion because recursive call
cycles play the same role in the call graph that irreducible loops play in the
CFG: without additional (manual) bounds no WCET can be computed.  The
:class:`CallGraph` built here yields its strongly connected components, from
which :class:`~repro.cfg.decode.DecodedProgram` derives the recursive
functions; the WCET analyzer refuses to analyse recursive programs unless a
recursion bound annotation is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import CFGError
from repro.ir.instructions import Opcode
from repro.ir.program import Program
from repro.cfg.graph import strongly_connected_components
from repro.cfg.reconstruct import ControlFlowHints


@dataclass(frozen=True)
class CallSite:
    """One call instruction in the program."""

    caller: str
    callee: str
    address: int
    indirect: bool = False


@dataclass
class CallGraph:
    """Directed graph of functions with call-site metadata."""

    entry: str
    nodes: Set[str] = field(default_factory=set)
    edges: Dict[str, Set[str]] = field(default_factory=dict)
    call_sites: List[CallSite] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def callees(self, function: str) -> Set[str]:
        return set(self.edges.get(function, set()))

    def callers(self, function: str) -> Set[str]:
        return {
            caller for caller, callees in self.edges.items() if function in callees
        }

    def call_sites_in(self, function: str) -> List[CallSite]:
        return [site for site in self.call_sites if site.caller == function]

    def reachable_from(self, function: Optional[str] = None) -> Set[str]:
        """Functions transitively reachable from ``function`` (default: entry)."""
        start = function or self.entry
        seen: Set[str] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.edges.get(node, ()))
        return seen

    def strongly_connected_components(self) -> List[Set[str]]:
        """All SCCs of the call graph (singletons included), in Tarjan order.

        Tarjan's algorithm emits components in reverse topological order of the
        condensation, i.e. callees before callers — exactly the bottom-up
        processing order the WCET analyzer needs even when recursion cycles are
        present.  Names and each function's callees are visited sorted.
        """
        return strongly_connected_components(
            sorted(self.nodes), lambda name: sorted(self.edges.get(name, ()))
        )


def build_callgraph(
    program: Program, hints: Optional[ControlFlowHints] = None
) -> CallGraph:
    """Build the call graph of ``program``.

    Indirect call sites are resolved through ``hints``
    (:class:`~repro.cfg.reconstruct.ControlFlowHints`); one without a hint
    raises :class:`CFGError`, because an unresolved function pointer leaves no
    WCET bound at all (a tier-one challenge).
    """
    program.ensure_layout()
    hints = hints or ControlFlowHints()
    graph = CallGraph(entry=program.entry, nodes=set(program.functions))
    for name in program.functions:
        graph.edges.setdefault(name, set())

    for name, function in program.functions.items():
        for instr in function.instructions:
            if instr.opcode is Opcode.CALL:
                callee = instr.call_target()
                if callee not in program.functions:
                    raise CFGError(
                        f"{name} calls undefined function {callee!r}"
                    )
                graph.edges[name].add(callee)
                graph.call_sites.append(
                    CallSite(caller=name, callee=callee, address=instr.address)
                )
            elif instr.opcode is Opcode.ICALL:
                targets = hints.call_targets(instr.address)
                if targets is None:
                    raise CFGError(
                        f"{name}: indirect call at {instr.address:#x} has no "
                        "callee hints (unresolved function pointer)"
                    )
                for callee in targets:
                    if callee not in program.functions:
                        raise CFGError(
                            f"indirect call hint at {instr.address:#x} targets "
                            f"undefined function {callee!r}"
                        )
                    graph.edges[name].add(callee)
                    graph.call_sites.append(
                        CallSite(
                            caller=name,
                            callee=callee,
                            address=instr.address,
                            indirect=True,
                        )
                    )
    return graph
