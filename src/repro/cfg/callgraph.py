"""Interprocedural call graph construction and recursion detection.

MISRA-C rule 16.2 forbids direct and indirect recursion because recursive call
cycles play the same role in the call graph that irreducible loops play in the
CFG: without additional (manual) bounds no WCET can be computed.  The
:class:`CallGraph` built here detects such cycles and reports them; the WCET
analyzer refuses to analyse recursive programs unless a recursion bound
annotation is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import CFGError
from repro.ir.instructions import Instruction, Opcode
from repro.ir.program import Program
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
    unresolved_calls: List[Tuple[str, int]] = field(default_factory=list)

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

    # ------------------------------------------------------------------ #
    # Recursion
    # ------------------------------------------------------------------ #
    def recursive_cycles(self) -> List[List[str]]:
        """All elementary recursion cycles (as lists of function names).

        Self-recursion yields single-element cycles; mutual recursion yields
        the strongly connected component members.
        """
        cycles: List[List[str]] = []
        for component in self._sccs():
            if len(component) > 1:
                cycles.append(sorted(component))
            else:
                (only,) = component
                if only in self.edges.get(only, set()):
                    cycles.append([only])
        return cycles

    def recursive_functions(self) -> Set[str]:
        result: Set[str] = set()
        for cycle in self.recursive_cycles():
            result.update(cycle)
        return result

    @property
    def has_recursion(self) -> bool:
        return bool(self.recursive_cycles())

    def strongly_connected_components(self) -> List[Set[str]]:
        """All SCCs of the call graph (singletons included), in Tarjan order.

        Tarjan's algorithm emits components in reverse topological order of the
        condensation, i.e. callees before callers — exactly the bottom-up
        processing order the WCET analyzer needs even when recursion cycles are
        present.
        """
        return self._sccs()

    def _sccs(self) -> List[Set[str]]:
        index_counter = [0]
        stack: List[str] = []
        lowlink: Dict[str, int] = {}
        index: Dict[str, int] = {}
        on_stack: Set[str] = set()
        result: List[Set[str]] = []

        def strongconnect(root: str) -> None:
            work = [(root, iter(sorted(self.edges.get(root, ()))))]
            index[root] = lowlink[root] = index_counter[0]
            index_counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = lowlink[succ] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(self.edges.get(succ, ())))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if not advanced:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        lowlink[parent] = min(lowlink[parent], lowlink[node])
                    if lowlink[node] == index[node]:
                        component: Set[str] = set()
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.add(member)
                            if member == node:
                                break
                        result.append(component)

        for node in sorted(self.nodes):
            if node not in index:
                strongconnect(node)
        return result

    # ------------------------------------------------------------------ #
    # Orderings
    # ------------------------------------------------------------------ #
    def bottom_up_order(self) -> List[str]:
        """Functions ordered callees-before-callers (requires no recursion).

        The WCET analyzer uses this order to compute callee WCETs before the
        functions that call them.  Raises :class:`CFGError` if the call graph
        contains a recursion cycle.
        """
        cycles = self.recursive_cycles()
        if cycles:
            raise CFGError(
                "call graph contains recursion cycles: "
                + "; ".join(" -> ".join(cycle) for cycle in cycles)
            )
        visited: Set[str] = set()
        order: List[str] = []

        def visit(node: str) -> None:
            stack: List[Tuple[str, List[str]]] = [
                (node, sorted(self.edges.get(node, ())))
            ]
            pending: Set[str] = {node}
            while stack:
                current, callees = stack[-1]
                advanced = False
                while callees:
                    callee = callees.pop()
                    if callee not in visited and callee not in pending:
                        pending.add(callee)
                        stack.append((callee, sorted(self.edges.get(callee, ()))))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    pending.discard(current)
                    if current not in visited:
                        visited.add(current)
                        order.append(current)

        for node in sorted(self.nodes):
            if node not in visited:
                visit(node)
        return order

    def max_call_depth(self, function: Optional[str] = None) -> int:
        """Longest call chain from ``function`` (default entry); recursion -> -1."""
        if self.has_recursion:
            return -1
        depth_cache: Dict[str, int] = {}

        for node in self.bottom_up_order():
            callees = self.edges.get(node, set())
            depth_cache[node] = 1 + max(
                (depth_cache[c] for c in callees), default=0
            )
        return depth_cache.get(function or self.entry, 0)


def build_callgraph(
    program: Program, hints: Optional[ControlFlowHints] = None, strict: bool = True
) -> CallGraph:
    """Build the call graph of ``program``.

    Indirect call sites are resolved through ``hints``
    (:class:`~repro.cfg.reconstruct.ControlFlowHints`); without a hint they are
    recorded in :attr:`CallGraph.unresolved_calls` (permissive mode) or raise
    :class:`CFGError` (strict mode), because an unresolved function pointer
    makes the interprocedural analysis unsound.
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
                    if strict:
                        raise CFGError(
                            f"{name}: indirect call at {instr.address:#x} has no "
                            "callee hints (unresolved function pointer)"
                        )
                    graph.unresolved_calls.append((name, instr.address))
                    continue
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
