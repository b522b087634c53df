"""Control-flow graph data structures.

A :class:`ControlFlowGraph` is per-function: its nodes are
:class:`BasicBlock` objects identified by the address of their first
instruction, plus two virtual nodes :data:`ENTRY` and :data:`EXIT` used by
analyses (dominators, IPET) that need unique source/sink nodes.

:func:`strongly_connected_components` is the one SCC pass of the decoding
phase: the call graph's recursion cycles and the CFG's irreducible cycles
both come from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple, TypeVar

from repro.errors import CFGError
from repro.ir.instructions import Instruction, Opcode

#: Identifier of the virtual entry node.
ENTRY = -1
#: Identifier of the virtual exit node.
EXIT = -2

Node = TypeVar("Node")


class EdgeKind(enum.Enum):
    """Classification of CFG edges."""

    FALLTHROUGH = "fallthrough"   # sequential flow into the next block
    TAKEN = "taken"               # conditional/unconditional branch taken
    INDIRECT = "indirect"         # resolved target of an indirect branch
    ENTRY = "entry"               # virtual entry edge
    EXIT = "exit"                 # virtual exit edge (after ret/halt)


@dataclass(frozen=True)
class Edge:
    """A directed CFG edge between two block identifiers."""

    source: int
    target: int
    kind: EdgeKind = EdgeKind.FALLTHROUGH

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{_node_name(self.source)} -> {_node_name(self.target)} [{self.kind.value}]"


def _node_name(node: int) -> str:
    if node == ENTRY:
        return "ENTRY"
    if node == EXIT:
        return "EXIT"
    return f"{node:#x}"


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence.

    The block identifier is the address of its first instruction.
    """

    start_address: int
    instructions: List[Instruction] = field(default_factory=list)
    function_name: str = ""

    @property
    def id(self) -> int:
        return self.start_address

    @property
    def end_address(self) -> int:
        """Address one past the last instruction."""
        if not self.instructions:
            return self.start_address
        return self.instructions[-1].address + 4

    @property
    def last(self) -> Instruction:
        return self.instructions[-1]

    @property
    def size(self) -> int:
        return len(self.instructions)

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def call_targets(self) -> List[str]:
        """Direct call targets appearing in this block, in order."""
        return [
            instr.call_target()
            for instr in self.instructions
            if instr.opcode is Opcode.CALL
        ]

    def call_sites(self) -> List[Instruction]:
        """All (direct and indirect) call instructions of this block."""
        return [instr for instr in self.instructions if instr.is_call]

    def addresses(self) -> List[int]:
        return [instr.address for instr in self.instructions]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.instructions[0].label if self.instructions else None
        head = f"block {self.start_address:#x}"
        if label:
            head += f" ({label})"
        return head

    def __len__(self) -> int:
        return len(self.instructions)


class ControlFlowGraph:
    """Per-function control-flow graph."""

    def __init__(self, function_name: str, entry_block: int):
        self.function_name = function_name
        self.entry_block = entry_block
        self._blocks: Dict[int, BasicBlock] = {}
        self._successors: Dict[int, List[Edge]] = {ENTRY: [], EXIT: []}
        self._predecessors: Dict[int, List[Edge]] = {ENTRY: [], EXIT: []}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.id in self._blocks:
            raise CFGError(f"duplicate basic block at {block.id:#x}")
        self._blocks[block.id] = block
        self._successors.setdefault(block.id, [])
        self._predecessors.setdefault(block.id, [])
        return block

    def add_edge(self, source: int, target: int, kind: EdgeKind) -> Edge:
        for existing in self._successors.get(source, []):
            if existing.target == target:
                return existing
        edge = Edge(source, target, kind)
        self._successors.setdefault(source, []).append(edge)
        self._predecessors.setdefault(target, []).append(edge)
        return edge

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def blocks(self) -> Dict[int, BasicBlock]:
        return dict(self._blocks)

    def block(self, block_id: int) -> BasicBlock:
        try:
            return self._blocks[block_id]
        except KeyError as exc:
            raise CFGError(
                f"no basic block {block_id:#x} in function {self.function_name!r}"
            ) from exc

    def has_block(self, block_id: int) -> bool:
        return block_id in self._blocks

    def block_containing(self, address: int) -> BasicBlock:
        """The basic block containing the instruction at ``address``."""
        for block in self._blocks.values():
            if block.start_address <= address < block.end_address:
                return block
        raise CFGError(
            f"no basic block contains address {address:#x} "
            f"in function {self.function_name!r}"
        )

    def node_ids(self, include_virtual: bool = False) -> List[int]:
        ids = sorted(self._blocks)
        if include_virtual:
            return [ENTRY] + ids + [EXIT]
        return ids

    def successors(self, node: int) -> List[int]:
        return [edge.target for edge in self._successors.get(node, [])]

    def predecessors(self, node: int) -> List[int]:
        return [edge.source for edge in self._predecessors.get(node, [])]

    def out_edges(self, node: int) -> List[Edge]:
        return list(self._successors.get(node, []))

    def edges(self) -> List[Edge]:
        result: List[Edge] = []
        for edges in self._successors.values():
            result.extend(edges)
        return result

    def edge(self, source: int, target: int) -> Edge:
        for candidate in self._successors.get(source, []):
            if candidate.target == target:
                return candidate
        raise CFGError(
            f"no edge {_node_name(source)} -> {_node_name(target)} in "
            f"function {self.function_name!r}"
        )

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def num_edges(self) -> int:
        return sum(len(edges) for edges in self._successors.values())

    def exit_blocks(self) -> List[int]:
        """Blocks with an edge to the virtual exit node."""
        return [edge.source for edge in self._predecessors.get(EXIT, [])]

    # ------------------------------------------------------------------ #
    # Traversals
    # ------------------------------------------------------------------ #
    def reachable_from_entry(self) -> Set[int]:
        """Block ids reachable from the virtual entry node."""
        seen: Set[int] = set()
        stack = [ENTRY]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.successors(node))
        seen.discard(ENTRY)
        seen.discard(EXIT)
        return seen

    def reverse_postorder(self) -> List[int]:
        """Reverse postorder of real blocks reachable from entry."""
        visited: Set[int] = set()
        order: List[int] = []

        def visit(node: int) -> None:
            stack: List[Tuple[int, Iterator[int]]] = [(node, iter(self.successors(node)))]
            visited.add(node)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for successor in successors:
                    if successor not in visited and successor not in (EXIT,):
                        visited.add(successor)
                        stack.append((successor, iter(self.successors(successor))))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    if current not in (ENTRY, EXIT):
                        order.append(current)

        visit(ENTRY)
        order.reverse()
        return order

    # ------------------------------------------------------------------ #
    def to_dot(self) -> str:
        """Graphviz rendering (for documentation / debugging)."""
        lines = [f'digraph "{self.function_name}" {{']
        lines.append('  entry [shape=circle, label="entry"];')
        lines.append('  exit [shape=doublecircle, label="exit"];')
        for block in self._blocks.values():
            text = "\\l".join(str(i) for i in block.instructions) + "\\l"
            lines.append(f'  "b{block.id:#x}" [shape=box, label="{text}"];')
        for edge in self.edges():
            src = "entry" if edge.source == ENTRY else f'"b{edge.source:#x}"'
            dst = "exit" if edge.target == EXIT else f'"b{edge.target:#x}"'
            lines.append(f"  {src} -> {dst} [label=\"{edge.kind.value}\"];")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ControlFlowGraph({self.function_name!r}, blocks={self.num_blocks}, "
            f"edges={self.num_edges})"
        )


def strongly_connected_components(
    roots: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> List[Set[Node]]:
    """Tarjan's strongly connected components, iteratively.

    Roots are visited in the order given and each node's successors in the
    order ``successors`` returns them, so the result is deterministic for a
    deterministic caller.  Components are emitted in reverse topological
    order of the condensation: a component comes after every component it
    reaches (callees before callers on a call graph).
    """
    counter = 0
    stack: List[Node] = []
    lowlink: Dict[Node, int] = {}
    index: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    result: List[Set[Node]] = []

    for root in roots:
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, pending = work[-1]
            advanced = False
            for succ in pending:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: Set[Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                result.append(component)
    return result
