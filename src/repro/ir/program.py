"""Programs, functions and data objects of the repro IR.

A :class:`Program` is the unit the WCET analyzer works on — the moral
equivalent of the "input executable" in Figure 1 of the paper.  It owns

* a set of :class:`Function` objects (the code segment),
* a set of :class:`DataObject` objects (the data segment), and
* an address layout: every instruction and data object gets a byte address in
  a flat 32-bit address space so the cache and memory-map analyses can reason
  about concrete addresses.

The default layout places code at :data:`CODE_BASE`, data at
:data:`DATA_BASE` and reserves a descending stack starting at
:data:`STACK_TOP`; memory-mapped device regions can be added on top of that by
the hardware model (:mod:`repro.hardware.memory`).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import IRError
from repro.ir.instructions import (
    INSTRUCTION_SIZE,
    Instruction,
    Opcode,
    validate_instruction,
)

#: Base address of the code segment.
CODE_BASE = 0x0000_1000
#: Base address of the static data segment.
DATA_BASE = 0x2000_0000
#: Initial stack pointer (stack grows towards lower addresses).
STACK_TOP = 0x3FFF_FFF0
#: Size of the stack region in bytes.
STACK_SIZE = 0x0010_0000
#: Base address of the heap region used by the (MISRA-discouraged) allocator.
HEAP_BASE = 0x4000_0000
#: Size of the heap region in bytes.
HEAP_SIZE = 0x0010_0000
#: Base address of the memory-mapped device region (CAN/FlexRay controllers...).
DEVICE_BASE = 0x8000_0000
#: Size of the memory-mapped device region.
DEVICE_SIZE = 0x0001_0000

WORD_SIZE = 4


@dataclass
class DataObject:
    """A statically allocated data object (global variable, buffer, table).

    Attributes
    ----------
    name:
        Symbol name.
    size:
        Size in bytes (word aligned by the layout).
    initial:
        Optional initial word values (missing words are zero).
    region:
        Logical region name; ``"data"`` objects live in RAM, ``"device"``
        objects are placed in the memory-mapped I/O region (slow, uncached) —
        this is how the "imprecise memory accesses" experiment of Section 4.3
        distinguishes fast and slow memory.
    readonly:
        Whether the object models constant data (e.g. lookup tables).
    address:
        Assigned base address after layout (-1 before).
    """

    name: str
    size: int
    initial: Tuple[int, ...] = ()
    region: str = "data"
    readonly: bool = False
    address: int = -1

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise IRError(f"data object {self.name!r} must have positive size")
        # Word-align the size so layout arithmetic stays simple.
        if self.size % WORD_SIZE:
            self.size += WORD_SIZE - (self.size % WORD_SIZE)
        self.initial = tuple(self.initial)
        if len(self.initial) * WORD_SIZE > self.size:
            raise IRError(
                f"data object {self.name!r}: {len(self.initial)} initial words "
                f"do not fit into {self.size} bytes"
            )

    @property
    def end_address(self) -> int:
        """First byte address past the object (valid after layout)."""
        return self.address + self.size

    def contains(self, address: int) -> bool:
        """True if ``address`` falls inside this object (after layout)."""
        return self.address <= address < self.end_address


@dataclass
class Function:
    """A function: a named, contiguous sequence of instructions.

    The instruction list is laid out contiguously in the code segment; the
    entry point is the first instruction.  Labels are local to the function.
    """

    name: str
    instructions: List[Instruction] = field(default_factory=list)
    #: Number of formal parameters (metadata used by the call-graph and the
    #: guideline checker; the calling convention passes them in r3..r10).
    num_params: int = 0
    #: True if the function was produced from a variadic mini-C declaration.
    variadic: bool = False
    #: Source file / provenance note.
    source: str = ""
    #: Entry address after layout.
    entry_address: int = -1

    def __post_init__(self) -> None:
        if not self.name:
            raise IRError("function must have a name")

    # ------------------------------------------------------------------ #
    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @property
    def size(self) -> int:
        """Size of the function body in bytes."""
        return len(self.instructions) * INSTRUCTION_SIZE

    @property
    def end_address(self) -> int:
        return self.entry_address + self.size

    def labels(self) -> Dict[str, int]:
        """Map from label name to instruction index."""
        result: Dict[str, int] = {}
        for index, instr in enumerate(self.instructions):
            if instr.label:
                if instr.label in result:
                    raise IRError(
                        f"duplicate label {instr.label!r} in function {self.name!r}"
                    )
                result[instr.label] = index
        return result

    def label_addresses(self) -> Dict[str, int]:
        """Map from label name to instruction address (after layout)."""
        return {
            label: self.instructions[index].address
            for label, index in self.labels().items()
        }

    def instruction_at(self, address: int) -> Instruction:
        """Return the instruction located at ``address``.

        Raises :class:`IRError` if the address is not inside this function.
        """
        if self.entry_address < 0:
            raise IRError(f"function {self.name!r} has not been laid out")
        offset = address - self.entry_address
        if offset < 0 or offset % INSTRUCTION_SIZE or offset >= self.size:
            raise IRError(
                f"address {address:#x} is not an instruction of {self.name!r}"
            )
        return self.instructions[offset // INSTRUCTION_SIZE]

    def validate(self) -> None:
        """Validate all instructions and branch-target labels."""
        labels = self.labels()
        for instr in self.instructions:
            validate_instruction(instr)
            target = instr.branch_target()
            if target is not None and target not in labels:
                raise IRError(
                    f"function {self.name!r}: branch to undefined label {target!r}"
                )
        if self.instructions:
            last = self.instructions[-1]
            if not last.is_terminator:
                raise IRError(
                    f"function {self.name!r} does not end in a terminator "
                    f"(found {last.opcode.value!r})"
                )


class Program:
    """A complete IR program: functions plus data objects plus layout.

    Parameters
    ----------
    entry:
        Name of the entry function (the "task" analysed for its WCET — the
        paper notes a task usually corresponds to a specific entry point of
        the analysed executable).
    """

    def __init__(self, entry: str = "main"):
        self.entry = entry
        self._functions: Dict[str, Function] = {}
        self._data: Dict[str, DataObject] = {}
        self._laid_out = False
        self._validated = False
        # Address indexes (built by layout): O(1)/O(log n) lookups on the
        # paths the interpreter and trace timer hit once per executed
        # instruction.
        self._instr_index: Dict[int, Instruction] = {}
        self._function_starts: List[int] = []
        self._functions_in_order: List[Function] = []
        self._function_by_entry: Dict[int, Function] = {}
        self._data_starts: List[int] = []
        self._data_in_order: List[DataObject] = []
        self._symbol_addresses: Dict[str, int] = {}
        self._content_digest: Optional[str] = None
        #: Decoded forms (:mod:`repro.cfg.decode`) by hints and strictness.
        self._decoded: Dict[tuple, object] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_function(self, function: Function) -> Function:
        if function.name in self._functions:
            raise IRError(f"duplicate function {function.name!r}")
        self._functions[function.name] = function
        self._laid_out = False
        self._validated = False
        self._content_digest = None
        self._decoded = {}
        return function

    def add_data(self, data: DataObject) -> DataObject:
        if data.name in self._data:
            raise IRError(f"duplicate data object {data.name!r}")
        self._data[data.name] = data
        self._laid_out = False
        self._validated = False
        self._content_digest = None
        self._decoded = {}
        return data

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def functions(self) -> Dict[str, Function]:
        return dict(self._functions)

    @property
    def data_objects(self) -> Dict[str, DataObject]:
        return dict(self._data)

    def function(self, name: str) -> Function:
        try:
            return self._functions[name]
        except KeyError as exc:
            raise IRError(f"unknown function {name!r}") from exc

    def has_function(self, name: str) -> bool:
        return name in self._functions

    def data(self, name: str) -> DataObject:
        try:
            return self._data[name]
        except KeyError as exc:
            raise IRError(f"unknown data object {name!r}") from exc

    def has_data(self, name: str) -> bool:
        return name in self._data

    def symbol_address(self, name: str) -> int:
        """Address of a function or data symbol (after layout)."""
        self.ensure_layout()
        address = self._symbol_addresses.get(name)
        if address is None:
            raise IRError(f"unknown symbol {name!r}")
        return address

    def function_at(self, address: int) -> Function:
        """Function containing the given code address."""
        self.ensure_layout()
        index = bisect_right(self._function_starts, address) - 1
        if index >= 0:
            function = self._functions_in_order[index]
            if function.entry_address <= address < function.end_address:
                return function
        raise IRError(f"no function contains address {address:#x}")

    def function_by_entry(self, address: int) -> Optional[Function]:
        """Function whose entry point is exactly ``address`` (or ``None``)."""
        self.ensure_layout()
        return self._function_by_entry.get(address)

    def data_object_at(self, address: int) -> Optional[DataObject]:
        """Data object containing ``address`` (or ``None``)."""
        self.ensure_layout()
        index = bisect_right(self._data_starts, address) - 1
        if index >= 0:
            obj = self._data_in_order[index]
            if obj.contains(address):
                return obj
        return None

    def instruction_at(self, address: int) -> Instruction:
        self.ensure_layout()
        instruction = self._instr_index.get(address)
        if instruction is None:
            # Slow path reproduces the precise per-case error messages.
            return self.function_at(address).instruction_at(address)
        return instruction

    def __iter__(self) -> Iterator[Function]:
        return iter(self._functions.values())

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    def layout(self) -> None:
        """Assign addresses to all instructions and data objects.

        Functions are placed back to back starting at :data:`CODE_BASE` in
        insertion order; ``data`` region objects start at :data:`DATA_BASE`
        and ``device`` region objects at :data:`DEVICE_BASE`.
        """
        address = CODE_BASE
        for function in self._functions.values():
            function.entry_address = address
            placed = []
            for instr in function.instructions:
                placed.append(instr.with_address(address))
                address += INSTRUCTION_SIZE
            function.instructions = placed

        data_address = DATA_BASE
        device_address = DEVICE_BASE
        for obj in self._data.values():
            if obj.region == "device":
                obj.address = device_address
                device_address += obj.size
            elif obj.region == "heap":
                # Heap-modelled objects are *not* given a static address: the
                # whole point of MISRA rule 20.4 is that their addresses are
                # statically unknown.  They are placed inside the heap region
                # only for the concrete interpreter.
                obj.address = HEAP_BASE + (obj.address if obj.address > 0 else 0)
            else:
                obj.address = data_address
                data_address += obj.size
        # Second pass for heap objects to pack them after each other.
        heap_address = HEAP_BASE
        for obj in self._data.values():
            if obj.region == "heap":
                obj.address = heap_address
                heap_address += obj.size

        self._build_indexes()
        self._laid_out = True

    def _build_indexes(self) -> None:
        """Address indexes for the per-instruction hot paths."""
        self._instr_index = {
            instr.address: instr
            for function in self._functions.values()
            for instr in function.instructions
        }
        ordered = sorted(self._functions.values(), key=lambda f: f.entry_address)
        self._functions_in_order = ordered
        self._function_starts = [f.entry_address for f in ordered]
        self._function_by_entry = {f.entry_address: f for f in ordered}
        data_ordered = sorted(self._data.values(), key=lambda d: d.address)
        self._data_in_order = data_ordered
        self._data_starts = [d.address for d in data_ordered]
        self._symbol_addresses = {
            name: function.entry_address for name, function in self._functions.items()
        }
        self._symbol_addresses.update(
            (name, obj.address) for name, obj in self._data.items()
        )

    def ensure_layout(self) -> None:
        if not self._laid_out:
            self.layout()

    def validate(self) -> None:
        """Validate every function and the entry point, then lay out.

        Validation is structural and the program is immutable once built (any
        ``add_function``/``add_data`` resets the flag), so repeated calls —
        one per interpreter construction in a differential sweep — are
        answered from the cached verdict.
        """
        if self._validated and self._laid_out:
            return
        for function in self._functions.values():
            function.validate()
        self._check_links()

    def _check_links(self) -> None:
        """Check the entry point and every call target, then lay out.

        The rest of :meth:`validate`, for a builder that validated each
        function as it built it.
        """
        if self.entry not in self._functions:
            raise IRError(f"entry function {self.entry!r} is not defined")
        for function in self._functions.values():
            for instr in function.instructions:
                target = instr.call_target()
                if target is not None and target not in self._functions:
                    raise IRError(
                        f"function {function.name!r} calls undefined function "
                        f"{target!r}"
                    )
        self.ensure_layout()
        self._validated = True

    def content_digest(self) -> str:
        """Stable digest of the laid-out program content.

        Covers every bit of the program the WCET analysis reads: the full
        instruction stream with assigned addresses, the data objects with
        their addresses, regions, sizes and initial values, and the entry
        point.  Two programs with equal digests are indistinguishable to the
        analyzer, which is what makes the digest safe as (part of) a
        function-summary cache key.  Computed once and cached; any
        ``add_function``/``add_data`` invalidates it.
        """
        self.ensure_layout()
        if self._content_digest is None:
            digest = hashlib.sha256()
            digest.update(f"entry {self.entry}\n".encode())
            for function in self._functions.values():
                digest.update(
                    f"F {function.name} @{function.entry_address:#x} "
                    f"params={function.num_params} variadic={function.variadic}\n".encode()
                )
                for instr in function.instructions:
                    digest.update(f"{instr.address:#x} {instr}\n".encode())
            for obj in self._data.values():
                digest.update(
                    f"D {obj.name} @{obj.address:#x} size={obj.size} "
                    f"region={obj.region} ro={obj.readonly} init={obj.initial}\n".encode()
                )
            self._content_digest = digest.hexdigest()[:32]
        return self._content_digest

    def decoded(self, key: tuple, build: Callable[[], object]) -> object:
        """The decoded form stored under ``key``, built on first request.

        The memo behind :func:`repro.cfg.decode.decode_program`.  Like the
        content digest it is reset by any ``add_function``/``add_data``, and
        a ``build`` that raises stores nothing.
        """
        decoded = self._decoded.get(key)
        if decoded is None:
            decoded = self._decoded.setdefault(key, build())
        return decoded

    # ------------------------------------------------------------------ #
    # Statistics & rendering
    # ------------------------------------------------------------------ #
    def instruction_count(self) -> int:
        return sum(len(f) for f in self._functions.values())

    def listing(self) -> str:
        """Produce a human-readable assembly listing of the whole program."""
        self.ensure_layout()
        lines: List[str] = []
        for obj in self._data.values():
            init = f" = {list(obj.initial)}" if obj.initial else ""
            lines.append(
                f".data {obj.name} {obj.size} @{obj.address:#010x} "
                f"[{obj.region}]{init}"
            )
        for function in self._functions.values():
            lines.append(f".func {function.name} @{function.entry_address:#010x}")
            for instr in function.instructions:
                lines.append(f"    {instr.address:#010x}: {instr}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Program(entry={self.entry!r}, functions={len(self._functions)}, "
            f"data={len(self._data)}, instructions={self.instruction_count()})"
        )
