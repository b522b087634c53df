"""In-order pipeline cost model.

Two users share the same per-instruction cost structure so that the soundness
invariant (static bound ≥ observed time) holds by construction:

* :class:`PipelineModel` computes *static* lower/upper execution-time bounds of
  a basic block, given the cache classifications and abstract access addresses
  of its instructions (this is the "Pipeline Analysis" box of Figure 1 — the
  per-block timing information handed to path analysis);
* :class:`TraceTimer` replays a concrete execution trace of the interpreter
  through concrete caches and produces the *observed* cycle count.

The cost of an instruction is::

    fetch cost  (instruction cache hit/miss or plain code-memory latency)
  + base cost   (per opcode class, from the processor configuration)
  + memory cost (data cache hit/miss and memory-module latency, for load/store)
  + branch penalty (if the instruction transfers control)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.value import AccessInfo
from repro.cfg.graph import BasicBlock
from repro.hardware.cache import CacheConfig, CacheStatistics, LRUCacheSimulator
from repro.hardware.cache_analysis import CacheClassification
from repro.hardware.processor import ProcessorConfig
from repro.ir.instructions import INSTRUCTION_SIZE, Instruction, OpClass
from repro.ir.interpreter import ExecutionTrace
from repro.ir.program import Program


@dataclass
class BlockTimeBounds:
    """Static execution-time bounds of one basic block (excluding callees)."""

    block_id: int
    wcet_cycles: int
    bcet_cycles: int
    #: breakdown of the WCET bound (for reports)
    fetch_cycles: int = 0
    compute_cycles: int = 0
    memory_cycles: int = 0
    branch_cycles: int = 0

    def __post_init__(self) -> None:
        if self.bcet_cycles > self.wcet_cycles:
            raise ValueError("block BCET bound exceeds its WCET bound")


class PipelineModel:
    """Static per-block timing model for one processor configuration."""

    def __init__(self, processor: ProcessorConfig):
        self.processor = processor
        # Configuration-derived constants, resolved once instead of per
        # instruction (code_fetch_latency/slowest_module scan the memory map).
        self._code_fetch_latency = processor.code_fetch_latency()
        slowest = processor.memory_map.slowest_module()
        self._slowest_latency = max(slowest.read_latency, slowest.write_latency)
        #: address -> (base cycles, is memory access, branch best, branch worst);
        #: all static per instruction, resolved once per model.
        self._static_parts: Dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    # Per-instruction costs
    # ------------------------------------------------------------------ #
    def base_cost(self, instruction: Instruction) -> int:
        return self.processor.latency_of(instruction.op_class)

    def fetch_cost_bounds(
        self, instruction: Instruction, icache_class: Optional[CacheClassification]
    ) -> Tuple[int, int]:
        """(best, worst) fetch cost of one instruction."""
        miss_cost = self._code_fetch_latency
        hit_cost = self.processor.icache_hit_cycles
        if self.processor.icache is None:
            return miss_cost, miss_cost
        if icache_class is CacheClassification.ALWAYS_HIT:
            return hit_cost, hit_cost
        if icache_class is CacheClassification.ALWAYS_MISS:
            return hit_cost, miss_cost  # best case stays optimistic (sound BCET)
        return hit_cost, miss_cost

    def memory_cost_bounds(
        self,
        instruction: Instruction,
        access: Optional[AccessInfo],
        dcache_class: Optional[CacheClassification],
    ) -> Tuple[int, int]:
        """(best, worst) data-memory cost of one instruction (0 if not memory)."""
        if not instruction.is_memory_access:
            return 0, 0
        if access is None:
            # Nothing known: assume the slowest module in the worst case.
            return self.processor.dcache_hit_cycles, self._slowest_latency
        best_lat, worst_lat, may_be_cached = self.processor.memory_map.latency_bounds(
            access.absolute, access.is_load
        )
        if self.processor.dcache is None or not may_be_cached:
            return best_lat, worst_lat
        hit = self.processor.dcache_hit_cycles
        if dcache_class is CacheClassification.ALWAYS_HIT:
            return hit, hit
        return min(hit, best_lat), worst_lat

    def branch_cost_bounds(self, instruction: Instruction) -> Tuple[int, int]:
        if instruction.op_class in (OpClass.BRANCH, OpClass.CALL, OpClass.RETURN):
            penalty = self.processor.branch_penalty
            # Conditional branches may fall through (no penalty) in the best case.
            best = 0 if instruction.is_conditional_branch else penalty
            return best, penalty
        return 0, 0

    # ------------------------------------------------------------------ #
    def block_time_bounds(
        self,
        block: BasicBlock,
        icache_classes: Optional[Dict[int, CacheClassification]] = None,
        dcache_classes: Optional[Dict[int, CacheClassification]] = None,
        accesses: Optional[Dict[int, AccessInfo]] = None,
    ) -> BlockTimeBounds:
        """Compute static (BCET, WCET) cycle bounds for a basic block.

        Callee execution times are *not* included: the WCET analyzer adds the
        callee bound at each call site during path analysis.
        """
        icache_classes = icache_classes or {}
        dcache_classes = dcache_classes or {}
        accesses = accesses or {}

        static_parts = self._static_parts

        wcet = bcet = 0
        fetch_total = compute_total = memory_total = branch_total = 0
        for instr in block.instructions:
            address = instr.address
            parts = static_parts.get(address)
            if parts is None:
                parts = (
                    self.base_cost(instr),
                    instr.is_memory_access,
                    *self.branch_cost_bounds(instr),
                )
                static_parts[address] = parts
            base, is_memory, branch_best, branch_worst = parts
            fetch_best, fetch_worst = self.fetch_cost_bounds(
                instr, icache_classes.get(address)
            )
            if is_memory:
                mem_best, mem_worst = self.memory_cost_bounds(
                    instr, accesses.get(address), dcache_classes.get(address)
                )
            else:
                mem_best = mem_worst = 0
            wcet += fetch_worst + base + mem_worst + branch_worst
            bcet += fetch_best + base + mem_best + branch_best
            fetch_total += fetch_worst
            compute_total += base
            memory_total += mem_worst
            branch_total += branch_worst
        return BlockTimeBounds(
            block_id=block.id,
            wcet_cycles=wcet,
            bcet_cycles=bcet,
            fetch_cycles=fetch_total,
            compute_cycles=compute_total,
            memory_cycles=memory_total,
            branch_cycles=branch_total,
        )


#: Opcode classes whose control transfer may pay the branch penalty.
_TRANSFER_CLASSES = (OpClass.BRANCH, OpClass.CALL, OpClass.RETURN)


@dataclass
class TraceTimingResult:
    """Observed execution time of one concrete run."""

    cycles: int
    instructions: int
    icache_stats: Optional[CacheStatistics] = None
    dcache_stats: Optional[CacheStatistics] = None


class TraceTimer:
    """Replay an interpreter trace through concrete caches and count cycles.

    The per-instruction *static* cost ingredients (base cost, memory-access
    and control-transfer classification, the instruction-cache line a fetch
    touches) depend only on the program and the processor.  Each address's
    row is built on its first fetch and kept in an address-indexed table;
    per-address memory-module lookups are memoised the same way.  Construct
    one timer per (processor, program) pair and call :meth:`time` for every
    trace — the concrete cache simulators are fresh per call.

    A fetch from the one line the previous fetch touched is an LRU hit that
    changes nothing (that line is already the most recently used of its
    set), so it is counted as a hit without a simulator access.
    """

    def __init__(self, processor: ProcessorConfig, program: Program):
        self.processor = processor
        self.program = program
        program.ensure_layout()
        #: address -> (base cycles, is memory access, pays transfer penalty,
        #: is conditional branch, instruction-cache line of the fetch or
        #: ``None`` when it spans several lines or there is no icache)
        self._static_costs: Dict[int, tuple] = {}
        #: data address -> (read latency, write latency, goes through dcache)
        self._module_info: Dict[int, tuple] = {}

    def _static_row(self, address: int) -> tuple:
        instr = self.program.instruction_at(address)
        op_class = instr.op_class
        icache = self.processor.icache
        fetch_line = None
        if icache is not None:
            first = icache.line_of(address)
            if icache.line_of(address + INSTRUCTION_SIZE - 1) == first:
                fetch_line = first
        row = (
            self.processor.latency_of(op_class),
            instr.is_memory_access,
            op_class in _TRANSFER_CLASSES,
            instr.is_conditional_branch,
            fetch_line,
        )
        self._static_costs[address] = row
        return row

    def _module_info_for(self, address: int) -> tuple:
        info = self._module_info.get(address)
        if info is None:
            module = self.processor.memory_map.module_for(address)
            if module is not None:
                info = (module.read_latency, module.write_latency, module.cached)
            else:
                slowest = self.processor.memory_map.slowest_module()
                worst = max(slowest.read_latency, slowest.write_latency)
                info = (worst, worst, False)
            self._module_info[address] = info
        return info

    def time(self, trace: ExecutionTrace) -> TraceTimingResult:
        processor = self.processor
        icache = LRUCacheSimulator(processor.icache) if processor.icache else None
        dcache = LRUCacheSimulator(processor.dcache) if processor.dcache else None
        code_latency = processor.code_fetch_latency()
        icache_hit_cycles = processor.icache_hit_cycles
        dcache_hit_cycles = processor.dcache_hit_cycles
        branch_penalty = processor.branch_penalty

        costs = self._static_costs
        static_row = self._static_row
        module_info = self._module_info_for

        cycles = 0
        access_index = 0
        accesses = trace.memory_accesses
        num_accesses = len(accesses)
        addresses = trace.instruction_addresses
        num_addresses = len(addresses)
        #: Line of the previous simulated fetch if it touched only that line.
        last_line = None
        same_line_hits = 0

        for position, address in enumerate(addresses):
            try:
                row = costs[address]
            except KeyError:
                row = static_row(address)
            base, is_memory, pays_transfer, is_conditional, fetch_line = row

            # --- fetch ------------------------------------------------- #
            if icache is None:
                cycles += code_latency
            elif last_line is not None and fetch_line == last_line:
                same_line_hits += 1
                cycles += icache_hit_cycles
            else:
                hit = icache.access(address, INSTRUCTION_SIZE)
                cycles += icache_hit_cycles if hit else code_latency
                last_line = fetch_line

            # --- execute ------------------------------------------------ #
            cycles += base

            # --- data memory -------------------------------------------- #
            if is_memory:
                if (
                    access_index < num_accesses
                    and accesses[access_index].instruction_address == address
                ):
                    access = accesses[access_index]
                    access_index += 1
                    read_latency, write_latency, cached = module_info(access.address)
                    latency = read_latency if access.is_load else write_latency
                    if dcache is not None and cached:
                        hit = dcache.access(access.address, access.size)
                        cycles += dcache_hit_cycles if hit else latency
                    else:
                        cycles += latency
                # else: predicated access that did not take effect — only the
                # fetch and base cost are charged.

            # --- control transfer penalty -------------------------------- #
            # Unconditional transfers (br/call/ret/ibr) always redirect the
            # fetch stream and pay the penalty, even when the target happens
            # to be the next sequential address — matching the static model,
            # which charges them unconditionally.  Conditional branches pay
            # only when they actually leave the fall-through path.
            if pays_transfer:
                taken = True
                if is_conditional and position + 1 < num_addresses:
                    taken = addresses[position + 1] != address + INSTRUCTION_SIZE
                if taken:
                    cycles += branch_penalty

        if icache is not None:
            icache.stats.hits += same_line_hits
        return TraceTimingResult(
            cycles=cycles,
            instructions=num_addresses,
            icache_stats=icache.stats if icache else None,
            dcache_stats=dcache.stats if dcache else None,
        )
