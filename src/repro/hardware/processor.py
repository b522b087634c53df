"""Processor configurations bundling pipeline latencies, caches and memory map.

The presets are *inspired by* (not cycle-accurate models of) the platforms the
paper mentions:

* :func:`leon2_like` — the LEON2 of the COLA project: instruction + data cache,
  moderate memory latencies;
* :func:`mpc5554_like` — the Freescale MPC5554: instruction cache only, slow
  flash, single-precision FPU (double-precision work falls back to software
  arithmetic, which is what the lDivMod/soft-float study exercises);
* :func:`hcs12x_like` — the Freescale HCS12X targeted by the CodeWarrior
  lDivMod routine: no caches, uniform memory;
* :func:`simple_scalar` — an idealised unit-latency machine used by tests and
  by experiments that want to isolate path-analysis effects from
  micro-architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.hardware.cache import CacheConfig
from repro.hardware.memory import MemoryMap, default_memory_map
from repro.ir.instructions import OpClass


@dataclass(frozen=True)
class ProcessorConfig:
    """Everything the timing analysis needs to know about the platform."""

    name: str
    #: Base execution cycles per opcode class (excluding memory/fetch time).
    op_latencies: Dict[OpClass, int]
    #: Extra cycles charged when a control transfer is (or may be) taken.
    branch_penalty: int
    memory_map: MemoryMap
    icache: Optional[CacheConfig] = None
    dcache: Optional[CacheConfig] = None
    #: Cycles for an instruction fetch that hits the instruction cache
    #: (or for every fetch if there is no instruction cache but code memory is
    #: fast; without a cache the code-memory latency is always charged).
    icache_hit_cycles: int = 1
    #: Cycles for a data access that hits the data cache.
    dcache_hit_cycles: int = 1

    def latency_of(self, op_class: OpClass) -> int:
        return self.op_latencies[op_class]

    def without_caches(self) -> "ProcessorConfig":
        return replace(self, icache=None, dcache=None)

    def code_fetch_latency(self) -> int:
        """Worst-case latency of fetching one instruction from code memory."""
        # Code lives in the module that contains the code base address.
        from repro.ir.program import CODE_BASE

        module = self.memory_map.module_for(CODE_BASE)
        if module is None:
            return max(m.read_latency for m in self.memory_map)
        return module.read_latency


_DEFAULT_LATENCIES: Dict[OpClass, int] = {
    OpClass.ALU: 1,
    OpClass.MUL: 2,
    OpClass.DIV: 12,
    OpClass.FPU: 4,
    OpClass.LOAD: 1,   # address generation; memory latency is added separately
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.CALL: 2,
    OpClass.RETURN: 2,
    OpClass.SYSTEM: 1,
}


def simple_scalar(name: str = "simple-scalar") -> ProcessorConfig:
    """Idealised uncached machine with unit memory latency (for clean tests)."""
    return ProcessorConfig(
        name=name,
        op_latencies=dict(_DEFAULT_LATENCIES),
        branch_penalty=1,
        memory_map=default_memory_map(
            ram_read=1, ram_write=1, flash_read=1, device_read=1, device_write=1
        ),
        icache=None,
        dcache=None,
        icache_hit_cycles=1,
        dcache_hit_cycles=1,
    )


def leon2_like() -> ProcessorConfig:
    """LEON2-flavoured configuration: I+D caches, moderate memory latencies."""
    return ProcessorConfig(
        name="leon2-like",
        op_latencies=dict(_DEFAULT_LATENCIES),
        branch_penalty=2,
        memory_map=default_memory_map(
            ram_read=4, ram_write=4, flash_read=8, device_read=24, device_write=24
        ),
        icache=CacheConfig(name="icache", num_sets=64, associativity=2, line_size=16),
        dcache=CacheConfig(name="dcache", num_sets=32, associativity=2, line_size=16),
        icache_hit_cycles=1,
        dcache_hit_cycles=1,
    )


def mpc5554_like() -> ProcessorConfig:
    """MPC5554-flavoured configuration: unified cache modelled as I-cache only,
    slow flash, no data cache."""
    return ProcessorConfig(
        name="mpc5554-like",
        op_latencies={
            **_DEFAULT_LATENCIES,
            OpClass.DIV: 14,
            OpClass.FPU: 5,
        },
        branch_penalty=3,
        memory_map=default_memory_map(
            ram_read=3, ram_write=3, flash_read=10, device_read=32, device_write=32
        ),
        icache=CacheConfig(name="icache", num_sets=128, associativity=4, line_size=32),
        dcache=None,
        icache_hit_cycles=1,
        dcache_hit_cycles=1,
    )


def hcs12x_like() -> ProcessorConfig:
    """HCS12X-flavoured configuration: no caches, uniform slow-ish memory,
    expensive division (the platform of the lDivMod case study)."""
    return ProcessorConfig(
        name="hcs12x-like",
        op_latencies={
            **_DEFAULT_LATENCIES,
            OpClass.MUL: 3,
            OpClass.DIV: 20,
            OpClass.FPU: 30,   # no FPU: float operations trap to software
        },
        branch_penalty=1,
        memory_map=default_memory_map(
            ram_read=2, ram_write=2, flash_read=3, device_read=16, device_write=16
        ),
        icache=None,
        dcache=None,
        icache_hit_cycles=1,
        dcache_hit_cycles=1,
    )
