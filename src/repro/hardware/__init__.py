"""Execution-platform timing model (the cache/pipeline phase of Figure 1).

The paper's arguments about software structure only become measurable numbers
once instruction timing depends on machine state — caches, memory modules with
different latencies, pipeline effects.  This package provides:

* :mod:`repro.hardware.memory` — a memory map of modules with individual
  read/write latencies (fast SRAM, slower flash, uncached device regions);
* :mod:`repro.hardware.cache` — concrete LRU caches used to replay execution
  traces from the interpreter (the "measurement" side);
* :mod:`repro.hardware.cache_analysis` — abstract LRU must/may cache analysis
  used by the static WCET analyzer (the "guarantee" side);
* :mod:`repro.hardware.pipeline` — a simple in-order pipeline cost model that
  turns instruction sequences into cycle counts;
* :mod:`repro.hardware.processor` — named processor configurations (LEON2-like,
  MPC5554-like, HCS12X-like) used throughout the tests and perfbench.
"""

from repro.hardware.memory import MemoryMap, MemoryModule
from repro.hardware.cache import CacheConfig, LRUCacheSimulator, CacheStatistics
from repro.hardware.cache_analysis import (
    CacheClassification,
    InstructionCacheAnalysis,
    DataCacheAnalysis,
    MustMayCacheState,
)
from repro.hardware.pipeline import PipelineModel, BlockTimeBounds, TraceTimer
from repro.hardware.processor import (
    ProcessorConfig,
    simple_scalar,
    leon2_like,
    mpc5554_like,
    hcs12x_like,
)

__all__ = [
    "MemoryMap",
    "MemoryModule",
    "CacheConfig",
    "LRUCacheSimulator",
    "CacheStatistics",
    "CacheClassification",
    "InstructionCacheAnalysis",
    "DataCacheAnalysis",
    "MustMayCacheState",
    "PipelineModel",
    "BlockTimeBounds",
    "TraceTimer",
    "ProcessorConfig",
    "simple_scalar",
    "leon2_like",
    "mpc5554_like",
    "hcs12x_like",
]
