"""Memory map: modules with individual access latencies.

The paper's "imprecise memory accesses" discussion hinges on the fact that an
access whose address is unknown must be charged with the latency of the
*slowest* memory module it might hit, and that memory-mapped device regions
(CAN/FlexRay controllers) are typically much slower than internal RAM.  The
:class:`MemoryMap` encodes exactly that: given the abstract address interval of
an access it returns the set of modules possibly touched and the worst-case /
best-case latency over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TimingAnalysisError
from repro.analysis.domains.interval import Interval
from repro.ir import program as ir_program


@dataclass(frozen=True)
class MemoryModule:
    """One address range with fixed access latencies (in cycles)."""

    name: str
    base: int
    size: int
    read_latency: int
    write_latency: int
    #: Whether accesses to this module go through the data cache.
    cached: bool = True

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def overlaps(self, interval: Interval) -> bool:
        if interval.is_bottom:
            return False
        module_range = Interval(self.base, self.end - 1)
        return not module_range.meet(interval).is_bottom

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: [{self.base:#010x}, {self.end:#010x}) "
            f"read={self.read_latency} write={self.write_latency} "
            f"{'cached' if self.cached else 'uncached'}"
        )


class MemoryMap:
    """An ordered collection of non-overlapping memory modules."""

    def __init__(self, modules: Sequence[MemoryModule]):
        self.modules: Tuple[MemoryModule, ...] = tuple(sorted(modules, key=lambda m: m.base))
        self._latency_memo: Dict[Tuple[Interval, bool], Tuple[int, int, bool]] = {}
        for first, second in zip(self.modules, self.modules[1:]):
            if first.end > second.base:
                raise TimingAnalysisError(
                    f"memory modules {first.name!r} and {second.name!r} overlap"
                )
        if not self.modules:
            raise TimingAnalysisError("memory map must contain at least one module")

    # ------------------------------------------------------------------ #
    def module_for(self, address: int) -> Optional[MemoryModule]:
        for module in self.modules:
            if module.contains(address):
                return module
        return None

    def module_named(self, name: str) -> MemoryModule:
        for module in self.modules:
            if module.name == name:
                return module
        raise TimingAnalysisError(f"no memory module named {name!r}")

    def modules_for_interval(self, interval: Interval) -> List[MemoryModule]:
        """All modules an access with the given address interval may touch.

        A top (unknown) interval matches every module — the worst case the
        paper describes for unknown pointers.
        """
        if interval.is_bottom:
            return []
        if interval.is_top:
            return list(self.modules)
        return [module for module in self.modules if module.overlaps(interval)]

    # ------------------------------------------------------------------ #
    def latency_bounds(
        self, interval: Interval, is_load: bool
    ) -> Tuple[int, int, bool]:
        """Return ``(best, worst, may_be_cached)`` latency for an access.

        ``worst`` is the maximum latency over all modules possibly touched
        (what the WCET analysis charges); ``best`` the minimum (for BCET);
        ``may_be_cached`` is False only if *no* possibly-touched module is
        cached, in which case the cache analysis ignores the access.
        Memoised per ``(interval, is_load)``: the modules never change.
        """
        key = (interval, is_load)
        bounds = self._latency_memo.get(key)
        if bounds is not None:
            return bounds
        modules = self.modules_for_interval(interval)
        if not modules:
            # An infeasible access contributes nothing.
            bounds = 0, 0, False
        else:
            if is_load:
                latencies = [module.read_latency for module in modules]
            else:
                latencies = [module.write_latency for module in modules]
            may_be_cached = any(module.cached for module in modules)
            bounds = min(latencies), max(latencies), may_be_cached
        self._latency_memo[key] = bounds
        return bounds

    def slowest_module(self) -> MemoryModule:
        return max(self.modules, key=lambda m: max(m.read_latency, m.write_latency))

    def __iter__(self):
        return iter(self.modules)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "\n".join(str(module) for module in self.modules)


# --------------------------------------------------------------------------- #
# Standard maps
# --------------------------------------------------------------------------- #
def default_memory_map(
    ram_read: int = 2,
    ram_write: int = 2,
    flash_read: int = 6,
    device_read: int = 20,
    device_write: int = 20,
) -> MemoryMap:
    """Memory map matching the default program layout of :mod:`repro.ir.program`.

    * code resides in flash (read-only, slower than RAM),
    * static data, stack and heap reside in internal RAM,
    * the device region models memory-mapped I/O controllers: slow and
      uncached (so every access pays the full latency).
    """
    return MemoryMap(
        [
            MemoryModule(
                name="flash",
                base=ir_program.CODE_BASE,
                size=0x0010_0000,
                read_latency=flash_read,
                write_latency=flash_read,
                cached=True,
            ),
            MemoryModule(
                name="ram",
                base=ir_program.DATA_BASE,
                size=0x0100_0000,
                read_latency=ram_read,
                write_latency=ram_write,
                cached=True,
            ),
            MemoryModule(
                name="stack",
                base=ir_program.STACK_TOP - ir_program.STACK_SIZE,
                size=ir_program.STACK_SIZE + 0x10,
                read_latency=ram_read,
                write_latency=ram_write,
                cached=True,
            ),
            MemoryModule(
                name="heap",
                base=ir_program.HEAP_BASE,
                size=ir_program.HEAP_SIZE,
                read_latency=ram_read + 2,
                write_latency=ram_write + 2,
                cached=True,
            ),
            MemoryModule(
                name="device",
                base=ir_program.DEVICE_BASE,
                size=ir_program.DEVICE_SIZE,
                read_latency=device_read,
                write_latency=device_write,
                cached=False,
            ),
        ]
    )
