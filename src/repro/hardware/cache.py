"""Concrete set-associative LRU cache simulator.

Used to replay execution traces produced by the IR interpreter and obtain
*observed* hit/miss behaviour and execution times, the measurement-based
counterpart against which the static cache analysis
(:mod:`repro.hardware.cache_analysis`) is validated: a must-hit classification
must never correspond to an observed miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import TimingAnalysisError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a set-associative cache."""

    name: str
    num_sets: int
    associativity: int
    line_size: int

    def __post_init__(self) -> None:
        for attribute in ("num_sets", "associativity", "line_size"):
            value = getattr(self, attribute)
            if value <= 0 or value & (value - 1):
                raise TimingAnalysisError(
                    f"{self.name}: {attribute} must be a positive power of two, got {value}"
                )

    @property
    def capacity(self) -> int:
        """Total capacity in bytes."""
        return self.num_sets * self.associativity * self.line_size

    def line_of(self, address: int) -> int:
        """Aligned line address (tag + index bits) of a byte address."""
        return address // self.line_size

    def set_index(self, address: int) -> int:
        return (address // self.line_size) % self.num_sets

    def lines_touched(self, address: int, size: int) -> List[int]:
        """Line addresses touched by an access of ``size`` bytes."""
        first = self.line_of(address)
        last = self.line_of(address + max(size, 1) - 1)
        return list(range(first, last + 1))


@dataclass
class CacheStatistics:
    """Hit/miss counters of a concrete cache simulation."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStatistics") -> "CacheStatistics":
        return CacheStatistics(self.hits + other.hits, self.misses + other.misses)


class LRUCacheSimulator:
    """A concrete LRU cache: deterministic replacement, no write allocate choice
    (write-allocate, write-back is assumed, matching the abstract model)."""

    def __init__(self, config: CacheConfig):
        self.config = config
        # Each set is an ordered list of line addresses, most recent first.
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        self.stats = CacheStatistics()

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        self._sets = [[] for _ in range(self.config.num_sets)]
        self.stats = CacheStatistics()

    def contains(self, address: int) -> bool:
        line = self.config.line_of(address)
        index = self.config.set_index(address)
        return line in self._sets[index]

    def access(self, address: int, size: int = 4) -> bool:
        """Perform an access; returns True on (full) hit.

        Accesses spanning several lines count as a hit only if every line hits;
        every touched line is updated in LRU order.
        """
        all_hit = True
        for line in self.config.lines_touched(address, size):
            if not self._access_line(line):
                all_hit = False
        if all_hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return all_hit

    def _access_line(self, line: int) -> bool:
        index = line % self.config.num_sets
        cache_set = self._sets[index]
        if line in cache_set:
            cache_set.remove(line)
            cache_set.insert(0, line)
            return True
        cache_set.insert(0, line)
        if len(cache_set) > self.config.associativity:
            cache_set.pop()
        return False

    # ------------------------------------------------------------------ #
    def contents(self) -> Dict[int, List[int]]:
        """Current contents per set (most recently used first)."""
        return {index: list(lines) for index, lines in enumerate(self._sets)}

    def age_of(self, address: int) -> Optional[int]:
        """LRU age (0 = most recent) of the line containing ``address``."""
        line = self.config.line_of(address)
        index = self.config.set_index(address)
        cache_set = self._sets[index]
        if line in cache_set:
            return cache_set.index(line)
        return None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.config.name}: {self.config.capacity} bytes, "
            f"{self.config.num_sets} sets x {self.config.associativity} ways, "
            f"{self.stats.hits} hits / {self.stats.misses} misses"
        )
