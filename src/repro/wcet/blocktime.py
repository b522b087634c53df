"""Per-function block timing tables.

A :class:`BlockTimeTable` collects, for every basic block of a function,

* the static pipeline/cache/memory time bounds of the block's own instructions
  (:class:`~repro.hardware.pipeline.BlockTimeBounds`), and
* the worst-case / best-case execution time contributed by the callees invoked
  from the block (added by the WCET analyzer once callee bounds are known).

The IPET path analysis then weights each block-count variable with
``block WCET + callee WCET``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import TimingAnalysisError
from repro.hardware.pipeline import BlockTimeBounds


@dataclass
class BlockTimeTable:
    """Timing of all blocks of one function."""

    function_name: str
    times: Dict[int, BlockTimeBounds] = field(default_factory=dict)
    callee_wcet: Dict[int, int] = field(default_factory=dict)
    callee_bcet: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def set_block(self, bounds: BlockTimeBounds) -> None:
        self.times[bounds.block_id] = bounds

    def add_callee_cost(self, block_id: int, wcet: int, bcet: int) -> None:
        self.callee_wcet[block_id] = self.callee_wcet.get(block_id, 0) + wcet
        self.callee_bcet[block_id] = self.callee_bcet.get(block_id, 0) + bcet

    # ------------------------------------------------------------------ #
    def block_wcet(self, block_id: int) -> int:
        """WCET of the block's own instructions (excluding callees)."""
        try:
            return self.times[block_id].wcet_cycles
        except KeyError as exc:
            raise TimingAnalysisError(
                f"no timing information for block {block_id:#x} of "
                f"{self.function_name!r}"
            ) from exc

    def block_bcet(self, block_id: int) -> int:
        try:
            return self.times[block_id].bcet_cycles
        except KeyError as exc:
            raise TimingAnalysisError(
                f"no timing information for block {block_id:#x} of "
                f"{self.function_name!r}"
            ) from exc

    def total_wcet(self, block_id: int) -> int:
        """WCET weight of the block in the IPET objective (incl. callees)."""
        return self.block_wcet(block_id) + self.callee_wcet.get(block_id, 0)

    def total_bcet(self, block_id: int) -> int:
        return self.block_bcet(block_id) + self.callee_bcet.get(block_id, 0)

    def wcet_weights(self) -> Dict[int, int]:
        return {block_id: self.total_wcet(block_id) for block_id in self.times}

    def bcet_weights(self) -> Dict[int, int]:
        return {block_id: self.total_bcet(block_id) for block_id in self.times}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.times)
