"""Abstract LRU cache analysis (must / may) in the style of Ferdinand et al.

The *must* cache maps memory lines to an upper bound on their LRU age: a line
present in the must cache is guaranteed to be cached in every execution, so an
access to it is classified *always hit* (AH).  The *may* cache maps lines to a
lower bound on their age: a line absent from it can never be cached, so the
access is *always miss* (AM).  Everything else is *not classified* (NC) and is
charged as a miss by the WCET analysis.

Two properties of this analysis carry the paper's arguments:

* an access with an *imprecise* address cannot be classified and, worse,
  damages the must cache for every later access — large address intervals age
  all lines and completely unknown addresses empty the must cache ("invalidates
  large parts of the abstract cache (or even the whole cache)", Section 4.3);
* a call clobbers the must cache (the callee's code/data evicts unknown lines),
  so code structure (calls inside loops, unavailable library bodies) directly
  influences how many accesses stay classifiable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.analysis.value import AccessInfo
from repro.analysis.fixpoint import ForwardSolver
from repro.analysis.wto import compute_wto
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.loops import LoopForest, find_loops
from repro.hardware.cache import CacheConfig
from repro.hardware.memory import MemoryMap


class CacheClassification(enum.Enum):
    """Static classification of one memory access."""

    ALWAYS_HIT = "AH"
    ALWAYS_MISS = "AM"
    NOT_CLASSIFIED = "NC"


#: Number of distinct lines above which an imprecise access is treated as
#: "unknown address" and empties the must cache entirely.
IMPRECISE_ACCESS_LINE_LIMIT = 8


class MustMayCacheState:
    """Joint must/may abstract cache state."""

    def __init__(
        self,
        config: CacheConfig,
        must: Optional[Dict[int, int]] = None,
        may: Optional[Dict[int, int]] = None,
    ):
        self.config = config
        #: line -> upper bound on age (0 .. associativity-1)
        self.must: Dict[int, int] = dict(must or {})
        #: line -> lower bound on age
        self.may: Dict[int, int] = dict(may or {})

    # ------------------------------------------------------------------ #
    def copy(self) -> "MustMayCacheState":
        return MustMayCacheState(self.config, self.must, self.may)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MustMayCacheState):
            return NotImplemented
        return self.must == other.must and self.may == other.may

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #
    def classify(self, line: int) -> CacheClassification:
        if line in self.must:
            return CacheClassification.ALWAYS_HIT
        if line not in self.may:
            return CacheClassification.ALWAYS_MISS
        return CacheClassification.NOT_CLASSIFIED

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def access_line(self, line: int) -> None:
        """Access a precisely known line (both must and may update)."""
        assoc = self.config.associativity
        set_index = line % self.config.num_sets

        old_must_age = self.must.get(line, assoc)
        for other, age in list(self.must.items()):
            if other == line or other % self.config.num_sets != set_index:
                continue
            if age < old_must_age:
                new_age = age + 1
                if new_age >= assoc:
                    del self.must[other]
                else:
                    self.must[other] = new_age
        self.must[line] = 0

        old_may_age = self.may.get(line, assoc)
        for other, age in list(self.may.items()):
            if other == line or other % self.config.num_sets != set_index:
                continue
            if age <= old_may_age:
                new_age = age + 1
                if new_age >= assoc:
                    del self.may[other]
                else:
                    self.may[other] = new_age
        self.may[line] = 0

    def access_imprecise(self, lines: Optional[Iterable[int]]) -> None:
        """Access whose address is only known as a set of possible lines.

        ``lines=None`` (or too many possibilities) models a completely unknown
        pointer: the must cache is emptied, and the may cache is left as-is
        (everything could additionally be cached, which only weakens AM
        classifications conservatively by keeping existing entries).
        """
        if lines is not None:
            lines = list(lines)
        if lines is None or len(lines) > IMPRECISE_ACCESS_LINE_LIMIT:
            self.must.clear()
            return
        assoc = self.config.associativity
        touched_sets = {line % self.config.num_sets for line in lines}
        # The access hits exactly one of the candidate lines; every line in a
        # touched set may age by one.
        for other, age in list(self.must.items()):
            if other % self.config.num_sets in touched_sets:
                new_age = age + 1
                if new_age >= assoc:
                    del self.must[other]
                else:
                    self.must[other] = new_age
        # Each candidate may now be cached with age 0.
        for line in lines:
            self.may[line] = 0

    def clobber(self) -> None:
        """Forget all guarantees (used at call sites)."""
        self.must.clear()

    # ------------------------------------------------------------------ #
    # Lattice
    # ------------------------------------------------------------------ #
    def join(self, other: "MustMayCacheState") -> "MustMayCacheState":
        must: Dict[int, int] = {}
        for line, age in self.must.items():
            if line in other.must:
                must[line] = max(age, other.must[line])
        may: Dict[int, int] = dict(self.may)
        for line, age in other.may.items():
            may[line] = min(age, may.get(line, age))
        return MustMayCacheState(self.config, must, may)

    def includes(self, other: "MustMayCacheState") -> bool:
        """True if ``self`` is less precise than (or equal to) ``other``:
        ``self.join(other) == self``, decided without building the join."""
        other_must = other.must
        for line, age in self.must.items():
            if other_must.get(line, age + 1) > age:
                return False
        may = self.may
        for line, age in other.may.items():
            if may.get(line, age + 1) > age:
                return False
        return True


@dataclass
class CacheAnalysisResult:
    """Per-access classifications for one function."""

    function_name: str
    config: CacheConfig
    classifications: Dict[int, CacheClassification] = field(default_factory=dict)
    #: abstract cache state at the entry of each block (for inspection/tests)
    block_in: Dict[int, MustMayCacheState] = field(default_factory=dict)

    def classification_for(self, instruction_address: int) -> CacheClassification:
        return self.classifications.get(
            instruction_address, CacheClassification.NOT_CLASSIFIED
        )

    def count(self, kind: CacheClassification) -> int:
        return sum(1 for value in self.classifications.values() if value is kind)

    def summary(self) -> Dict[str, int]:
        return {
            "AH": self.count(CacheClassification.ALWAYS_HIT),
            "AM": self.count(CacheClassification.ALWAYS_MISS),
            "NC": self.count(CacheClassification.NOT_CLASSIFIED),
        }


class _AbstractCacheAnalysis:
    """Shared fixpoint machinery for instruction and data cache analysis."""

    def __init__(self, cfg: ControlFlowGraph, config: CacheConfig, loops: Optional[LoopForest]):
        self.cfg = cfg
        self.config = config
        self.loops = loops if loops is not None else find_loops(cfg)
        self._recording: Optional[Dict[int, CacheClassification]] = None

    def _transfer(self, block_id: int, state: MustMayCacheState) -> Dict[int, MustMayCacheState]:
        out = state.copy()
        self._process_block(block_id, out)
        successors = self.cfg.successors(block_id)
        return {successor: out.copy() for successor in successors}

    def _process_block(self, block_id: int, state: MustMayCacheState) -> None:
        raise NotImplementedError

    def run(self) -> CacheAnalysisResult:
        solver = ForwardSolver(
            cfg=self.cfg,
            transfer=self._transfer,
            join=lambda a, b: a.join(b),
            widen=lambda a, b: a.join(b),
            includes=lambda old, new: old.includes(new),
            bottom=lambda: MustMayCacheState(self.config),
            widening_points=self.loops.headers(),
            wto=compute_wto(self.cfg, self.loops),
        )
        fixpoint = solver.solve(MustMayCacheState(self.config))
        result = CacheAnalysisResult(self.cfg.function_name, self.config)
        result.block_in = fixpoint.block_in
        self._recording = result.classifications
        for block_id, state in fixpoint.block_in.items():
            self._process_block(block_id, state.copy())
        self._recording = None
        return result

    def _record(self, address: int, classification: CacheClassification) -> None:
        if self._recording is not None:
            self._recording[address] = classification


class InstructionCacheAnalysis(_AbstractCacheAnalysis):
    """Classify every instruction fetch of a function as AH / AM / NC."""

    def __init__(
        self,
        cfg: ControlFlowGraph,
        config: CacheConfig,
        loops: Optional[LoopForest] = None,
        calls_clobber: bool = True,
    ):
        super().__init__(cfg, config, loops)
        self.calls_clobber = calls_clobber

    def _process_block(self, block_id: int, state: MustMayCacheState) -> None:
        block = self.cfg.block(block_id)
        previous = None
        for instr in block.instructions:
            line = self.config.line_of(instr.address)
            if line == previous:
                # The line just fetched is at age 0 in the must cache and the
                # only age-0 line of its set in the may cache: fetching it
                # again hits and changes nothing.
                self._record(instr.address, CacheClassification.ALWAYS_HIT)
            else:
                self._record(instr.address, state.classify(line))
                state.access_line(line)
                previous = line
            if instr.is_call and self.calls_clobber:
                # The callee's fetches evict an unknown set of lines.
                state.clobber()
                previous = None


class DataCacheAnalysis(_AbstractCacheAnalysis):
    """Classify every data access of a function as AH / AM / NC.

    ``accesses`` maps instruction addresses to the
    :class:`~repro.analysis.value.AccessInfo` computed by the value analysis;
    accesses to uncached memory regions (device I/O) are skipped — they always
    pay the module latency and never touch the cache.
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        config: CacheConfig,
        accesses: Dict[int, AccessInfo],
        memory_map: MemoryMap,
        loops: Optional[LoopForest] = None,
        calls_clobber: bool = True,
    ):
        super().__init__(cfg, config, loops)
        self.accesses = accesses
        self.memory_map = memory_map
        self.calls_clobber = calls_clobber

    def _candidate_lines(self, info: AccessInfo) -> Optional[List[int]]:
        """Possible cache lines of an access (None = completely unknown)."""
        if info.unknown or info.absolute.is_top:
            return None
        interval = info.absolute
        if not interval.is_finite:
            return None
        first = self.config.line_of(interval.lo)
        last = self.config.line_of(interval.hi + info.size - 1)
        if last - first + 1 > 4 * IMPRECISE_ACCESS_LINE_LIMIT:
            return None
        return list(range(first, last + 1))

    def _process_block(self, block_id: int, state: MustMayCacheState) -> None:
        block = self.cfg.block(block_id)
        for instr in block.instructions:
            if instr.is_call and self.calls_clobber:
                state.clobber()
                continue
            if not instr.is_memory_access:
                continue
            info = self.accesses.get(instr.address)
            if info is None:
                self._record(instr.address, CacheClassification.NOT_CLASSIFIED)
                state.clobber()
                continue
            _, _, may_be_cached = self.memory_map.latency_bounds(
                info.absolute, info.is_load
            )
            if not may_be_cached:
                # Uncached region: the access bypasses the cache entirely.
                continue
            lines = self._candidate_lines(info)
            if lines is not None and len(lines) == 1:
                self._record(instr.address, state.classify(lines[0]))
                state.access_line(lines[0])
            else:
                self._record(instr.address, CacheClassification.NOT_CLASSIFIED)
                state.access_imprecise(lines)
