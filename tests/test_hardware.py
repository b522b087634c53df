"""Tests for the memory map, caches (concrete + abstract), pipeline timing."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ValueAnalysis
from repro.analysis.domains.interval import Interval
from repro.cfg import find_loops, reconstruct_cfg
from repro.errors import TimingAnalysisError
from repro.hardware import (
    CacheClassification,
    CacheConfig,
    DataCacheAnalysis,
    InstructionCacheAnalysis,
    LRUCacheSimulator,
    MemoryMap,
    MemoryModule,
    MustMayCacheState,
    PipelineModel,
    TraceTimer,
    hcs12x_like,
    leon2_like,
    mpc5554_like,
    simple_scalar,
)
from repro.hardware import pipeline
from repro.hardware.memory import default_memory_map
from repro.ir import Instruction, Interpreter, Opcode, parse_assembly
from repro.ir.instructions import INSTRUCTION_SIZE
from repro.ir.interpreter import ExecutionTrace
from repro.ir.program import CODE_BASE, DATA_BASE, DEVICE_BASE


class TestMemoryMap:
    def test_default_map_has_expected_regions(self):
        names = {module.name for module in default_memory_map()}
        assert {"flash", "ram", "stack", "heap", "device"} <= names

    def test_module_lookup_by_address(self):
        memory_map = default_memory_map()
        assert memory_map.module_for(CODE_BASE).name == "flash"
        assert memory_map.module_for(DATA_BASE).name == "ram"
        assert memory_map.module_for(DEVICE_BASE).name == "device"

    def test_unknown_interval_hits_every_module(self):
        memory_map = default_memory_map()
        assert len(memory_map.modules_for_interval(Interval.top())) == len(
            memory_map.modules
        )

    def test_worst_case_latency_of_unknown_access_is_slowest_module(self):
        memory_map = default_memory_map(device_read=44)
        best, worst, cached = memory_map.latency_bounds(Interval.top(), is_load=True)
        assert worst == 44

    def test_precise_ram_access_is_cheap(self):
        memory_map = default_memory_map(ram_read=2, device_read=44)
        best, worst, cached = memory_map.latency_bounds(
            Interval.const(DATA_BASE + 16), is_load=True
        )
        assert worst == 2 and cached

    def test_device_region_is_uncached(self):
        memory_map = default_memory_map()
        _, _, cached = memory_map.latency_bounds(Interval.const(DEVICE_BASE), True)
        assert not cached

    def test_overlapping_modules_rejected(self):
        with pytest.raises(TimingAnalysisError):
            MemoryMap(
                [
                    MemoryModule("a", 0, 100, 1, 1),
                    MemoryModule("b", 50, 100, 1, 1),
                ]
            )

    def test_module_named_lookup(self):
        memory_map = default_memory_map()
        assert memory_map.module_named("ram").name == "ram"
        with pytest.raises(TimingAnalysisError):
            memory_map.module_named("missing")


class TestConcreteCache:
    def test_repeated_access_hits(self):
        cache = LRUCacheSimulator(CacheConfig("d", 4, 2, 16))
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction_order(self):
        config = CacheConfig("d", 1, 2, 16)   # one set, two ways
        cache = LRUCacheSimulator(config)
        cache.access(0x000)
        cache.access(0x010)
        cache.access(0x020)    # evicts 0x000 (least recently used)
        assert not cache.contains(0x000)
        assert cache.contains(0x010) and cache.contains(0x020)

    def test_access_touching_two_lines(self):
        config = CacheConfig("d", 4, 2, 16)
        cache = LRUCacheSimulator(config)
        assert config.lines_touched(0x1C, 8) == [1, 2]

    def test_bad_geometry_rejected(self):
        with pytest.raises(TimingAnalysisError):
            CacheConfig("bad", 3, 2, 16)

    def test_age_query(self):
        cache = LRUCacheSimulator(CacheConfig("d", 1, 4, 16))
        cache.access(0x00)
        cache.access(0x10)
        assert cache.age_of(0x10) == 0 and cache.age_of(0x00) == 1
        assert cache.age_of(0x40) is None

    @given(words=st.lists(st.integers(0, 2**10), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_must_cache_is_sound_wrt_concrete_cache(self, words):
        """A line in the abstract must cache is always in the concrete cache.

        Word-aligned accesses (as produced by the IR) never straddle a cache
        line, so one abstract line access corresponds to one concrete access.
        """
        config = CacheConfig("d", 4, 2, 16)
        concrete = LRUCacheSimulator(config)
        abstract = MustMayCacheState(config)
        for word in words:
            address = word * 4
            line = config.line_of(address)
            if line in abstract.must:
                assert concrete.contains(address)
            concrete.access(address, 4)
            abstract.access_line(line)

    @given(
        maps=st.lists(
            st.dictionaries(st.integers(0, 7), st.integers(0, 3), max_size=6),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_includes_is_join_equality(self, maps):
        config = CacheConfig("d", 2, 4, 16)
        a = MustMayCacheState(config, maps[0], maps[1])
        b = MustMayCacheState(config, maps[2], maps[3])
        joined = a.join(b)
        for first, second in ((a, b), (b, a), (joined, a), (joined, b), (a, a)):
            assert first.includes(second) == (first.join(second) == first)

    @given(lines=st.lists(st.integers(0, 31), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_fetching_the_last_line_again_changes_nothing(self, lines):
        """Why the instruction cache analysis skips a repeated fetch."""
        state = MustMayCacheState(CacheConfig("i", 4, 2, 16))
        for line in lines:
            state.access_line(line)
        before = state.copy()
        assert state.classify(lines[-1]) is CacheClassification.ALWAYS_HIT
        state.access_line(lines[-1])
        assert state == before

    def test_must_may_classification(self):
        config = CacheConfig("d", 2, 2, 16)
        state = MustMayCacheState(config)
        assert state.classify(5) is CacheClassification.ALWAYS_MISS
        state.access_line(5)
        assert state.classify(5) is CacheClassification.ALWAYS_HIT

    def test_join_drops_unshared_must_lines(self):
        config = CacheConfig("d", 2, 2, 16)
        a = MustMayCacheState(config)
        b = MustMayCacheState(config)
        a.access_line(1)
        b.access_line(2)
        joined = a.join(b)
        assert not joined.must
        assert set(joined.may) == {1, 2}

    def test_unknown_access_clears_must_cache(self):
        config = CacheConfig("d", 2, 2, 16)
        state = MustMayCacheState(config)
        state.access_line(3)
        state.access_imprecise(None)
        assert not state.must


ICACHE_LOOP = """
.data buf 64
.func main
    mov r4, 0
    la r6, buf
loop:
    load r7, [r6 + 4]
    add r4, r4, 1
    slt r5, r4, 10
    bt r5, loop
    halt
"""


class TestCacheAnalyses:
    def _prepare(self):
        program = parse_assembly(ICACHE_LOOP)
        cfg = reconstruct_cfg(program, "main")
        loops = find_loops(cfg)
        values = ValueAnalysis(program, cfg, loops).run()
        return program, cfg, loops, values

    def test_instruction_cache_classifies_loop_body_as_hits(self):
        program, cfg, loops, values = self._prepare()
        processor = leon2_like()
        result = InstructionCacheAnalysis(cfg, processor.icache, loops).run()
        summary = result.summary()
        assert summary["AH"] > 0
        assert sum(summary.values()) == program.function("main").size // 4

    def test_data_cache_precise_access_recorded(self):
        program, cfg, loops, values = self._prepare()
        processor = leon2_like()
        result = DataCacheAnalysis(
            cfg, processor.dcache, values.accesses, processor.memory_map, loops
        ).run()
        assert sum(result.summary().values()) == 1

    def test_instruction_cache_classification_sound_vs_trace(self):
        """No instruction classified always-hit may miss in the concrete run."""
        program, cfg, loops, values = self._prepare()
        processor = leon2_like()
        analysis = InstructionCacheAnalysis(cfg, processor.icache, loops).run()
        concrete = LRUCacheSimulator(processor.icache)
        result = Interpreter(program).run()
        for address in result.trace.instruction_addresses:
            hit = concrete.access(address, 4)
            if analysis.classification_for(address) is CacheClassification.ALWAYS_HIT:
                assert hit


class TestPipeline:
    def test_block_bounds_are_ordered(self, counter_loop_program, cached_processor):
        cfg = reconstruct_cfg(counter_loop_program, "main")
        model = PipelineModel(cached_processor)
        for block in cfg.blocks.values():
            bounds = model.block_time_bounds(block)
            assert 0 < bounds.bcet_cycles <= bounds.wcet_cycles

    def test_unknown_access_charged_with_slowest_module(self, cached_processor):
        program = parse_assembly(".func main params=1\n    load r4, [r3 + 0]\n    halt\n")
        cfg = reconstruct_cfg(program, "main")
        values = ValueAnalysis(program, cfg, find_loops(cfg)).run()
        model = PipelineModel(cached_processor)
        block = cfg.block(cfg.entry_block)
        with_info = model.block_time_bounds(block, accesses=values.accesses)
        slowest = cached_processor.memory_map.slowest_module().read_latency
        assert with_info.memory_cycles >= slowest

    def test_trace_timer_counts_cycles(self, counter_loop_program, scalar_processor):
        result = Interpreter(counter_loop_program).run()
        timing = TraceTimer(scalar_processor, counter_loop_program).time(result.trace)
        assert timing.cycles > timing.instructions  # memory + branches cost extra

    def test_trace_timer_with_caches_reports_stats(self, counter_loop_program, cached_processor):
        result = Interpreter(counter_loop_program).run()
        timing = TraceTimer(cached_processor, counter_loop_program).time(result.trace)
        assert timing.icache_stats is not None and timing.icache_stats.accesses > 0

    def test_processor_presets_are_distinct(self):
        names = {p().name for p in (simple_scalar, leon2_like, mpc5554_like, hcs12x_like)}
        assert len(names) == 4

    def test_preset_cache_configuration(self):
        assert leon2_like().dcache is not None
        assert mpc5554_like().dcache is None
        assert hcs12x_like().icache is None

    def test_without_caches_helper(self):
        processor = leon2_like().without_caches()
        assert processor.icache is None and processor.dcache is None


class _NopCode:
    """Code memory with a ``nop`` at every byte address, so a hand-built trace
    may fetch from anywhere, across line boundaries included."""

    def ensure_layout(self) -> None:
        pass

    def instruction_at(self, address: int) -> Instruction:
        return Instruction(Opcode.NOP, address=address)


def _nop_code_trace() -> ExecutionTrace:
    # From a cold cache, 0x100E reaches into the 16-byte line after the one
    # 0x100A touched: a miss, though its first line was just fetched.  On
    # two sets of two ways, 0x1030 and 0x1050 then evict that line again.
    addresses = [0x100A, 0x100E, 0x1030, 0x1050, 0x1050]
    addresses += list(range(0x1000, 0x1040, 4))
    rng = random.Random(7)
    address = 0x1000
    for _ in range(400):
        addresses.append(address)
        address = address + 4 if rng.random() < 0.7 else 0x1000 + rng.randrange(160)
    return ExecutionTrace(instruction_addresses=addresses)


class TestTraceTimerSameLineFetches:
    """A fetch from the one line the previous fetch touched is counted as a
    hit without a simulator access; cycles and both caches' counts must equal
    a replay that simulates every fetch."""

    @pytest.mark.parametrize("code", ["program", "nop-code"])
    @pytest.mark.parametrize("line_size", [2, 4, 16])
    def test_timing_equals_a_replay_of_every_fetch(
        self, line_size, code, counter_loop_program, monkeypatch
    ):
        processor = dataclasses.replace(
            leon2_like(),
            icache=CacheConfig("icache", num_sets=2, associativity=2, line_size=line_size),
        )
        if code == "program":
            program = counter_loop_program
            trace = Interpreter(program).run().trace
        else:
            program = _NopCode()
            trace = _nop_code_trace()

        fetches = []

        class CountingCache(LRUCacheSimulator):
            def access(self, address, size=4):
                if self.config is processor.icache:
                    fetches.append(address)
                return super().access(address, size)

        monkeypatch.setattr(pipeline, "LRUCacheSimulator", CountingCache)
        timing = TraceTimer(processor, program).time(trace)
        monkeypatch.undo()

        # The reference: the trace timed without an icache, with every fetch
        # then simulated and each hit's saving taken off.
        uncached = TraceTimer(dataclasses.replace(processor, icache=None), program).time(trace)
        reference = LRUCacheSimulator(processor.icache)
        saving = processor.code_fetch_latency() - processor.icache_hit_cycles
        hits = sum(
            reference.access(address, INSTRUCTION_SIZE)
            for address in trace.instruction_addresses
        )
        assert timing.cycles == uncached.cycles - hits * saving
        assert (timing.icache_stats.hits, timing.icache_stats.misses) == (
            reference.stats.hits,
            reference.stats.misses,
        )
        assert (timing.dcache_stats.hits, timing.dcache_stats.misses) == (
            uncached.dcache_stats.hits,
            uncached.dcache_stats.misses,
        )
        if line_size == 2:
            # Every 4-byte fetch spans two lines: the rule never fires.
            assert len(fetches) == len(trace.instruction_addresses)
        if line_size == 16:
            assert len(fetches) < len(trace.instruction_addresses)
