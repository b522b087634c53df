"""Engine-equivalence guard for the analyzer performance overhaul.

The WTO-scheduled heap worklist, the copy-on-write abstract states and the
sparse simplex are pure performance rebuilds: they must not change a single
analysis result.  This module pins the results the *pre-overhaul* engine
computed (corpus cases, 50 generator seeds, and the converged value-analysis
fixpoints of the two paper workloads) and asserts the current engine
reproduces them exactly.

It also pins the work of the paper workloads' analysis pass: its entry
bounds, its deterministic work counters, its summary-cache traffic cold,
warm and through a persistent store, and the spans a traced pass records.
Timing is perfbench's job (``BENCHMARK.json``); these counts are the exact
gate on the work behind it.

If a future PR intentionally changes analysis precision, these pins must be
re-derived — the point is that such a change can never happen silently.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.analysis.summaries import SummaryCache
from repro.analysis.value import ValueAnalysis
from repro.api import AnalysisRequest, AnalysisService, Project
from repro.cache import SummaryStore
from repro.cfg.loops import find_loops
from repro.cfg.reconstruct import reconstruct_program
from repro.hardware.processor import leon2_like, simple_scalar
from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY
from repro.testing import check_case, generate_case, load_corpus
from repro.testing.oracle import OracleConfig
from repro.workloads import flight_control, message_handler

_CONFIG = OracleConfig(max_input_vectors=4)

#: (wcet, bcet) per generator seed, computed by the pre-overhaul engine
#: (PR 1 state, commit 857f3c6).  The bounds do not depend on the number of
#: input vectors the oracle replays.  SHA-256 over the sorted
#: ``gen_<seed>:<wcet>:<bcet>`` lines starts ``49e119d6df99d7dd``, the
#: identity checksum that docs and ROADMAP quote.
PINNED_SEED_BOUNDS = {
    1: (22745, 70),
    2: (8638, 205),
    3: (21170, 148),
    4: (2873, 67),
    5: (2248, 126),
    6: (2624, 388),
    7: (9250, 601),
    8: (67861, 148),
    9: (83, 83),
    10: (5172, 332),
    11: (16821, 415),
    12: (11248, 232),
    13: (34576, 119),
    14: (58500, 436),
    15: (95, 95),
    16: (9530, 167),
    17: (8974, 398),
    18: (783, 98),
    19: (1730, 332),
    20: (1304, 125),
    21: (29546, 118),
    22: (828, 153),
    23: (115, 115),
    24: (198, 198),
    25: (18794, 227),
    26: (17756, 517),
    27: (8486, 156),
    28: (256, 255),
    29: (164, 106),
    30: (155, 86),
    31: (674, 263),
    32: (5447, 382),
    33: (6778, 483),
    34: (102, 102),
    35: (23086, 154),
    36: (1338, 77),
    37: (1249, 208),
    38: (2385, 362),
    39: (53270, 101),
    40: (2279, 82),
    41: (616, 370),
    42: (23024, 270),
    43: (843, 297),
    44: (359, 75),
    45: (55, 55),
    46: (258, 67),
    47: (102, 102),
    48: (128, 128),
    49: (47948, 167),
    50: (5910, 341),
}

#: (wcet, bcet) per corpus case, same provenance.
PINNED_CORPUS_BOUNDS = {
    "adversarial-aliasing-pointers": (263, 263),
    "adversarial-deep-call-chain": (646, 646),
    "adversarial-irreducible-goto-loop": (104, 42),
    "regress-branch-penalty-fallthrough": (11, 11),
    "regress-context-pointer-arg": (78, 78),
    "regress-xor-negative-constant": (57, 35),
}

#: (state digest, solver iterations) of the converged value-analysis
#: fixpoint per workload function, same provenance.
PINNED_VALUE_FIXPOINTS = {
    "flight_control/control_law": ("7ed6cdb8c19c0611", 12),
    "flight_control/filter_attitude": ("0f6e5caee4bdae4c", 12),
    "flight_control/main": ("a9545e00697889f7", 6),
    "flight_control/poll_landing_gear": ("afbadc288fcd2c52", 12),
    "message_handler/handle_message": ("28e6365cd138c909", 26),
    "message_handler/main": ("5a87ca603aa4c2cb", 2),
}

def _state_digest(result) -> str:
    """Canonical digest of a converged per-block value-analysis fixpoint."""
    digest = hashlib.sha256()
    for block in sorted(result.block_in):
        state = result.block_in[block]
        digest.update(f"{block}|{state.reachable}|".encode())
        if state.reachable:
            registers = ",".join(
                f"{name}={value}"
                for name, value in sorted(state.registers.items())
                if not value.is_top
            )
            facts = ",".join(
                f"{register}:{fact.relation.value}:{fact.lhs}:{fact.rhs}"
                for register, fact in sorted(state.facts.items())
            )
            digest.update(f"{registers}|{state.memory}|{facts}".encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


class TestSeedBounds:
    @pytest.mark.parametrize("seed", sorted(PINNED_SEED_BOUNDS))
    def test_seed_bounds_identical_to_pre_overhaul_engine(self, seed):
        result = check_case(generate_case(seed), _CONFIG)
        assert result.ok, f"seed {seed}: {[str(v) for v in result.violations]}"
        expected_wcet, expected_bcet = PINNED_SEED_BOUNDS[seed]
        assert (result.wcet_cycles, result.bcet_cycles) == (
            expected_wcet,
            expected_bcet,
        ), f"seed {seed}: bounds diverged from the pre-overhaul engine"


class TestCorpusBounds:
    @pytest.mark.parametrize("name", sorted(PINNED_CORPUS_BOUNDS))
    def test_corpus_bounds_identical_to_pre_overhaul_engine(self, name):
        case = next(c for c in load_corpus() if c.name == name)
        result = check_case(case, _CONFIG)
        assert result.ok, f"{name}: {[str(v) for v in result.violations]}"
        assert (result.wcet_cycles, result.bcet_cycles) == tuple(
            PINNED_CORPUS_BOUNDS[name]
        ), f"{name}: bounds diverged from the pre-overhaul engine"


class TestValueFixpoints:
    """The solver must produce identical block_in states, not just bounds."""

    @pytest.fixture(scope="class")
    def workload_results(self):
        results = {}
        for module, name in (
            (flight_control, "flight_control"),
            (message_handler, "message_handler"),
        ):
            program = module.program()
            program.validate()
            cfgs = reconstruct_program(
                program, hints=module.annotations().control_flow_hints
            )
            for function_name, cfg in sorted(cfgs.items()):
                loops = find_loops(cfg)
                results[f"{name}/{function_name}"] = ValueAnalysis(
                    program, cfg, loops
                ).run()
        return results

    @pytest.mark.parametrize("key", sorted(PINNED_VALUE_FIXPOINTS))
    def test_fixpoint_states_identical(self, workload_results, key):
        expected_digest, expected_iterations = PINNED_VALUE_FIXPOINTS[key]
        result = workload_results[key]
        assert _state_digest(result) == expected_digest, (
            f"{key}: converged block_in states diverged from the "
            "pre-overhaul engine"
        )
        assert result.iterations == expected_iterations, (
            f"{key}: solver evaluation order changed "
            f"({result.iterations} != {expected_iterations} iterations)"
        )


#: (wcet, bcet) of every entry analysis in the paper workloads' pass:
#: flight_control in every operating mode and message_handler, on the simple
#: and leon2 models.  The simple-model flight-control rows are the paper's
#: pins (2514/87, 2514/284, 161/87).
PINNED_PASS_BOUNDS = {
    "flight_control/simple/all": (2514, 87),
    "flight_control/simple/air": (2514, 284),
    "flight_control/simple/ground": (161, 87),
    "message_handler/simple": (777, 62),
    "flight_control/leon2/all": (4698, 92),
    "flight_control/leon2/air": (4698, 294),
    "flight_control/leon2/ground": (340, 92),
    "message_handler/leon2": (1627, 63),
}

#: The process registry's counters of analysis work.
_REGISTRY_WORK = (
    "repro_fixpoint_iterations_total",
    "repro_fixpoint_joins_total",
    "repro_fixpoint_widens_total",
    "repro_simplex_pivots_total",
)
#: The work of a cold pass: the reports' ``PhaseTiming.iterations`` (value
#: and loop fixpoints, simplex pivots) and the registry's deltas.
PINNED_COLD_WORK = {
    "fixpoint_iterations": 140,
    "simplex_pivots": 42,
    "repro_fixpoint_iterations_total": 263,
    "repro_fixpoint_joins_total": 117,
    "repro_fixpoint_widens_total": 12,
    "repro_simplex_pivots_total": 42,
}

#: Spans per name of a traced pass.  A warm pass replays every function
#: summary, so only the analysis entries, decoding and orchestration remain.
PINNED_COLD_SPANS = {
    "analyze": 4,
    "phase:decoding": 8,
    "phase:orchestration": 8,
    "phase:loop/value analysis": 14,
    "phase:cache analysis": 14,
    "phase:pipeline analysis": 14,
    "phase:path analysis": 14,
    "simplex-solve": 14,
    "summary-replay": 12,
}
PINNED_WARM_SPANS = {
    "analyze": 4,
    "phase:decoding": 8,
    "phase:orchestration": 8,
    "summary-replay": 26,
}


def _cache_stats(hits=0, misses=0, tier2_hits=0, tier2_misses=0, puts=0):
    return {
        "tier1_hits": hits,
        "tier1_misses": misses,
        "tier2_hits": tier2_hits,
        "tier2_misses": tier2_misses,
        "puts": puts,
    }


def _paper_pass(cache: SummaryCache):
    """Analyse the paper workloads once on fresh projects through ``cache``.

    Returns the entry bounds by label, the pass's work counts (see
    :data:`PINNED_COLD_WORK`) and the cache's stats delta.
    """
    stats_before = cache.stats()
    registry_before = {name: REGISTRY.value(name) for name in _REGISTRY_WORK}
    bounds = {}
    work = dict.fromkeys(("fixpoint_iterations", "simplex_pivots"), 0)
    for processor, factory in (("simple", simple_scalar), ("leon2", leon2_like)):
        for workload, all_modes in (
            ("flight_control", True),
            ("message_handler", False),
        ):
            project = Project.from_workload(
                workload, processor=factory(), cache="off"
            )
            result = AnalysisService(project, summary_cache=cache).analyze(
                AnalysisRequest(all_modes=all_modes)
            )
            for mode, report in result.reports.items():
                label = f"{workload}/{processor}"
                if all_modes:
                    label += f"/{mode or 'all'}"
                bounds[label] = (report.wcet_cycles, report.bcet_cycles)
                for timing in report.phases:
                    key = (
                        "simplex_pivots"
                        if timing.phase == "path analysis"
                        else "fixpoint_iterations"
                    )
                    work[key] += timing.iterations
    for name in _REGISTRY_WORK:
        work[name] = REGISTRY.value(name) - registry_before[name]
    stats_after = cache.stats()
    stats = {key: stats_after[key] - stats_before[key] for key in stats_before}
    return bounds, work, stats


def _traced_span_counts(cache: SummaryCache) -> dict:
    previous = obs_trace.install(obs_trace.Tracer())
    try:
        _paper_pass(cache)
        spans = obs_trace.active().drain()
    finally:
        obs_trace.install(previous)
    return dict(Counter(span.name for span in spans))


class TestPaperPassWork:
    """Exact bounds, work and span counts of the paper workloads' pass.

    Two passes share one :class:`SummaryCache`, each building fresh
    projects: the first computes every summary, the second replays all of
    them.  A third pass through a fresh cache reads the first pass's
    persistent store.
    """

    @pytest.fixture(scope="class")
    def passes(self, tmp_path_factory):
        store_dir = str(tmp_path_factory.mktemp("summary-store"))
        cache = SummaryCache(store=SummaryStore(store_dir))
        cold = _paper_pass(cache)
        warm = _paper_pass(cache)
        stored = _paper_pass(SummaryCache(store=SummaryStore(store_dir)))
        return cold, warm, stored

    def test_entry_bounds_pinned(self, passes):
        for bounds, _, _ in passes:
            assert bounds == PINNED_PASS_BOUNDS

    def test_cold_pass_work_pinned(self, passes):
        _, work, stats = passes[0]
        assert work == PINNED_COLD_WORK
        assert stats == _cache_stats(hits=12, misses=14, tier2_misses=14, puts=14)

    def test_warm_pass_replays_every_summary(self, passes):
        _, work, stats = passes[1]
        assert work == dict.fromkeys(PINNED_COLD_WORK, 0)
        assert stats == _cache_stats(hits=26)

    def test_store_serves_a_fresh_cache(self, passes):
        _, work, stats = passes[2]
        assert work == dict.fromkeys(PINNED_COLD_WORK, 0)
        assert stats == _cache_stats(hits=12, misses=14, tier2_hits=14)

    def test_span_counts_pinned(self):
        cache = SummaryCache()
        assert _traced_span_counts(cache) == PINNED_COLD_SPANS
        assert _traced_span_counts(cache) == PINNED_WARM_SPANS
