"""Tests for the cross-analysis memoization layer (PR 3).

Covers the content-addressed function-summary cache (both tiers), the shared
mode pipeline of ``analyze_all_modes``, ``AnalysisService.analyze_many``
(serial and over a process pool), the sweep's ``keep_reports`` handling, the
``ContextCache`` per-function index, and the
``max_contexts_per_function`` capping behaviour — with the overarching
invariant that cached, shared and parallel paths are bit-identical to the
cold serial path.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.summaries import SummaryCache, merge_stats
from repro.analysis.value import ValueAnalysis
from repro.annotations import AnnotationSet
from repro.api import CACHE_ENV_VAR, AnalysisRequest, AnalysisService, Project
from repro.cache import SummaryStore
from repro.hardware.processor import leon2_like, simple_scalar
from repro.minic import compile_source
from repro.testing.oracle import OracleConfig
from repro.testing.sweep import run_sweep
from repro.wcet import AnalysisOptions, WCETAnalyzer
from repro.wcet.contexts import CallContext, ContextCache
from repro.workloads import flight_control, message_handler


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _report_fingerprint(report):
    """Everything that must be identical between cached and fresh analyses."""
    return {
        "wcet": report.wcet_cycles,
        "bcet": report.bcet_cycles,
        "functions": {
            name: (
                fr.wcet_cycles,
                fr.bcet_cycles,
                sorted((lr.header, lr.bound, lr.source) for lr in fr.loop_reports),
                sorted(fr.block_counts.items()),
                fr.icache_summary,
                fr.dcache_summary,
                sorted(fr.unreachable_blocks),
                fr.context,
            )
            for name, fr in report.functions.items()
        },
        "tier_one": report.challenges.tier_one,
        "tier_two": sorted(report.challenges.tier_two),
        "annotations": report.annotation_summary,
    }


def _flight_analyzer(store=None, cache=None, options=None):
    return WCETAnalyzer(
        flight_control.program(),
        leon2_like(),
        annotations=flight_control.annotations(),
        options=options,
        summary_cache=cache if cache is not None else SummaryCache(store=store),
    )


# --------------------------------------------------------------------------- #
# SummaryStore
# --------------------------------------------------------------------------- #
class TestSummaryStore:
    def test_roundtrip_across_instances(self, tmp_path):
        store = SummaryStore(str(tmp_path))
        store.put("bucket", "item", {"x": 1})
        store.flush()
        fresh = SummaryStore(str(tmp_path))
        assert fresh.get("bucket", "item") == {"x": 1}
        assert fresh.get("bucket", "missing") is None
        assert fresh.get("other", "item") is None

    def test_staged_entries_visible_before_flush(self, tmp_path):
        store = SummaryStore(str(tmp_path))
        store.put("bucket", "item", 42)
        assert store.get("bucket", "item") == 42

    def test_corrupt_bucket_reads_as_miss(self, tmp_path):
        store = SummaryStore(str(tmp_path))
        store.put("bucket", "item", 42)
        store.flush()
        bucket_file = next(tmp_path.glob("*.pkl"))
        bucket_file.write_bytes(b"not a pickle")
        fresh = SummaryStore(str(tmp_path))
        assert fresh.get("bucket", "item") is None

    def test_flush_merges_with_concurrent_writer(self, tmp_path):
        first = SummaryStore(str(tmp_path))
        second = SummaryStore(str(tmp_path))
        first.put("bucket", "a", 1)
        second.put("bucket", "b", 2)
        first.flush()
        second.flush()
        fresh = SummaryStore(str(tmp_path))
        assert fresh.get("bucket", "a") == 1
        assert fresh.get("bucket", "b") == 2


# --------------------------------------------------------------------------- #
# ContextCache index
# --------------------------------------------------------------------------- #
class TestContextCache:
    def test_contexts_for_uses_per_function_index(self):
        cache = ContextCache()
        f_default = CallContext.default("f")
        f_ctx = CallContext(function="f", argument_summary=(("r3", 1, 2),))
        g_default = CallContext.default("g")
        cache.put(f_default, "a")
        cache.put(f_ctx, "b")
        cache.put(g_default, "c")
        assert cache.contexts_for("f") == {f_default: "a", f_ctx: "b"}
        assert cache.contexts_for("g") == {g_default: "c"}
        assert cache.contexts_for("h") == {}
        assert len(cache) == 3


# --------------------------------------------------------------------------- #
# Warm-vs-cold identity (the tentpole invariant)
# --------------------------------------------------------------------------- #
class TestSummaryCacheIdentity:
    def test_warm_reports_identical_to_cold(self, tmp_path):
        cold_analyzer = _flight_analyzer(store=SummaryStore(str(tmp_path)))
        cold = cold_analyzer.analyze_all_modes()
        assert cold_analyzer.summaries.stats()["tier2_hits"] == 0

        warm_analyzer = _flight_analyzer(store=SummaryStore(str(tmp_path)))
        warm = warm_analyzer.analyze_all_modes()
        stats = warm_analyzer.summaries.stats()
        assert stats["tier2_hits"] > 0
        assert stats["puts"] == 0  # nothing was recomputed

        baseline_analyzer = _flight_analyzer()  # no cache at all
        for mode in cold:
            baseline = baseline_analyzer.analyze(mode=mode)
            assert _report_fingerprint(cold[mode]) == _report_fingerprint(baseline)
            assert _report_fingerprint(warm[mode]) == _report_fingerprint(baseline)

    def test_warm_message_handler_identical(self, tmp_path):
        def build(store):
            return WCETAnalyzer(
                message_handler.program(),
                leon2_like(),
                annotations=message_handler.annotations(),
                summary_cache=SummaryCache(store=store),
            )

        cold = build(SummaryStore(str(tmp_path))).analyze()
        warm_analyzer = build(SummaryStore(str(tmp_path)))
        warm = warm_analyzer.analyze()
        assert warm_analyzer.summaries.stats()["tier2_hits"] > 0
        assert _report_fingerprint(warm) == _report_fingerprint(cold)

    def test_different_processor_never_shares_summaries(self, tmp_path):
        store = SummaryStore(str(tmp_path))
        leon = _flight_analyzer(store=store).analyze()
        simple_analyzer = WCETAnalyzer(
            flight_control.program(),
            simple_scalar(),
            annotations=flight_control.annotations(),
            summary_cache=SummaryCache(store=SummaryStore(str(tmp_path))),
        )
        assert simple_analyzer.summaries.stats()["tier2_hits"] == 0
        simple = simple_analyzer.analyze()
        assert simple_analyzer.summaries.stats()["tier2_hits"] == 0
        assert simple.wcet_cycles != leon.wcet_cycles

    def test_summaries_survive_pickling(self, tmp_path):
        store = SummaryStore(str(tmp_path))
        _flight_analyzer(store=store).analyze()
        store.flush()
        bucket_file = next(tmp_path.glob("*.pkl"))
        payload = pickle.loads(bucket_file.read_bytes())
        assert payload  # at least one summary, unpickles cleanly


# --------------------------------------------------------------------------- #
# Shared mode pipeline
# --------------------------------------------------------------------------- #
class TestSharedModePipeline:
    def test_value_analysis_runs_once_across_modes(self, monkeypatch):
        runs = []
        original = ValueAnalysis.run

        def counting_run(self):
            runs.append(self.cfg.function_name)
            return original(self)

        monkeypatch.setattr(ValueAnalysis, "run", counting_run)

        _flight_analyzer().analyze_all_modes()
        shared_runs = list(runs)

        runs.clear()
        analyzer = _flight_analyzer()
        for mode in [None] + analyzer.annotations.mode_names():
            _flight_analyzer().analyze(mode=mode)
        independent_runs = list(runs)

        # The shared pipeline re-runs a function's loop/value phase only when
        # a mode changes its entry values; independent runs repeat everything.
        assert len(shared_runs) == len(set(shared_runs))
        assert len(shared_runs) < len(independent_runs)

    def test_decoding_timed_once(self):
        reports = _flight_analyzer().analyze_all_modes()
        decode_seconds = [
            report.phase_seconds().get("decoding", 0.0)
            for report in reports.values()
        ]
        # Every mode still reports the phase; only the first one paid for it.
        assert all(s >= 0.0 for s in decode_seconds)
        details = [
            timing.detail
            for report in reports.values()
            for timing in report.phases
            if timing.phase == "decoding"
        ]
        assert all("shared across modes" in detail for detail in details)


# --------------------------------------------------------------------------- #
# Many requests
# --------------------------------------------------------------------------- #
class TestAnalyzeMany:
    """``AnalysisService.analyze_many``: serial and pool runs, cache sharing."""

    REQUESTS = (
        AnalysisRequest(all_modes=True, label="fc"),
        AnalysisRequest(mode="air", label="air"),
        AnalysisRequest(mode="ground", label="ground"),
    )

    @staticmethod
    def _service(cache="off", workload="flight-control", processor="leon2"):
        return AnalysisService(
            Project.from_workload(workload, processor=processor, cache=cache)
        )

    @staticmethod
    def _stats(results):
        total = {}
        for result in results:
            merge_stats(total, result.cache_stats)
        return total

    def test_parallel_matches_serial(self, tmp_path):
        serial = self._service().analyze_many(self.REQUESTS, jobs=1)
        parallel = self._service(cache=str(tmp_path / "store")).analyze_many(
            self.REQUESTS, jobs=2
        )
        assert len(serial) == len(parallel) == 3
        for left, right in zip(serial, parallel):
            assert (left.label, left.entry, left.processor) == (
                right.label, right.entry, right.processor
            )
            assert set(left.reports) == set(right.reports)
            for mode in left.reports:
                assert _report_fingerprint(left.reports[mode]) == _report_fingerprint(
                    right.reports[mode]
                )

    def test_serial_requests_share_cache(self):
        service = self._service(workload="message-handler", processor="simple")
        results = service.analyze_many([AnalysisRequest() for _ in range(3)], jobs=1)
        assert self._stats(results)["tier1_hits"] > 0
        bounds = {(r.wcet_cycles, r.bcet_cycles) for r in results}
        assert len(bounds) == 1

    def test_parallel_workers_honour_global_store(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "global-store"
        monkeypatch.setenv(CACHE_ENV_VAR, str(store_dir))
        self._service(cache="auto").analyze_many(self.REQUESTS[1:], jobs=2)
        assert list(store_dir.glob("*.pkl")), "workers did not persist summaries"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_run_hits_persistent_store(self, tmp_path, jobs):
        cache_dir = str(tmp_path / "store")
        self._service(cache=cache_dir).analyze_many(self.REQUESTS, jobs=jobs)
        warm = self._service(cache=cache_dir).analyze_many(self.REQUESTS, jobs=jobs)
        stats = self._stats(warm)
        assert stats["tier2_hits"] > 0
        assert stats["puts"] == 0


# --------------------------------------------------------------------------- #
# Sweep integration (keep_reports satellite + cached sweeps)
# --------------------------------------------------------------------------- #
class TestSweepIntegration:
    SEEDS = range(1, 5)

    def test_keep_reports_parallel_ships_slim_reports(self):
        config = OracleConfig(max_input_vectors=2)
        serial = run_sweep(self.SEEDS, config, jobs=1, keep_reports=True)
        parallel = run_sweep(self.SEEDS, config, jobs=2, keep_reports=True)
        assert serial.ok and parallel.ok
        for s_result, p_result in zip(serial.results, parallel.results):
            assert p_result.report is not None, "keep_reports was dropped"
            assert s_result.report is not None
            assert (
                p_result.report.wcet_cycles,
                p_result.report.bcet_cycles,
            ) == (s_result.report.wcet_cycles, s_result.report.bcet_cycles)
            # Slim form: per-function bounds survive, block tables do not.
            assert set(p_result.report.functions) == set(s_result.report.functions)
            for fr in p_result.report.functions.values():
                assert fr.block_times == {}

    def test_reports_dropped_by_default(self):
        parallel = run_sweep(self.SEEDS, OracleConfig(max_input_vectors=2), jobs=2)
        assert all(result.report is None for result in parallel.results)

    def test_cached_sweep_identical_and_hits(self, tmp_path):
        config_cold = OracleConfig(max_input_vectors=2, cache_dir=str(tmp_path / "s"))
        cold = run_sweep(self.SEEDS, config_cold, jobs=1)
        warm = run_sweep(self.SEEDS, config_cold, jobs=1)
        assert cold.ok and warm.ok
        assert warm.bounds_by_case() == cold.bounds_by_case()
        assert warm.cache_stats()["tier2_hits"] > 0
        assert warm.cache_stats()["puts"] == 0

    def test_parallel_cached_sweep_matches(self, tmp_path):
        config = OracleConfig(max_input_vectors=2, cache_dir=str(tmp_path / "s"))
        baseline = run_sweep(self.SEEDS, OracleConfig(max_input_vectors=2), jobs=1)
        cold = run_sweep(self.SEEDS, config, jobs=2)
        warm = run_sweep(self.SEEDS, config, jobs=2)
        assert cold.bounds_by_case() == baseline.bounds_by_case()
        assert warm.bounds_by_case() == baseline.bounds_by_case()


# --------------------------------------------------------------------------- #
# max_contexts_per_function capping (satellite test coverage)
# --------------------------------------------------------------------------- #
_CAP_SOURCE = """
int work(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        s = s + i;
        i = i + 1;
    }
    return s;
}

int main(void) {
    int total = 0;
    total = total + work(4);
    total = total + work(8);
    total = total + work(16);
    return total;
}
"""


class TestContextCapping:
    def _analyze(self, max_contexts, store=None):
        program = compile_source(_CAP_SOURCE)
        annotations = AnnotationSet().add_argument_range("work", "r3", 0, 16)
        options = AnalysisOptions(max_contexts_per_function=max_contexts)
        return WCETAnalyzer(
            program,
            simple_scalar(),
            annotations=annotations,
            options=options,
            summary_cache=SummaryCache(store=store),
        ).analyze()

    @pytest.mark.parametrize("cap", [0, 1, 16])
    def test_capping_is_deterministic(self, cap):
        first = self._analyze(cap)
        second = self._analyze(cap)
        assert _report_fingerprint(first) == _report_fingerprint(second)

    @pytest.mark.parametrize("cap", [0, 1, 16])
    def test_cached_equals_fresh_under_cap(self, cap, tmp_path):
        store_dir = str(tmp_path / f"cap{cap}")
        cold = self._analyze(cap, store=SummaryStore(store_dir))
        warm = self._analyze(cap, store=SummaryStore(store_dir))
        assert _report_fingerprint(warm) == _report_fingerprint(cold)

    def test_cap_zero_falls_back_to_default_context(self):
        report = self._analyze(0)
        # Context-insensitive: the callee is analysed once, under the
        # annotation-derived default context, and the bound is the widest.
        assert report.functions["work"].context == "work[*]"
        assert report.wcet_cycles >= self._analyze(16).wcet_cycles

    def test_cap_reached_is_sound_but_coarser(self):
        capped = self._analyze(1)
        uncapped = self._analyze(16)
        # The capped analysis may only be more pessimistic, never less.
        assert capped.wcet_cycles >= uncapped.wcet_cycles
        assert capped.bcet_cycles <= uncapped.bcet_cycles

    def test_binding_cap_subtrees_not_cached_and_stay_identical(self, tmp_path):
        # The adversarial corpus case drives one callee past the default cap
        # of 16 contexts, so the cap becomes binding mid-run — such subtrees
        # must not be summarised (their outcome depends on run-global
        # population), and warm must still equal cold.
        from repro.testing import load_corpus

        case = next(
            c for c in load_corpus() if c.name == "adversarial-deep-call-chain"
        )
        rendered = case.rendered()

        def analyze(store):
            program = compile_source(rendered.source, entry=case.entry)
            return WCETAnalyzer(
                program,
                simple_scalar(),
                annotations=rendered.annotations,
                summary_cache=SummaryCache(store=store),
            ).analyze(entry=case.entry)

        store_dir = str(tmp_path / "deep")
        cold = analyze(SummaryStore(store_dir))
        warm = analyze(SummaryStore(store_dir))
        assert _report_fingerprint(warm) == _report_fingerprint(cold)

    def test_warm_run_with_different_entry_matches_cold(self, tmp_path):
        # A summary recorded during an entry=main run must replay exactly
        # into a run with a different entry — including context
        # registrations its subtree only *consulted* (context-cache hits),
        # which a cold run of that entry would register itself.
        source = _CAP_SOURCE + (
            "\nint side(void) {\n"
            "    return work(8) + work(4);\n"
            "}\n"
        )
        annotations = AnnotationSet().add_argument_range("work", "r3", 0, 16)

        def analyze(entry, store):
            return WCETAnalyzer(
                compile_source(source, entry=entry),
                simple_scalar(),
                annotations=annotations,
                summary_cache=SummaryCache(store=store),
            ).analyze(entry=entry)

        store_dir = str(tmp_path / "entries")
        analyze("main", SummaryStore(store_dir))  # records main + subtrees
        warm_side = analyze("side", SummaryStore(store_dir))
        cold_side = analyze("side", None)
        assert _report_fingerprint(warm_side) == _report_fingerprint(cold_side)

    def test_oracle_ignores_global_default_store(self, tmp_path, monkeypatch):
        # OracleConfig(cache_dir=None) promises no persistent caching, even
        # when REPRO_CACHE_DIR names a store.
        from repro.testing.oracle import DifferentialOracle
        from repro.testing.generator import generate_case

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "global"))
        oracle = DifferentialOracle(OracleConfig(max_input_vectors=2))
        result = oracle.check(generate_case(1))
        assert result.ok
        assert result.cache_stats["tier2_hits"] == 0
        assert result.cache_stats["tier2_misses"] == 0
        assert not list((tmp_path / "global").glob("*.pkl"))

    def test_distinct_summary_keys_per_option_value(self, tmp_path):
        # Caps are part of the cache key: a store filled with cap=16 results
        # must never serve a cap=0 analysis.
        store_dir = str(tmp_path / "shared")
        self._analyze(16, store=SummaryStore(store_dir))
        analyzer_program = compile_source(_CAP_SOURCE)
        annotations = AnnotationSet().add_argument_range("work", "r3", 0, 16)
        analyzer = WCETAnalyzer(
            analyzer_program,
            simple_scalar(),
            annotations=annotations,
            options=AnalysisOptions(max_contexts_per_function=0),
            summary_cache=SummaryCache(store=SummaryStore(store_dir)),
        )
        analyzer.analyze()
        assert analyzer.summaries.stats()["tier2_hits"] == 0


# --------------------------------------------------------------------------- #
# merge_stats helper
# --------------------------------------------------------------------------- #
def test_merge_stats_accumulates():
    total = {}
    merge_stats(total, {"a": 1, "b": 2})
    merge_stats(total, {"a": 3, "c": 4})
    assert total == {"a": 4, "b": 2, "c": 4}
