"""Differential soundness tests: generated programs vs. the concrete machine.

The fast tier checks ``BCET bound <= observed cycles <= WCET bound`` (plus
loop-bound and unreachable-block consistency) on 50 deterministic seeds, and
replays every checked-in corpus seed.  Metamorphic laws check that switching
an analysis knob to its less precise setting never tightens a bound.  The
shrinker is exercised on a seeded known-bad program (a deliberately wrong
loop-bound annotation) and must reduce it to a handful of lines.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.api import AnalysisRequest, AnalysisService, Project
from repro.hardware import TraceTimer
from repro.hardware.processor import leon2_like, simple_scalar
from repro.ir import Interpreter
from repro.minic import compile_source
from repro.testing import (
    FeatureMix,
    GeneratedCase,
    OracleConfig,
    check_case,
    generate_case,
    load_corpus,
    render_case,
)
from repro.testing.fuzz import default_presets
from repro.testing.generator import GFunction, GlobalVar, SAssign, SFor, SIf, SWhileBreak
from repro.testing.oracle import DifferentialOracle, enumerate_inputs
from repro.testing.shrink import Shrinker
from repro.wcet.analyzer import AnalysisOptions

#: Fast-tier seeds: fixed, so failures are reproducible from the test id.
FAST_SEEDS = list(range(1, 51))
#: A few seeds re-checked on a cached processor (slower, so fewer).
CACHED_SEEDS = [3, 17, 42]

_FAST_CONFIG = OracleConfig(max_input_vectors=3)


class TestGenerator:
    def test_generation_is_deterministic(self):
        first = render_case(generate_case(7))
        second = render_case(generate_case(7))
        assert first.source == second.source
        assert len(first.annotations.loop_bounds) == len(second.annotations.loop_bounds)

    def test_distinct_seeds_differ(self):
        assert render_case(generate_case(1)).source != render_case(generate_case(2)).source

    def test_feature_mix_gates_features(self):
        mix = FeatureMix(allow_calls=False, allow_pointers=False)
        source = render_case(generate_case(11, mix=mix)).source
        assert "pw(" not in source
        assert "f0(" not in source

    def test_input_enumeration_covers_bounds_and_is_capped(self):
        inputs = [
            GlobalVar("in0", is_input=True, low=-8, high=8),
            GlobalVar("buf", length=8, is_input=True, low=0, high=3),
        ]
        vectors = enumerate_inputs(inputs, max_vectors=6, seed=1)
        assert len(vectors) == 6
        assert all(set(v) == {"in0", "buf"} for v in vectors)
        assert [-8] in [v["in0"] for v in vectors]
        repeat = enumerate_inputs(inputs, max_vectors=6, seed=1)
        assert vectors == repeat, "input enumeration must be deterministic"

    def test_no_inputs_yields_single_empty_vector(self):
        assert enumerate_inputs([], max_vectors=5) == [{}]


class TestSoundnessInvariant:
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_generated_program_is_sound(self, seed):
        """BCET <= observed <= WCET for every enumerated input vector."""
        result = check_case(generate_case(seed), _FAST_CONFIG)
        assert result.runs, f"seed {seed}: no concrete runs executed"
        assert result.ok, f"seed {seed}: {[str(v) for v in result.violations]}"
        for run in result.runs:
            assert result.bcet_cycles <= run.observed_cycles <= result.wcet_cycles

    @pytest.mark.parametrize("seed", CACHED_SEEDS)
    def test_generated_program_is_sound_with_caches(self, seed):
        config = OracleConfig(processor_factory=leon2_like, max_input_vectors=2)
        result = check_case(generate_case(seed), config)
        assert result.ok, f"seed {seed}: {[str(v) for v in result.violations]}"


#: One generator seed per fuzz preset, chosen so that every knob below
#: strictly raises the program's WCET on leon2: each law is checked on a
#: program where the knob bites.
KNOB_LAW_SEEDS = {
    "baseline": 1,
    "recursion": 2,
    "irreducible": 1,
    "fnptr": 2,
    "context-cap": 1,
    "all": 3,
}

#: Each knob's less precise setting.  The analysis under it must never
#: lower WCET and never raise BCET.
LESS_PRECISE_KNOBS = (
    {"use_instruction_cache": False},
    {"use_data_cache": False},
    {"context_sensitive_calls": False},
    {"max_contexts_per_function": 1},
)


class TestKnobLaws:
    @pytest.mark.parametrize(
        "preset", default_presets(), ids=lambda preset: preset.name
    )
    def test_less_precise_knob_never_tightens_bounds(self, preset):
        case = generate_case(KNOB_LAW_SEEDS[preset.name], mix=preset.mix)
        rendered = render_case(case)
        project = Project.from_source(
            rendered.source,
            entry=case.entry,
            annotations=rendered.annotations,
            processor=leon2_like(),
            cache="off",
        )
        options = preset.options or AnalysisOptions()

        def bounds(options):
            result = AnalysisService(project).analyze(
                AnalysisRequest(entry=case.entry, options=options)
            )
            return result.wcet_cycles, result.bcet_cycles

        wcet, bcet = bounds(options)
        for knob in LESS_PRECISE_KNOBS:
            knob_wcet, knob_bcet = bounds(dataclasses.replace(options, **knob))
            assert knob_wcet >= wcet and knob_bcet <= bcet, (
                f"{preset.name} seed {case.seed} {knob}: bounds "
                f"{knob_wcet}/{knob_bcet} tighter than {wcet}/{bcet}"
            )


#: Generator seeds whose programs pin the oracle's concrete outcomes, each
#: under every fuzz preset on both processors below.
ORACLE_PIN_SEEDS = (2, 5)
ORACLE_PIN_PROCESSORS = {"simple": simple_scalar, "leon2": leon2_like}
ORACLE_PIN_VECTORS = 3

#: ``"<preset>/<seed>/<processor>"`` -> (WCET, BCET, one row per input vector:
#: observed cycles, steps, return value, icache hits, icache misses, dcache
#: hits, dcache misses; a cache the processor lacks counts zero).  Computed
#: while the interpreter still decoded every instruction up front and the
#: trace timer simulated every fetch.
PINNED_ORACLE_OUTCOMES = {
    "baseline/2/simple": (8638, 205, (
        (4141, 1589, -3, 0, 0, 0, 0),
        (4141, 1589, 4605, 0, 0, 0, 0),
        (4188, 1611, 2301, 0, 0, 0, 0),
    )),
    "baseline/2/leon2": (17729, 207, (
        (4848, 1589, -3, 1511, 78, 483, 10),
        (4848, 1589, 4605, 1511, 78, 483, 10),
        (4902, 1611, 2301, 1532, 79, 486, 10),
    )),
    "baseline/5/simple": (2248, 126, (
        (521, 187, -1, 0, 0, 0, 0),
        (521, 187, -1, 0, 0, 0, 0),
        (521, 187, -1, 0, 0, 0, 0),
    )),
    "baseline/5/leon2": (4817, 127, (
        (751, 187, -1, 158, 29, 35, 6),
        (751, 187, -1, 158, 29, 35, 6),
        (754, 187, -1, 158, 29, 34, 7),
    )),
    "recursion/2/simple": (509, 263, (
        (424, 163, 0, 0, 0, 0, 0),
        (424, 163, 0, 0, 0, 0, 0),
        (424, 163, 0, 0, 0, 0, 0),
    )),
    "recursion/2/leon2": (1168, 272, (
        (629, 163, 0, 140, 23, 47, 8),
        (629, 163, 0, 140, 23, 47, 8),
        (629, 163, 0, 140, 23, 47, 8),
    )),
    "recursion/5/simple": (358, 179, (
        (355, 124, 0, 0, 0, 0, 0),
        (355, 124, 0, 0, 0, 0, 0),
        (355, 124, 0, 0, 0, 0, 0),
    )),
    "recursion/5/leon2": (741, 184, (
        (558, 124, 0, 99, 25, 39, 6),
        (558, 124, 0, 99, 25, 39, 6),
        (558, 124, 0, 99, 25, 39, 6),
    )),
    "irreducible/2/simple": (8833, 209, (
        (4290, 1655, 0, 0, 0, 0, 0),
        (4290, 1655, 0, 0, 0, 0, 0),
        (4337, 1677, 0, 0, 0, 0, 0),
    )),
    "irreducible/2/leon2": (17952, 212, (
        (5028, 1655, 0, 1575, 80, 485, 11),
        (5028, 1655, 0, 1575, 80, 485, 11),
        (5075, 1677, 0, 1597, 80, 488, 11),
    )),
    "irreducible/5/simple": (2261, 139, (
        (534, 193, 1, 0, 0, 0, 0),
        (534, 193, 1, 0, 0, 0, 0),
        (534, 193, 1, 0, 0, 0, 0),
    )),
    "irreducible/5/leon2": (4840, 140, (
        (774, 193, 1, 163, 30, 35, 7),
        (774, 193, 1, 163, 30, 35, 7),
        (774, 193, 1, 163, 30, 35, 7),
    )),
    "fnptr/2/simple": (35488, 91, (
        (10375, 4190, 9, 0, 0, 0, 0),
        (10375, 4190, 9, 0, 0, 0, 0),
        (12173, 4916, 9, 0, 0, 0, 0),
    )),
    "fnptr/2/leon2": (80341, 92, (
        (11707, 4190, 9, 4091, 99, 886, 15),
        (11707, 4190, 9, 4091, 99, 886, 15),
        (13685, 4916, 9, 4808, 108, 1037, 15),
    )),
    "fnptr/5/simple": (8874, 201, (
        (1693, 657, -5, 0, 0, 0, 0),
        (1690, 655, -5, 0, 0, 0, 0),
        (1588, 617, -5, 0, 0, 0, 0),
    )),
    "fnptr/5/leon2": (18483, 205, (
        (2197, 657, -5, 599, 58, 153, 9),
        (2195, 655, -5, 597, 58, 153, 9),
        (2038, 617, -5, 566, 51, 145, 8),
    )),
    "context-cap/2/simple": (8770, 205, (
        (4141, 1589, -3, 0, 0, 0, 0),
        (4141, 1589, 4605, 0, 0, 0, 0),
        (4188, 1611, 2301, 0, 0, 0, 0),
    )),
    "context-cap/2/leon2": (19148, 207, (
        (4848, 1589, -3, 1511, 78, 483, 10),
        (4848, 1589, 4605, 1511, 78, 483, 10),
        (4902, 1611, 2301, 1532, 79, 486, 10),
    )),
    "context-cap/5/simple": (2248, 126, (
        (521, 187, -1, 0, 0, 0, 0),
        (521, 187, -1, 0, 0, 0, 0),
        (521, 187, -1, 0, 0, 0, 0),
    )),
    "context-cap/5/leon2": (4817, 127, (
        (751, 187, -1, 158, 29, 35, 6),
        (751, 187, -1, 158, 29, 35, 6),
        (754, 187, -1, 158, 29, 34, 7),
    )),
    "all/2/simple": (4033, 263, (
        (3738, 1310, -7, 0, 0, 0, 0),
        (3738, 1310, -7, 0, 0, 0, 0),
        (2787, 965, -7, 0, 0, 0, 0),
    )),
    "all/2/leon2": (7966, 270, (
        (4579, 1310, -7, 1212, 98, 300, 14),
        (4579, 1310, -7, 1212, 98, 300, 14),
        (3413, 965, -7, 892, 73, 214, 14),
    )),
    "all/5/simple": (2333, 94, (
        (907, 346, 0, 0, 0, 0, 0),
        (907, 346, 0, 0, 0, 0, 0),
        (475, 176, 0, 0, 0, 0, 0),
    )),
    "all/5/leon2": (5351, 96, (
        (1228, 346, 0, 311, 35, 85, 8),
        (1228, 346, 0, 311, 35, 85, 8),
        (708, 176, 0, 149, 27, 41, 6),
    )),
}
#: SHA-256 of ``_outcome_lines(PINNED_ORACLE_OUTCOMES)``, first 16 digits.
PINNED_ORACLE_DIGEST = "6d2e3f73ab2632df"


def _outcome_lines(table) -> str:
    return "\n".join(
        f"{key}:{wcet}:{bcet}:" + ";".join(",".join(map(str, run)) for run in runs)
        for key, (wcet, bcet, runs) in sorted(table.items())
    )


def _oracle_outcome(preset, seed: int, processor_name: str):
    """The oracle's bounds and runs, with each run's cache counts from a
    replay of the same vectors on a fresh compile of the same source."""
    factory = ORACLE_PIN_PROCESSORS[processor_name]
    case = generate_case(seed, mix=preset.mix)
    rendered = render_case(case)
    result = DifferentialOracle(
        OracleConfig(
            processor_factory=factory,
            max_input_vectors=ORACLE_PIN_VECTORS,
            analysis_options=preset.options,
        )
    ).check(case, rendered)
    assert result.ok, [str(violation) for violation in result.violations]

    program = compile_source(rendered.source)
    interpreter = Interpreter(program, max_steps=case.max_steps)
    timer = TraceTimer(factory(), program)
    vectors = enumerate_inputs(case.input_variables(), ORACLE_PIN_VECTORS)
    assert len(vectors) == len(result.runs)
    runs = []
    for run, vector in zip(result.runs, vectors):
        execution = interpreter.run(case.entry, initial_data=vector)
        timing = timer.time(execution.trace)
        assert (timing.cycles, execution.steps, execution.return_value) == (
            run.observed_cycles,
            run.steps,
            run.return_value,
        )
        counts = []
        for stats in (timing.icache_stats, timing.dcache_stats):
            counts += [stats.hits, stats.misses] if stats else [0, 0]
        runs.append((run.observed_cycles, run.steps, run.return_value, *counts))
    return result.wcet_cycles, result.bcet_cycles, tuple(runs)


class TestOracleOutcomePins:
    """Replay work may be skipped or reordered, never changed: the oracle's
    concrete outcomes on 24 programs are pinned exactly."""

    def test_pin_table_is_complete_and_matches_its_digest(self):
        expected = {
            f"{preset.name}/{seed}/{processor}"
            for preset in default_presets()
            for seed in ORACLE_PIN_SEEDS
            for processor in ORACLE_PIN_PROCESSORS
        }
        assert set(PINNED_ORACLE_OUTCOMES) == expected
        digest = hashlib.sha256(_outcome_lines(PINNED_ORACLE_OUTCOMES).encode())
        assert digest.hexdigest()[:16] == PINNED_ORACLE_DIGEST

    @pytest.mark.parametrize("key", sorted(PINNED_ORACLE_OUTCOMES))
    def test_oracle_outcomes_are_pinned(self, key):
        preset_name, seed, processor = key.split("/")
        preset = next(p for p in default_presets() if p.name == preset_name)
        assert _oracle_outcome(preset, int(seed), processor) == (
            PINNED_ORACLE_OUTCOMES[key]
        ), f"{key}: oracle outcomes moved"


class TestCorpus:
    def _cases(self):
        cases = load_corpus()
        assert len(cases) >= 6, "corpus seeds are missing"
        return cases

    def test_corpus_loads(self):
        for case in self._cases():
            assert case.source.strip()
            assert case.description, f"{case.name}: corpus cases document why they exist"

    @pytest.mark.parametrize(
        "name",
        [
            "regress-branch-penalty-fallthrough",
            "regress-context-pointer-arg",
            "regress-xor-negative-constant",
            "adversarial-irreducible-goto-loop",
            "adversarial-deep-call-chain",
            "adversarial-aliasing-pointers",
            "adversarial-recursion-depth",
            "adversarial-fnptr-dual-target",
        ],
    )
    def test_corpus_case_stays_sound(self, name):
        case = next(c for c in load_corpus() if c.name == name)
        result = check_case(case, _FAST_CONFIG)
        assert result.ok, f"{name}: {[str(v) for v in result.violations]}"

    def test_aliasing_case_computes_correct_result(self):
        """The aliasing corpus program's functional result matches C semantics."""
        from repro.ir import Interpreter
        from repro.minic import compile_source

        case = next(c for c in load_corpus() if c.name == "adversarial-aliasing-pointers")
        program = compile_source(case.source, entry=case.entry)
        execution = Interpreter(program).run(case.entry)
        # g0=3, g1=4: mix(&g0,&g1) -> g0=13,g1=6; mix(&g0,&g0) -> g0=50;
        # mix(&g1,&g1) -> g1=22; total 72.
        assert execution.return_value == 72


def _known_bad_case() -> GeneratedCase:
    """A program whose loop annotation understates the real iteration count.

    The while loop runs 8 iterations but is annotated with 2, so the static
    WCET undercuts the observed time — a seeded, deterministic violation the
    shrinker must reduce to its essence (the loop), stripping the noise
    (helper function, extra loop, dead branches).
    """
    case = GeneratedCase(name="known-bad", seed=0)
    case.globals_.append(GlobalVar("in0", is_input=True))
    case.globals_.append(GlobalVar("g0", initial=2))
    case.functions.append(
        GFunction(
            name="f0",
            params=[],
            locals_=[("t", "1")],
            body=[SAssign("t", "t * 3"), SAssign("g0", "g0 + t")],
            return_expr="t",
        )
    )
    main = GFunction(name="main", params=[])
    main.locals_ = [("v0", "1"), ("i0", "0"), ("i1", "0"), ("acc", "0")]
    main.body = [
        SFor(var="i1", bound=4, body=[SAssign("acc", "acc + i1")]),
        SIf(cond="in0 > 0", then=[SAssign("acc", "acc + 1")], els=[SAssign("acc", "acc - 1")]),
        SWhileBreak(
            var="i0",
            bound=8,
            body=[SAssign("v0", "v0 + i0")],
            break_cond=None,
            annotate=2,   # deliberately wrong: the loop takes 8 iterations
        ),
        SAssign("g0", "g0 + acc"),
    ]
    main.return_expr = "v0"
    case.functions.append(main)
    return case


class TestShrinker:
    def test_known_bad_program_fails_the_oracle(self):
        result = check_case(_known_bad_case(), _FAST_CONFIG)
        assert not result.ok
        assert "wcet-undercut" in result.violation_kinds()

    def test_shrinker_minimises_known_bad_to_few_lines(self):
        shrunk = Shrinker(_FAST_CONFIG, max_checks=200).shrink(_known_bad_case())
        assert not shrunk.result.ok, "shrinking must preserve the violation"
        assert "wcet-undercut" in shrunk.result.violation_kinds()
        assert shrunk.line_count <= 15, render_case(shrunk.case).source
        # The essential ingredient — the badly annotated loop — must survive.
        assert "while" in render_case(shrunk.case).source

    def test_shrinker_rejects_sound_cases(self):
        with pytest.raises(ValueError):
            Shrinker(_FAST_CONFIG).shrink(generate_case(1))
