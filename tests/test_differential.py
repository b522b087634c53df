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

import pytest

from repro.api import AnalysisRequest, AnalysisService, Project
from repro.hardware.processor import leon2_like
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
from repro.testing.oracle import enumerate_inputs
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
