"""Tests of the repro.api facade: Project/Service, JSON schema, CLI, shims.

The serialisation tests are property-style: randomised report objects (seeded
generators, dozens of draws) must survive ``to_json -> json text -> from_json``
*exactly* — dataclass equality, field for field.  The CLI test pins the
acceptance criterion of the facade redesign: ``python -m repro analyze --json``
on the flight-control workload produces the same WCET/BCET values as the
pre-redesign ``WCETAnalyzer`` API.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.api import (
    CACHE_ENV_VAR,
    AnalysisRequest,
    AnalysisResult,
    AnalysisService,
    Project,
    ProjectError,
    SchemaError,
    from_json,
    resolve_summary_store,
    to_json,
)
from repro.api.cli import main as cli_main
from repro.cache import SummaryStore
from repro.guidelines.checker import GuidelineReport
from repro.guidelines.finding import ChallengeTier, Finding, Severity
from repro.hardware.pipeline import BlockTimeBounds
from repro.hardware.processor import simple_scalar
from repro.wcet.analyzer import WCETAnalyzer
from repro.wcet.report import (
    ChallengeReport,
    FunctionReport,
    LoopReport,
    PhaseTiming,
    WCETReport,
)
from repro.workloads import flight_control
from repro.workloads.catalog import catalog


#: The 96 paper requests: every catalog workload but ``dispatch`` (a
#: deliberate tier-one refusal) on each processor model.
PAPER_REQUESTS = [
    (workload, processor)
    for workload in sorted(catalog())
    if workload != "dispatch"
    for processor in ("simple", "leon2", "mpc5554", "hcs12x")
]


#: The first 16 hex digits of a sha256 over the report identities of the
#: paper requests (all modes where declared) and of error-monitor on leon2
#: under no scenario and under each of its two error scenarios.
REPORT_IDENTITY_DIGEST = "b7483e3315fa8608"


def report_identity_digest() -> str:
    from repro.testing.fuzz import report_identity

    identities = []
    for workload, processor in PAPER_REQUESTS:
        project = Project.from_workload(workload, processor=processor, cache="off")
        request = AnalysisRequest(all_modes=bool(project.annotations.mode_names()))
        result = AnalysisService(project).analyze(request)
        identities.append(
            {str(mode): report_identity(report) for mode, report in result.reports.items()}
        )
    for scenario in (None, "single_fault", "errors_excluded"):
        project = Project.from_workload("error-monitor", processor="leon2", cache="off")
        result = AnalysisService(project).analyze(AnalysisRequest(error_scenario=scenario))
        identities.append(report_identity(result.report))
    text = json.dumps(identities, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_paper_report_identities_are_pinned():
    """Every analyzer speed-up must report the same bounds and details."""
    assert report_identity_digest() == REPORT_IDENTITY_DIGEST


def roundtrip(obj):
    """to_json -> real JSON text -> from_json (the cross-process path)."""
    return from_json(json.loads(json.dumps(to_json(obj))))


# --------------------------------------------------------------------------- #
# Randomised report builders (seeded — the draws are deterministic per test)
# --------------------------------------------------------------------------- #
def make_block_times(rng: random.Random) -> BlockTimeBounds:
    bcet = rng.randrange(0, 500)
    return BlockTimeBounds(
        block_id=rng.randrange(0, 1 << 16),
        wcet_cycles=bcet + rng.randrange(0, 500),
        bcet_cycles=bcet,
        fetch_cycles=rng.randrange(0, 100),
        compute_cycles=rng.randrange(0, 100),
        memory_cycles=rng.randrange(0, 100),
        branch_cycles=rng.randrange(0, 10),
    )


def make_loop_report(rng: random.Random) -> LoopReport:
    bounded = rng.random() < 0.7
    return LoopReport(
        function=rng.choice(["main", "isr", "control_law"]),
        header=rng.randrange(0, 1 << 20),
        bound=rng.randrange(1, 4096) if bounded else None,
        source=rng.choice(["analysis", "annotation", "unbounded"]),
        irreducible=rng.random() < 0.2,
        failure_reason="" if bounded else "no-counter",
        detail=rng.choice(["", "i in [0, 16)", "annotated: ring buffer"]),
    )


def make_function_report(rng: random.Random, name: str = "main") -> FunctionReport:
    blocks = [make_block_times(rng) for _ in range(rng.randrange(1, 6))]
    bcet = rng.randrange(0, 10_000)
    return FunctionReport(
        name=name,
        wcet_cycles=bcet + rng.randrange(0, 100_000),
        bcet_cycles=bcet,
        loop_reports=[make_loop_report(rng) for _ in range(rng.randrange(0, 4))],
        block_times={bounds.block_id: bounds for bounds in blocks},
        block_counts={bounds.block_id: rng.randrange(0, 64) for bounds in blocks},
        icache_summary={"AH": rng.randrange(0, 40), "NC": rng.randrange(0, 5)},
        dcache_summary={"AM": rng.randrange(0, 40)},
        unreachable_blocks=sorted(rng.sample(range(64), rng.randrange(0, 3))),
        imprecise_accesses=rng.randrange(0, 9),
        unknown_accesses=rng.randrange(0, 9),
        callee_wcet={rng.randrange(0, 1 << 20): rng.randrange(0, 9999)},
        ilp_nodes=rng.randrange(1, 12),
        context=rng.choice(["main", "scale[r3=[0,15]]", ""]),
    )


def make_wcet_report(rng: random.Random) -> WCETReport:
    functions = {
        name: make_function_report(rng, name)
        for name in rng.sample(["main", "isr", "control_law", "filter"], 2)
    }
    entry = next(iter(functions))
    return WCETReport(
        entry=entry,
        processor=rng.choice(["simple-scalar", "leon2-like"]),
        wcet_cycles=functions[entry].wcet_cycles,
        bcet_cycles=functions[entry].bcet_cycles,
        functions=functions,
        phases=[
            PhaseTiming("decoding", rng.random() / 7, "128 basic blocks"),
            PhaseTiming("path analysis", rng.random() / 3),
        ],
        challenges=ChallengeReport(
            tier_one=[f"t1 #{rng.randrange(99)}"] * rng.randrange(0, 3),
            tier_two=[f"t2 #{rng.randrange(99)}"] * rng.randrange(0, 3),
        ),
        mode=rng.choice([None, "ground", "air"]),
        error_scenario=rng.choice([None, "single_fault"]),
        annotation_summary={"loop_bounds": rng.randrange(0, 9)},
    )


def make_finding(rng: random.Random) -> Finding:
    return Finding(
        rule=rng.choice(["13.4", "16.2", "20.4"]),
        title="rule title",
        severity=rng.choice(list(Severity)),
        function=rng.choice(["main", ""]),
        line=rng.randrange(1, 500),
        message=f"violation #{rng.randrange(999)}",
        challenge=rng.choice(list(ChallengeTier)),
        wcet_impact=rng.choice(["", "loop bound not derivable"]),
    )


# --------------------------------------------------------------------------- #
class TestJsonRoundTrip:
    """Round-trip equals original, for every report type (satellite task)."""

    @pytest.mark.parametrize("seed", range(25))
    def test_function_report(self, seed):
        report = make_function_report(random.Random(seed))
        assert roundtrip(report) == report

    @pytest.mark.parametrize("seed", range(25))
    def test_wcet_report(self, seed):
        report = make_wcet_report(random.Random(seed))
        assert roundtrip(report) == report

    @pytest.mark.parametrize("seed", range(25))
    def test_challenge_report(self, seed):
        rng = random.Random(seed)
        report = ChallengeReport(
            tier_one=[f"m{rng.randrange(99)}" for _ in range(rng.randrange(4))],
            tier_two=[f"m{rng.randrange(99)}" for _ in range(rng.randrange(4))],
        )
        assert roundtrip(report) == report

    @pytest.mark.parametrize("seed", range(25))
    def test_guideline_finding(self, seed):
        finding = make_finding(random.Random(seed))
        assert roundtrip(finding) == finding

    @pytest.mark.parametrize("seed", range(10))
    def test_guideline_report(self, seed):
        rng = random.Random(seed)
        report = GuidelineReport(
            findings=[make_finding(rng) for _ in range(rng.randrange(0, 6))],
            rules_checked=["13.4", "16.2"],
        )
        assert roundtrip(report) == report

    @pytest.mark.parametrize("seed", range(10))
    def test_analysis_result(self, seed):
        rng = random.Random(seed)
        result = AnalysisResult(
            label="synthetic",
            entry="main",
            processor="simple-scalar",
            reports={
                None: make_wcet_report(rng),
                "ground": make_wcet_report(rng),
            },
            guidelines=GuidelineReport(
                findings=[make_finding(rng)], rules_checked=["20.4"]
            ),
            cache_stats={"tier1_hits": rng.randrange(99)},
            seconds=rng.random() * 10,
        )
        assert roundtrip(result) == result

    def test_real_analysis_result_roundtrips_exactly(self):
        """A full flight-control all-modes result survives JSON bit for bit."""
        project = Project.from_workload("flight-control", cache="off")
        result = AnalysisService(project).analyze(AnalysisRequest(all_modes=True))
        again = roundtrip(result)
        assert again == result
        # And the serialised forms are identical too (stable text output).
        assert json.dumps(to_json(again)) == json.dumps(to_json(result))

    @pytest.mark.parametrize(
        "workload, processor",
        PAPER_REQUESTS,
        ids=[f"{workload}-{processor}" for workload, processor in PAPER_REQUESTS],
    )
    def test_paper_result_roundtrips_exactly(self, workload, processor):
        """Every paper workload's real result passes the type-checked loader
        and survives JSON bit for bit, all modes where it declares modes."""
        project = Project.from_workload(workload, processor=processor, cache="off")
        request = AnalysisRequest(all_modes=bool(project.annotations.mode_names()))
        result = AnalysisService(project).analyze(request)
        text = json.dumps(to_json(result))
        again = from_json(json.loads(text))
        assert again == result
        assert json.dumps(to_json(again)) == text

    def test_guideline_checked_result_roundtrips_exactly(self):
        project = Project.from_source(GOTO_SOURCE, cache="off")
        request = AnalysisRequest(check_guidelines=True)
        result = AnalysisService(project).analyze(request)
        assert result.guidelines is not None and result.guidelines.findings
        text = json.dumps(to_json(result))
        again = from_json(json.loads(text))
        assert again == result
        assert json.dumps(to_json(again)) == text

    def test_slim_report_roundtrips(self):
        project = Project.from_workload("flight-control", cache="off")
        report = AnalysisService(project).analyze().report.slim()
        assert roundtrip(report) == report

    def test_convenience_methods(self):
        rng = random.Random(7)
        report = make_wcet_report(rng)
        assert WCETReport.from_json(report.to_json()) == report
        finding = make_finding(rng)
        assert Finding.from_json(finding.to_json()) == finding


class TestSchemaValidation:
    def test_unknown_schema_version_rejected(self):
        data = to_json(make_wcet_report(random.Random(0)))
        data["schema"] = 99
        with pytest.raises(SchemaError, match="unsupported schema version"):
            from_json(data)

    def test_nested_unknown_version_rejected(self):
        data = to_json(make_wcet_report(random.Random(0)))
        next(iter(data["functions"].values()))["schema"] = 0
        with pytest.raises(SchemaError, match="unsupported schema version"):
            from_json(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="unknown serialised kind"):
            from_json({"schema": 1, "kind": "FluxCapacitorReport"})

    def test_expected_kind_mismatch_rejected(self):
        data = to_json(ChallengeReport(tier_one=["x"]))
        with pytest.raises(SchemaError, match="expected a serialised WCETReport"):
            from_json(data, WCETReport)

    def test_missing_envelope_rejected(self):
        with pytest.raises(SchemaError):
            from_json({"entry": "main"})
        with pytest.raises(SchemaError):
            from_json([1, 2, 3])

    def test_missing_field_rejected(self):
        data = to_json(make_finding(random.Random(1)))
        del data["message"]
        with pytest.raises(SchemaError, match="missing field"):
            from_json(data)


# --------------------------------------------------------------------------- #
class TestProject:
    def test_exactly_one_source_required(self):
        with pytest.raises(ProjectError):
            Project()
        with pytest.raises(ProjectError):
            Project(source="int main(void) { return 0; }", assembly=".func main\n halt")

    def test_from_workload_accepts_both_spellings(self):
        for name in ("flight-control", "flight_control"):
            project = Project.from_workload(name, cache="off")
            assert project.entry == "main"
            assert project.annotations.mode_names() == ["air", "ground"]

    def test_unknown_processor_rejected(self):
        with pytest.raises(ProjectError, match="unknown processor"):
            Project.from_source("int main(void){return 0;}", processor="z80")

    def test_annotation_text_parsed(self):
        project = Project.from_source(
            "int main(void){return 0;}",
            annotations="recursion traverse 4\n",
        )
        assert project.annotations.recursion_bound_for("traverse").max_depth == 4

    def test_guidelines_need_source(self):
        project = Project.from_assembly(".func main\n    halt", cache="off")
        with pytest.raises(ProjectError, match="no mini-C source"):
            AnalysisService(project).check_guidelines()


class TestCachePrecedence:
    """Satellite task: one documented precedence order for cache wiring."""

    def test_precedence_order(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        # off / None disable caching outright.
        assert resolve_summary_store("off") is None
        assert resolve_summary_store(None) is None
        # auto with nothing configured: no store.
        assert resolve_summary_store("auto") is None
        # An empty environment variable configures nothing either.
        monkeypatch.setenv(CACHE_ENV_VAR, "")
        assert resolve_summary_store("auto") is None
        # auto + the environment variable.
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert resolve_summary_store("auto").path == str(tmp_path / "env")
        # an explicit path beats it...
        explicit = resolve_summary_store(str(tmp_path / "explicit"))
        assert explicit.path == str(tmp_path / "explicit")
        # ...and "off" still wins over everything.
        assert resolve_summary_store("off") is None
        # A store instance is passed through untouched.
        store = SummaryStore(str(tmp_path / "inst"))
        assert resolve_summary_store(store) is store

    def test_project_resolves_once(self, tmp_path):
        project = Project.from_source(
            "int main(void){return 0;}", cache=str(tmp_path / "store")
        )
        assert project.summary_store() is project.summary_store()
        assert project.summary_store().path == str(tmp_path / "store")


#: A mini-C program that analyses cleanly and breaks one guideline (a goto).
GOTO_SOURCE = """
int table[8];
int main(void) {
    int i;
    int total = 0;
    for (i = 0; i < 8; i++) {
        total = total + table[i];
    }
    if (total > 3) goto done;
    total = total * 2;
done:
    return total;
}
"""


# --------------------------------------------------------------------------- #
class TestServiceEquivalence:
    """The facade must reproduce the pre-redesign API's numbers exactly."""

    #: (wcet, bcet) of the flight-control workload on the default simple
    #: scalar, per mode, as computed by WCETAnalyzer before the facade
    #: redesign (and asserted against it live below).
    FLIGHT_CONTROL_PINS = {
        None: (2514, 87),
        "air": (2514, 284),
        "ground": (161, 87),
    }

    def test_facade_equals_legacy_analyzer(self):
        project = Project.from_workload("flight-control", cache="off")
        result = AnalysisService(project).analyze(AnalysisRequest(all_modes=True))
        legacy = WCETAnalyzer(
            flight_control.program(),
            simple_scalar(),
            annotations=flight_control.annotations(),
        ).analyze_all_modes()
        assert {
            mode: (r.wcet_cycles, r.bcet_cycles) for mode, r in result.reports.items()
        } == {
            mode: (r.wcet_cycles, r.bcet_cycles) for mode, r in legacy.items()
        }
        assert {
            mode: (r.wcet_cycles, r.bcet_cycles) for mode, r in result.reports.items()
        } == self.FLIGHT_CONTROL_PINS

    def test_analyze_many_matches_single_requests(self):
        project = Project.from_workload("message-handler", cache="off")
        service = AnalysisService(project)
        single = service.analyze(AnalysisRequest(label="one"))
        many = service.analyze_many(
            [AnalysisRequest(label="a"), AnalysisRequest(label="b")]
        )
        assert [r.wcet_cycles for r in many] == [single.wcet_cycles] * 2
        assert [r.bcet_cycles for r in many] == [single.bcet_cycles] * 2

    def test_all_modes_rejects_conflicting_mode(self):
        from repro.api import RequestError

        service = AnalysisService(Project.from_workload("flight-control", cache="off"))
        with pytest.raises(RequestError, match="all_modes"):
            service.analyze(AnalysisRequest(all_modes=True, mode="ground"))
        with pytest.raises(RequestError, match="all_modes"):
            service.analyze(
                AnalysisRequest(all_modes=True, error_scenario="single_fault")
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_analyze_many_runs_guideline_checks(self, jobs):
        """analyze_many serves check_guidelines exactly like analyze does,
        serially and in pool workers."""
        project = Project.from_source(GOTO_SOURCE, cache="off")
        service = AnalysisService(project)
        single = service.analyze(AnalysisRequest(check_guidelines=True))
        assert single.guidelines is not None and single.guidelines.findings
        many = service.analyze_many(
            [
                AnalysisRequest(check_guidelines=True, label="checked"),
                AnalysisRequest(label="unchecked"),
            ],
            jobs=jobs,
        )
        assert [r.label for r in many] == ["checked", "unchecked"]
        assert many[0].guidelines == single.guidelines
        assert many[1].guidelines is None
        assert [r.wcet_cycles for r in many] == [single.wcet_cycles] * 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_analyze_many_off_cache_never_uses_global_store(
        self, tmp_path, monkeypatch, jobs
    ):
        """A project's cache="off" stays off in analyze_many, serially and
        in pool workers (which inherit the environment), even when
        REPRO_CACHE_DIR names a store."""
        requests = [AnalysisRequest(label="a"), AnalysisRequest(label="b")]
        global_dir = tmp_path / "global-store"
        monkeypatch.setenv(CACHE_ENV_VAR, str(global_dir))
        project = Project.from_workload("message-handler", cache="off")
        AnalysisService(project).analyze_many(requests, jobs=jobs)
        assert not list(global_dir.glob("*.pkl")), (
            "cache='off' leaked into the REPRO_CACHE_DIR store"
        )
        # Sanity: the default cache setting does write through the store.
        project = Project.from_workload("message-handler")
        AnalysisService(project).analyze_many(requests, jobs=jobs)
        assert list(global_dir.glob("*.pkl"))


# --------------------------------------------------------------------------- #
class TestCli:
    def test_analyze_json_matches_pre_redesign_api(self, capsys):
        """Acceptance pin: the unified CLI reproduces the legacy values."""
        status = cli_main(
            ["analyze", "--workload", "flight_control", "--all-modes", "--json"]
        )
        assert status == 0
        data = json.loads(capsys.readouterr().out)
        result = from_json(data)
        assert isinstance(result, AnalysisResult)
        assert {
            mode: (r.wcet_cycles, r.bcet_cycles) for mode, r in result.reports.items()
        } == TestServiceEquivalence.FLIGHT_CONTROL_PINS
        # The emitted JSON round-trips through the schema unchanged.
        assert to_json(result) == data

    def test_analyze_text_output(self, capsys):
        status = cli_main(["analyze", "--workload", "message-handler"])
        assert status == 0
        out = capsys.readouterr().out
        assert "WCET bound" in out

    def test_analyze_error_exit_code(self, capsys, tmp_path):
        unbounded = tmp_path / "unbounded.c"
        unbounded.write_text(
            "int n;\nint main(void) { int i; int acc = 0;\n"
            "  for (i = 0; i < n; i++) { acc = acc + 1; }\n  return acc; }\n"
        )
        status = cli_main(["analyze", "--source", str(unbounded)])
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_check_json_roundtrips(self, capsys):
        status = cli_main(["check", "examples/problematic.c", "--json"])
        assert status == 0
        data = json.loads(capsys.readouterr().out)
        report = from_json(data)
        assert isinstance(report, GuidelineReport)
        assert not report.is_clean
        assert to_json(report) == data

    def test_check_strict_fails_on_tier_one(self, capsys):
        status = cli_main(["check", "examples/problematic.c", "--strict"])
        assert status == 1

    def test_report_command_reads_saved_json(self, capsys, tmp_path):
        out_file = tmp_path / "result.json"
        status = cli_main(
            [
                "analyze",
                "--workload",
                "flight-control",
                "--json",
                "--output",
                str(out_file),
            ]
        )
        assert status == 0
        capsys.readouterr()
        status = cli_main(["report", str(out_file)])
        assert status == 0
        assert "WCET analysis of task" in capsys.readouterr().out

    def test_report_command_rejects_foreign_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 42, "kind": "WCETReport"}')
        # Malformed input is a usage error: exit 2 (documented contract).
        assert cli_main(["report", str(bad)]) == 2
        assert "unsupported schema version" in capsys.readouterr().err

    def test_analyze_all_modes_with_mode_is_an_error(self, capsys):
        status = cli_main(
            ["analyze", "--workload", "flight-control", "--all-modes",
             "--mode", "ground"]
        )
        assert status == 1
        assert "all_modes" in capsys.readouterr().err

    def test_analyze_workload_merges_annotation_file(self, tmp_path):
        from repro.api.cli import build_parser, _project_from_args

        extra = tmp_path / "extra.ann"
        extra.write_text("recursion traverse 4\n")
        args = build_parser().parse_args(
            ["analyze", "--workload", "flight-control",
             "--annotations", str(extra)]
        )
        project = _project_from_args(args)
        # Both the workload's own facts and the user's file survive the merge.
        assert project.annotations.mode_names() == ["air", "ground"]
        assert project.annotations.recursion_bound_for("traverse").max_depth == 4

    def test_sweep_output_requires_json(self, capsys, tmp_path):
        status = cli_main(
            ["sweep", "--count", "1", "--output", str(tmp_path / "s.txt")]
        )
        assert status == 2
        assert "--output requires --json" in capsys.readouterr().err

    def test_report_missing_or_malformed_file(self, capsys, tmp_path):
        # Unusable input exits 2 (usage error), never 0 or 1.
        assert cli_main(["report", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err
        notes = tmp_path / "notes.txt"
        notes.write_text("not json at all")
        assert cli_main(["report", str(notes)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_json_summary(self, capsys):
        status = cli_main(
            ["sweep", "--count", "2", "--base-seed", "11", "--json"]
        )
        assert status == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "SweepSummary"
        assert data["programs"] == 2
        assert data["violating"] == 0
