"""Coverage for the two least-tested wcet modules.

* :mod:`repro.wcet.simplex` — the dependency-free two-phase simplex solver:
  optimal, degenerate, unbounded and infeasible problems, equality handling,
  negative right-hand sides and minimisation.  The IPET results on real CFGs
  are checked against HiGHS in ``test_ilp_oracle.py``.
* :mod:`repro.wcet.report` — report construction and text rendering.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.hardware.processor import simple_scalar
from repro.wcet import WCETAnalyzer
from repro.wcet.report import (
    ChallengeReport,
    FunctionReport,
    LoopReport,
    PhaseTiming,
    WCETReport,
)
from repro.wcet.simplex import SimplexResult, solve_sparse_lp


class TestSimplexOptimal:
    def test_simple_maximisation(self):
        # max x + y  s.t. x + y <= 4, x <= 2  ->  4
        result = solve_sparse_lp([1, 1], [{0: 1, 1: 1}, {0: 1}], [4, 2], [], [])
        assert result.status == "optimal"
        assert result.objective == pytest.approx(4.0)

    def test_minimisation(self):
        # min x + y  s.t. x + y >= 3 (as -x - y <= -3)  ->  3
        result = solve_sparse_lp([1, 1], [{0: -1, 1: -1}], [-3], [], [], maximise=False)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(3.0)

    def test_equality_constraints(self):
        # max x  s.t. x + y == 3, x <= 2  ->  x = 2, y = 1
        result = solve_sparse_lp([1, 0], [{0: 1}], [2], [{0: 1, 1: 1}], [3])
        assert result.status == "optimal"
        assert result.objective == pytest.approx(2.0)
        assert result.values == pytest.approx([2.0, 1.0])

    def test_negative_rhs_equality_is_normalised(self):
        # max x  s.t. -x == -3  ->  x = 3
        result = solve_sparse_lp([1], [], [], [{0: -1}], [-3])
        assert result.status == "optimal"
        assert result.objective == pytest.approx(3.0)

    def test_zero_objective(self):
        result = solve_sparse_lp([0, 0], [{0: 1}, {1: 1}], [1, 1], [], [])
        assert result.status == "optimal"
        assert result.objective == pytest.approx(0.0)


class TestSimplexDegenerate:
    def test_redundant_constraints(self):
        # The same constraint three times: degenerate pivots must not cycle
        # (Bland's rule) and the optimum is still found.
        result = solve_sparse_lp(
            [1, 1],
            [{0: 1, 1: 1}, {0: 1, 1: 1}, {0: 1, 1: 1}, {0: 1}, {1: 1}],
            [2, 2, 2, 1, 1],
            [],
            [],
        )
        assert result.status == "optimal"
        assert result.objective == pytest.approx(2.0)

    def test_degenerate_vertex_zero_rhs(self):
        # A constraint with rhs 0 forces a degenerate basic solution.
        result = solve_sparse_lp([2, 1], [{0: 1, 1: -1}, {0: 1, 1: 1}], [0, 4], [], [])
        assert result.status == "optimal"
        assert result.objective == pytest.approx(6.0)  # x = y = 2

    def test_classic_cycling_example_terminates(self):
        # Beale's cycling example — terminates only with an anti-cycling rule.
        result = solve_sparse_lp(
            [0.75, -150, 0.02, -6],
            [
                {0: 0.25, 1: -60, 2: -1 / 25, 3: 9},
                {0: 0.5, 1: -90, 2: -1 / 50, 3: 3},
                {2: 1},
            ],
            [0, 0, 1],
            [],
            [],
        )
        assert result.status == "optimal"
        assert result.objective == pytest.approx(0.05)


class TestSimplexUnboundedInfeasible:
    def test_unbounded_problem(self):
        # max x with no constraints at all: x can grow without limit.
        result = solve_sparse_lp([1], [], [], [], [])
        assert result.status == "unbounded"

    def test_unbounded_direction_in_one_variable(self):
        # y is bounded but x is free to grow.
        result = solve_sparse_lp([1, 1], [{1: 1}], [5], [], [])
        assert result.status == "unbounded"

    def test_infeasible_contradictory_bounds(self):
        # x <= 1 and x >= 2 cannot both hold.
        result = solve_sparse_lp([1], [{0: 1}, {0: -1}], [1, -2], [], [])
        assert result.status == "infeasible"

    def test_infeasible_equality(self):
        # x + y == -5 with x, y >= 0 is impossible.
        result = solve_sparse_lp([1, 1], [], [], [{0: 1, 1: 1}], [-5])
        assert result.status == "infeasible"

    def test_result_dataclass_defaults(self):
        result = SimplexResult(status="infeasible")
        assert result.objective == 0.0
        assert result.values is None


class TestReportRendering:
    def _real_report(self, counter_loop_program) -> WCETReport:
        return WCETAnalyzer(counter_loop_program, simple_scalar()).analyze()

    def test_format_text_contains_key_sections(self, counter_loop_program):
        report = self._real_report(counter_loop_program)
        text = report.format_text()
        assert "WCET analysis of task 'main'" in text
        assert f"WCET bound : {report.wcet_cycles} cycles" in text
        assert f"BCET bound : {report.bcet_cycles} cycles" in text
        assert "Analysis phases (Figure 1):" in text
        assert "Per-function bounds:" in text
        assert "main" in text and "scale" in text
        assert "Loop bounds:" in text

    def test_entry_report_and_function_names(self, counter_loop_program):
        report = self._real_report(counter_loop_program)
        assert report.entry_report.name == "main"
        assert report.function_names() == ["main", "scale"]
        assert report.entry_report.wcet_cycles == report.wcet_cycles

    def test_phase_seconds_aggregates_by_phase(self):
        report = WCETReport(
            entry="main",
            processor="p",
            wcet_cycles=10,
            bcet_cycles=5,
            phases=[
                PhaseTiming("decoding", 0.25),
                PhaseTiming("path analysis", 0.5),
                PhaseTiming("path analysis", 0.25, detail="second run"),
            ],
        )
        totals = report.phase_seconds()
        assert totals["decoding"] == pytest.approx(0.25)
        assert totals["path analysis"] == pytest.approx(0.75)

    def test_mode_and_scenario_shown_in_title(self):
        report = WCETReport(
            entry="task",
            processor="leon2-like",
            wcet_cycles=1,
            bcet_cycles=1,
            functions={"task": FunctionReport(name="task", wcet_cycles=1, bcet_cycles=1)},
            mode="ground",
            error_scenario="single_fault",
        )
        text = report.format_text()
        assert "[mode: ground]" in text
        assert "[error scenario: single_fault]" in text

    def test_challenges_render_in_tiers(self):
        # A tier-one challenge stops the analysis, so only a report decoded
        # from another peer carries one; the text still renders it.
        challenges = ChallengeReport(
            tier_one=["unresolved indirect call"],
            tier_two=["loop bounded only by annotation"],
        )
        assert not challenges.is_clean
        report = WCETReport(
            entry="t",
            processor="p",
            wcet_cycles=0,
            bcet_cycles=0,
            challenges=challenges,
            annotation_summary={"loop_bounds": 1},
        )
        text = report.format_text()
        assert "Tier-one challenges" in text
        assert "unresolved indirect call" in text
        assert "Tier-two challenges" in text
        assert "loop bounded only by annotation" in text
        assert "Annotations used:" in text

    def test_loop_report_str_for_bounded_and_unbounded(self):
        bounded = LoopReport(function="f", header=0x1000, bound=8, source="analysis")
        unbounded = LoopReport(
            function="f", header=0x2000, bound=None, source="unbounded", irreducible=True
        )
        assert "<= 8 iterations" in str(bounded)
        assert "unbounded" in str(unbounded)
        assert "(irreducible)" in str(unbounded)

    def test_function_report_helpers(self):
        function = FunctionReport(
            name="f",
            wcet_cycles=100,
            bcet_cycles=10,
            block_counts={0x1000: 2, 0x1010: 0, 0x1020: 1},
            loop_reports=[
                LoopReport(function="f", header=0x1000, bound=4, source="analysis"),
                LoopReport(function="f", header=0x1010, bound=None, source="unbounded"),
            ],
        )
        assert function.worst_case_blocks() == [0x1000, 0x1020]
        assert function.total_loop_bound_iterations() == 4

    def test_str_summary(self, counter_loop_program):
        report = self._real_report(counter_loop_program)
        summary = str(report)
        assert "main" in summary and str(report.wcet_cycles) in summary
