"""Tests for the ILP solver, the IPET formulation and the WCET analyzer."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annotations import AnnotationSet
from repro.errors import (
    CFGError,
    InfeasibleILPError,
    PathAnalysisError,
    UnboundedILPError,
    UnboundedLoopError,
)
from repro.cfg import find_loops, reconstruct_cfg
from repro.hardware import TraceTimer, leon2_like, simple_scalar
from repro.ir import Interpreter, parse_assembly
from repro.wcet import (
    AnalysisOptions,
    ILPSystem,
    IPETBuilder,
    WCETAnalyzer,
    simplex,
    solve_ilp,
)
from repro.wcet.ipet import ResolvedFlowConstraint
from test_ilp_oracle import check_pair, full_ipet, highs, record


# --------------------------------------------------------------------------- #
# ILP solver
# --------------------------------------------------------------------------- #
def _knapsack_bruteforce(weights, values, capacity):
    best = 0
    n = len(weights)
    for mask in itertools.product([0, 1], repeat=n):
        weight = sum(w * m for w, m in zip(weights, mask))
        if weight <= capacity:
            best = max(best, sum(v * m for v, m in zip(values, mask)))
    return best


def _system(num_columns, ub=(), eq=()):
    """An ILPSystem from ``(row, bound)`` pairs of ``{column: coefficient}`` rows."""
    return ILPSystem(
        num_columns,
        a_ub=[row for row, _ in ub], b_ub=[bound for _, bound in ub],
        a_eq=[row for row, _ in eq], b_eq=[bound for _, bound in eq],
    )


class TestILP:
    """The in-tree branch and bound, checked by hand and against HiGHS."""

    def test_simple_maximisation(self):
        system = _system(2, ub=[({0: 1, 1: 1}, 4), ({0: 1}, 2)])
        solution = solve_ilp(system, [3, 2])
        assert solution.objective == pytest.approx(10)
        assert solution.int_value(0) == 2 and solution.int_value(1) == 2
        assert highs(system, [3, 2], True) == pytest.approx(10)

    def test_equality_constraints(self):
        system = _system(2, ub=[({0: 2, 1: 2}, 5)], eq=[({0: 1, 1: -1}, 0)])
        solution = solve_ilp(system, [1, 1])
        assert solution.objective == pytest.approx(2)
        assert highs(system, [1, 1], True) == pytest.approx(2)

    def test_infeasible_detected(self):
        system = _system(1, ub=[({0: -1}, -5), ({0: 1}, 2)])
        with pytest.raises(InfeasibleILPError):
            solve_ilp(system, [1])
        with pytest.raises(InfeasibleILPError):
            highs(system, [1], True)

    def test_no_integral_point_is_infeasible(self):
        system = _system(1, eq=[({0: 2}, 1)])
        with pytest.raises(InfeasibleILPError, match="no integral solution"):
            solve_ilp(system, [1])
        with pytest.raises(InfeasibleILPError):
            highs(system, [1], True)

    def test_unbounded_detected(self):
        system = _system(1)
        with pytest.raises(UnboundedILPError):
            solve_ilp(system, [1])
        with pytest.raises(UnboundedILPError):
            highs(system, [1], True)

    def test_minimisation(self):
        system = _system(1, ub=[({0: -1}, -3)])
        assert solve_ilp(system, [4], maximise=False).objective == pytest.approx(12)
        assert highs(system, [4], False) == pytest.approx(12)

    @given(
        weights=st.lists(st.integers(1, 9), min_size=2, max_size=5),
        values=st.lists(st.integers(1, 9), min_size=2, max_size=5),
        capacity=st.integers(1, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_knapsack_matches_bruteforce(self, weights, values, capacity):
        """0/1 knapsacks have fractional relaxations: the in-tree branch and
        bound against brute force."""
        n = min(len(weights), len(values))
        weights, values = weights[:n], values[:n]
        system = _system(
            n,
            ub=[(dict(enumerate(weights)), capacity)]
            + [({index: 1}, 1) for index in range(n)],
        )
        solution = solve_ilp(system, values)
        assert round(solution.objective) == _knapsack_bruteforce(weights, values, capacity)

    def test_fractional_relaxation_branches(self):
        # LP optimum 21 at (3, 1.5); the integral optimum is 20 at (4, 0).
        system = _system(2, ub=[({0: 6, 1: 4}, 24), ({0: 1, 1: 2}, 6)])
        relaxation = simplex.solve_sparse_lp([5, 4], system.a_ub, system.b_ub, [], [])
        assert relaxation.objective == pytest.approx(21)
        solution = solve_ilp(system, [5, 4])
        assert solution.objective == pytest.approx(20) and solution.nodes > 1
        assert highs(system, [5, 4], True) == pytest.approx(20)

    def test_lp_relaxation_matches_highs(self):
        system = _system(2, ub=[({0: 6, 1: 4}, 24), ({0: 1, 1: 2}, 6)])
        ours = simplex.solve_sparse_lp([5, 4], system.a_ub, system.b_ub, [], [])
        optimize = pytest.importorskip("scipy.optimize")
        theirs = optimize.linprog(
            c=[-5, -4], A_ub=[[6, 4], [1, 2]], b_ub=[24, 6], method="highs"
        )
        assert ours.objective == pytest.approx(-theirs.fun, rel=1e-6)


# --------------------------------------------------------------------------- #
# IPET
# --------------------------------------------------------------------------- #
LOOP_WITH_BRANCH = """
.func main
    mov r4, 0
loop:
    slt r6, r4, 5
    bf r6, cheap
    mov r7, 1
    br join
cheap:
    mov r7, 2
join:
    add r4, r4, 1
    slt r5, r4, 10
    bt r5, loop
    halt
"""


class TestIPET:
    def _build(self):
        program = parse_assembly(LOOP_WITH_BRANCH)
        cfg = reconstruct_cfg(program, "main")
        loops = find_loops(cfg)
        weights = {block: 10 for block in cfg.node_ids()}
        bounds = {loops.loops[0].header: 10}
        return cfg, loops, weights, bounds

    def test_entry_block_executes_once(self):
        cfg, loops, weights, bounds = self._build()
        for result in IPETBuilder(cfg, loops).solve_pair(weights, weights, bounds):
            assert result.block_counts[cfg.entry_block] == 1

    def test_loop_header_respects_bound(self):
        cfg, loops, weights, bounds = self._build()
        wcet, _ = IPETBuilder(cfg, loops).solve_pair(weights, weights, bounds)
        header = loops.loops[0].header
        assert wcet.block_counts[header] <= 11

    def test_missing_loop_bound_is_unbounded(self):
        cfg, loops, weights, _ = self._build()
        header = f"{loops.loops[0].header:#x}"
        with pytest.raises(UnboundedILPError, match=header):
            IPETBuilder(cfg, loops).solve_pair(weights, weights, {})

    def test_infeasible_block_constraint(self):
        cfg, loops, weights, bounds = self._build()
        branch_block = cfg.node_ids()[2]
        with_block, _ = IPETBuilder(cfg, loops).solve_pair(weights, weights, bounds)
        without_block, _ = IPETBuilder(cfg, loops).solve_pair(
            weights, weights, bounds, infeasible_blocks=[branch_block]
        )
        assert without_block.block_counts[branch_block] == 0
        assert without_block.bound_cycles <= with_block.bound_cycles

    def test_flow_constraint_caps_block_count(self):
        cfg, loops, weights, bounds = self._build()
        branch_block = cfg.node_ids()[2]
        constraint = ResolvedFlowConstraint(
            terms=((branch_block, 1),), relation="<=", bound=3, name="cap"
        )
        wcet, _ = IPETBuilder(cfg, loops).solve_pair(
            weights, weights, bounds, flow_constraints=[constraint]
        )
        assert wcet.block_counts[branch_block] <= 3

    def test_bcet_minimisation_is_below_wcet(self):
        cfg, loops, weights, bounds = self._build()
        wcet, bcet = IPETBuilder(cfg, loops).solve_pair(weights, weights, bounds)
        assert (wcet.objective, bcet.objective) == ("wcet", "bcet")
        assert bcet.bound_cycles <= wcet.bound_cycles

    def test_worst_case_path_blocks_have_positive_counts(self):
        cfg, loops, weights, bounds = self._build()
        wcet, _ = IPETBuilder(cfg, loops).solve_pair(weights, weights, bounds)
        assert cfg.entry_block in wcet.worst_case_blocks()

    def test_counts_cover_every_block_and_edge(self):
        cfg, loops, weights, bounds = self._build()
        wcet, bcet = IPETBuilder(cfg, loops).solve_pair(weights, weights, bounds)
        edges = {(edge.source, edge.target) for edge in cfg.edges()}
        for result in (wcet, bcet):
            assert set(result.block_counts) == set(cfg.node_ids())
            assert set(result.edge_counts) == edges
        assert wcet.block_counts[loops.loops[0].header] == 11  # entry + 10 back edges

    @pytest.mark.parametrize(
        "facts",
        [
            # The entry block runs once, so it cannot be infeasible.
            lambda cfg: {"infeasible_blocks": [cfg.entry_block]},
            # No integral count solves 2x = 1.
            lambda cfg: {"flow_constraints": [ResolvedFlowConstraint(
                terms=((cfg.node_ids()[2], 2),), relation="==", bound=1)]},
            # The branch block runs at most 3 and at least 4 times.
            lambda cfg: {"flow_constraints": [
                ResolvedFlowConstraint(terms=((cfg.node_ids()[2], 1),), relation="<=", bound=3),
                ResolvedFlowConstraint(terms=((cfg.node_ids()[2], 1),), relation=">=", bound=4),
            ]},
        ],
    )
    def test_contradictions_are_infeasible_like_highs(self, facts):
        cfg, loops, weights, bounds = self._build()
        builder = IPETBuilder(cfg, loops)
        with pytest.raises(InfeasibleILPError):
            builder.solve_pair(weights, weights, bounds, **facts(cfg))
        system, variables = full_ipet(builder, bounds, **facts(cfg))
        with pytest.raises(InfeasibleILPError):
            highs(system, [0.0] * len(variables), True)

    def test_flow_fact_outside_the_cfg_is_a_path_analysis_error(self):
        cfg, loops, weights, bounds = self._build()
        outside = ResolvedFlowConstraint(terms=((0xDEAD0, 1),), relation="<=", bound=1)
        with pytest.raises(PathAnalysisError, match="not in the CFG"):
            IPETBuilder(cfg, loops).solve_pair(
                weights, weights, bounds, flow_constraints=[outside]
            )
        bad_relation = ResolvedFlowConstraint(
            terms=((cfg.entry_block, 1),), relation="<", bound=1
        )
        with pytest.raises(PathAnalysisError, match="relation"):
            IPETBuilder(cfg, loops).solve_pair(
                weights, weights, bounds, flow_constraints=[bad_relation]
            )


# --------------------------------------------------------------------------- #
# WCET analyzer (end to end)
# --------------------------------------------------------------------------- #
class TestWCETAnalyzer:
    def test_bound_is_sound_for_counter_loop(self, counter_loop_program):
        for processor in (simple_scalar(), leon2_like()):
            report = WCETAnalyzer(counter_loop_program, processor).analyze()
            result = Interpreter(counter_loop_program).run()
            observed = TraceTimer(processor, counter_loop_program).time(result.trace)
            assert report.bcet_cycles <= observed.cycles <= report.wcet_cycles

    def test_report_contains_all_reachable_functions(self, counter_loop_program):
        report = WCETAnalyzer(counter_loop_program, simple_scalar()).analyze()
        assert set(report.functions) == {"main", "scale"}

    def test_loop_bound_appears_in_report(self, counter_loop_program):
        report = WCETAnalyzer(counter_loop_program, simple_scalar()).analyze()
        loop_reports = report.loop_reports()
        assert loop_reports and loop_reports[0].bound == 8

    def test_phase_timings_cover_figure1(self, counter_loop_program):
        report = WCETAnalyzer(counter_loop_program, simple_scalar()).analyze()
        phases = {timing.phase for timing in report.phases}
        assert {"decoding", "loop/value analysis", "cache analysis",
                "pipeline analysis", "path analysis"} <= phases

    def test_unbounded_loop_raises_with_annotation_hint(self):
        asm = (
            ".func main params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    halt\n"
        )
        program = parse_assembly(asm)
        with pytest.raises(UnboundedLoopError) as excinfo:
            WCETAnalyzer(program, simple_scalar()).analyze()
        assert "loopbound" in str(excinfo.value)

    def test_loop_bound_annotation_enables_analysis(self):
        asm = (
            ".func main params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    halt\n"
        )
        program = parse_assembly(asm)
        annotations = AnnotationSet().add_loop_bound("main", "loop", 20)
        report = WCETAnalyzer(program, simple_scalar(), annotations=annotations).analyze()
        assert report.wcet_cycles > 0
        assert report.loop_reports()[0].source == "annotation"

    def test_argument_range_annotation_bounds_loop_automatically(self):
        asm = (
            ".func main params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    halt\n"
        )
        program = parse_assembly(asm)
        annotations = AnnotationSet().add_argument_range("main", "r3", 0, 20)
        report = WCETAnalyzer(program, simple_scalar(), annotations=annotations).analyze()
        assert report.loop_reports()[0].source == "analysis"
        assert report.loop_reports()[0].bound == 20

    def test_infeasible_annotation_tightens_bound(self):
        asm = (
            ".data flag 4\n"
            ".func main\n    la r6, flag\n    load r5, [r6 + 0]\n    bf r5, skip\n"
            "expensive:\n    mov r4, 0\nloop:\n    add r4, r4, 1\n    slt r7, r4, 50\n"
            "    bt r7, loop\nskip:\n    halt\n"
        )
        program = parse_assembly(asm)
        plain = WCETAnalyzer(program, simple_scalar()).analyze()
        annotations = AnnotationSet().add_infeasible("main", "expensive")
        excluded = WCETAnalyzer(program, simple_scalar(), annotations=annotations).analyze()
        assert excluded.wcet_cycles < plain.wcet_cycles

    def test_recursion_without_annotation_is_rejected(self):
        asm = (
            ".func main\n    call fib\n    halt\n"
            ".func fib\n    call fib\n    ret\n"
        )
        program = parse_assembly(asm)
        with pytest.raises(CFGError):
            WCETAnalyzer(program, simple_scalar()).analyze()

    def test_recursion_with_annotation_scales_with_depth(self):
        asm = (
            ".func main\n    call count\n    halt\n"
            ".func count params=1\n    sub r3, r3, 1\n    sgt r4, r3, 0\n"
            "    bf r4, done\n    call count\ndone:\n    ret\n"
        )
        program = parse_assembly(asm)
        shallow = WCETAnalyzer(
            program, simple_scalar(),
            annotations=AnnotationSet().add_recursion_bound("count", 2),
        ).analyze()
        deep = WCETAnalyzer(
            program, simple_scalar(),
            annotations=AnnotationSet().add_recursion_bound("count", 8),
        ).analyze()
        assert deep.wcet_cycles > shallow.wcet_cycles

    def test_challenges_report_mentions_annotation_sourced_bounds(self):
        asm = (
            ".func main params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    halt\n"
        )
        program = parse_assembly(asm)
        annotations = AnnotationSet().add_loop_bound("main", "loop", 20)
        report = WCETAnalyzer(program, simple_scalar(), annotations=annotations).analyze()
        assert any("annotation" in item for item in report.challenges.tier_two)

    def test_text_report_renders(self, counter_loop_program):
        report = WCETAnalyzer(counter_loop_program, leon2_like()).analyze()
        text = report.format_text()
        assert "WCET bound" in text and "Loop bounds" in text

    def test_context_sensitive_callee_is_cheaper_than_context_free(self):
        asm = (
            ".func main\n    mov r3, 4\n    call work\n    halt\n"
            ".func work params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    ret\n"
        )
        program = parse_assembly(asm)
        annotations = AnnotationSet().add_loop_bound("work", "loop", 1000)
        sensitive = WCETAnalyzer(
            program, simple_scalar(), annotations=annotations,
            options=AnalysisOptions(context_sensitive_calls=True),
        ).analyze()
        insensitive = WCETAnalyzer(
            program, simple_scalar(), annotations=annotations,
            options=AnalysisOptions(context_sensitive_calls=False),
        ).analyze()
        assert sensitive.wcet_cycles < insensitive.wcet_cycles

    def test_path_analysis_matches_highs_oracle(
        self, counter_loop_program, monkeypatch
    ):
        calls = []
        record(monkeypatch, "solve_pair", calls)
        report = WCETAnalyzer(counter_loop_program, simple_scalar()).analyze()
        assert report.wcet_cycles > 0 and calls
        for call in calls:
            assert check_pair(*call) == []
