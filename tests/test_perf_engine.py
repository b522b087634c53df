"""Unit tests for the performance-overhaul machinery itself.

The end-to-end identity of analysis results is guarded by
``test_engine_equivalence.py``; this module tests the new components in
isolation: the weak topological order, the copy-on-write abstract state, the
sparse simplex (including the shared phase-1 tableau), the parallel sweep
API, and the exclusive phase clock.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.domains.interval import Interval
from repro.analysis.domains.memstate import AbstractMemory, AbstractState, AbstractValue
from repro.analysis.wto import compute_wto
from repro.minic import compile_source
from repro.cfg.loops import find_loops
from repro.cfg.reconstruct import reconstruct_program
from repro.testing import generate_case, run_sweep
from repro.testing.oracle import OracleConfig
from repro.wcet import WCETAnalyzer
from repro.wcet import simplex
from repro.wcet.ilp import ILPSystem, solve_ilp, solve_ilp_pair
from repro.workloads import flight_control
from test_ilp_oracle import highs


NESTED_LOOPS = """
int work(int n) {
    int i;
    int j;
    int acc = 0;
    for (i = 0; i < 5; i++) {
        for (j = 0; j < 3; j++) {
            acc = acc + i * j;
        }
    }
    return acc;
}
"""


@pytest.fixture(scope="module")
def nested_cfg():
    program = compile_source(NESTED_LOOPS, entry="work")
    program.validate()
    return reconstruct_program(program)["work"]


class TestWeakTopologicalOrder:
    def test_linearization_is_reverse_postorder(self, nested_cfg):
        wto = compute_wto(nested_cfg, find_loops(nested_cfg))
        order = nested_cfg.reverse_postorder()
        assert [wto.positions[node] for node in order] == list(range(len(order)))

    def test_every_edge_is_forward_or_enters_a_component_head(self, nested_cfg):
        wto = compute_wto(nested_cfg, find_loops(nested_cfg))
        for edge in nested_cfg.edges():
            if edge.source < 0 or edge.target < 0:
                continue
            if wto.positions[edge.source] < wto.positions[edge.target]:
                continue
            # Retreating edge: must target the head of a component that
            # contains the source — the defining WTO property.
            assert wto.is_head(edge.target)
            assert edge.source in wto.components[edge.target]

    def test_heads_are_the_loop_headers(self, nested_cfg):
        loops = find_loops(nested_cfg)
        wto = compute_wto(nested_cfg, loops)
        assert set(wto.heads) == {loop.header for loop in loops.loops}
        assert len(wto.heads) == 2  # the two nested for-loops

    def test_inner_component_nested_in_outer(self, nested_cfg):
        wto = compute_wto(nested_cfg, find_loops(nested_cfg))
        outer, inner = (
            max(wto.components.values(), key=len),
            min(wto.components.values(), key=len),
        )
        assert inner < outer  # proper subset


class TestCopyOnWriteState:
    def test_copy_shares_until_written(self):
        state = AbstractState()
        state.set("r3", AbstractValue.const(7))
        state.memory.store_strong("g", 0, AbstractValue.const(1))
        clone = state.copy()
        assert clone.registers is state.registers
        clone.set("r4", AbstractValue.const(9))
        assert clone.registers is not state.registers
        assert "r4" not in state.registers
        assert state.get("r3").constant_value == 7

    def test_memory_mutation_does_not_leak_into_copies(self):
        state = AbstractState()
        state.memory.store_strong("g", 0, AbstractValue.const(1))
        clone = state.copy()
        clone.memory.store_strong("g", 0, AbstractValue.const(2))
        assert state.memory.load("g", 0).constant_value == 1
        assert clone.memory.load("g", 0).constant_value == 2

    def test_clobber_on_copy_preserves_original(self):
        memory = AbstractMemory()
        memory.store_strong("g", 0, AbstractValue.const(1))
        shared = memory.copy()
        shared.clobber_all()
        assert memory.load("g", 0).constant_value == 1
        assert len(shared) == 0

    def test_replace_value_keeps_facts(self):
        from repro.analysis.domains.memstate import PredicateFact
        from repro.ir.instructions import Opcode

        state = AbstractState()
        state.set("r3", AbstractValue(Interval(0, 10)))
        state.set("r5", AbstractValue(Interval(0, 1)))
        state.set_fact("r5", PredicateFact(Opcode.SLT, ("reg", "r3"), ("const", 4)))
        state.replace_value("r3", AbstractValue(Interval(0, 3)))
        assert "r5" in state.facts  # refinement must not kill the fact
        state.set("r3", AbstractValue.top())
        assert "r5" not in state.facts  # redefinition must kill it

    def test_slots_deny_dynamic_attributes(self):
        with pytest.raises((AttributeError, TypeError)):
            Interval(0, 1).unexpected = 1  # type: ignore[attr-defined]
        with pytest.raises((AttributeError, TypeError)):
            AbstractValue.top().unexpected = 1  # type: ignore[attr-defined]


class TestSparseSimplex:
    # max/min 3x + 2y  s.t.  x + y <= 10,  x - y == 2
    SYSTEM = ILPSystem(2, a_ub=[{0: 1.0, 1: 1.0}], b_ub=[10.0],
                       a_eq=[{0: 1.0, 1: -1.0}], b_eq=[2.0])
    OBJECTIVE = [3.0, 2.0]

    def test_simplex_matches_highs(self):
        for maximise in (True, False):
            actual = solve_ilp(self.SYSTEM, self.OBJECTIVE, maximise)
            expected = highs(self.SYSTEM, self.OBJECTIVE, maximise)
            assert actual.objective == pytest.approx(expected)

    def test_solve_pair_matches_independent_solves(self):
        paired = solve_ilp_pair(self.SYSTEM, self.OBJECTIVE, self.OBJECTIVE)
        independent = (
            solve_ilp(self.SYSTEM, self.OBJECTIVE, True),
            solve_ilp(self.SYSTEM, self.OBJECTIVE, False),
        )
        for got, want in zip(paired, independent):
            assert got.objective == want.objective
            assert got.values == want.values
        assert sum(s.pivots for s in paired) < sum(s.pivots for s in independent)

    def test_prepared_tableau_is_reusable(self):
        # One phase 1, two different objectives: both must be optimal.
        a_ub = [{0: 1.0, 1: 1.0}]
        b_ub = [4.0]
        a_eq = [{0: 1.0, 1: -1.0}]
        b_eq = [0.0]
        prepared = simplex.prepare_sparse_tableau(2, a_ub, b_ub, a_eq, b_eq)
        maxi = simplex.optimise_prepared(prepared, [1.0, 1.0], maximise=True)
        mini = simplex.optimise_prepared(prepared, [1.0, 1.0], maximise=False)
        assert maxi.status == "optimal" and maxi.objective == pytest.approx(4.0)
        assert mini.status == "optimal" and mini.objective == pytest.approx(0.0)

    def test_infeasible_and_unbounded_detection(self):
        infeasible = simplex.solve_sparse_lp(
            [1.0], [{0: 1.0}], [1.0], [{0: 1.0}], [5.0]
        )
        assert infeasible.status == "infeasible"
        unbounded = simplex.solve_sparse_lp([1.0], [], [], [], [])
        assert unbounded.status == "unbounded"


class TestParallelSweep:
    def test_parallel_results_match_serial(self):
        config = OracleConfig(max_input_vectors=2)
        seeds = [1, 2, 3, 4]
        serial = run_sweep(seeds, config, jobs=1)
        parallel = run_sweep(seeds, config, jobs=2)
        assert parallel.jobs == 2
        assert serial.bounds_by_case() == parallel.bounds_by_case()
        assert [r.ok for r in serial.results] == [r.ok for r in parallel.results]
        assert [r.seed for r in parallel.results] == seeds

    def test_sweep_aggregates(self):
        sweep = run_sweep([1, 2], OracleConfig(max_input_vectors=2), jobs=1)
        assert sweep.ok
        assert sweep.total_runs == 4


class TestPhaseClock:
    def test_phases_are_exclusive_and_sum_to_analyze_time(self):
        program = flight_control.program()
        annotations = flight_control.annotations()
        from repro.hardware.processor import leon2_like

        analyzer = WCETAnalyzer(program, leon2_like(), annotations=annotations)
        started = time.perf_counter()
        report = analyzer.analyze()
        wall = time.perf_counter() - started
        phase_sum = sum(report.phase_seconds().values())
        # Exclusive accounting: the per-phase figures can never exceed the
        # wall clock of the analysis (the old implementation double-counted
        # nested callee analyses inside the caller's pipeline phase).
        assert phase_sum <= wall + 1e-6
        # ... and the named phases cover the analysis almost completely.
        assert phase_sum >= 0.5 * wall
