"""Fast-path equivalence: block kernels, interning, the prepared tableau.

The analyzer's fast paths (block-compiled transfer kernels, interned lattice
values) must be *bit-identical* to the plain paths they replace — not merely
close.  The kernel JIT compiles a block once its run count crosses
``value._KERNEL_JIT_THRESHOLD``; the tests move that constant to force each
path.  Three layers of evidence:

* a differential sweep: generator seeds 1-100, rotating through all six fuzz
  presets, full-report identity with every block compiled vs no block
  compiled;
* unit tests for the interval/abstract-value interning invariants the fast
  paths rely on;
* the pivot accounting of a simplex tableau whose phase 1 serves two
  objectives (the WCET and BCET solves of one function share it).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.analysis import value as value_analysis
from repro.analysis.domains.interval import Interval
from repro.analysis.domains.memstate import AbstractState, AbstractValue
from repro.api import Project
from repro.api.service import AnalysisRequest, AnalysisService
from repro.errors import ReproError
from repro.testing import generate_case, render_case
from repro.testing.fuzz import default_presets, report_identity
from repro.wcet import simplex

#: The differential sweep: 100 generated programs, preset rotation covering
#: every fuzz hard spot (recursion, irreducible flow, function pointers,
#: context caps) at least 16 times each.
SWEEP_SEEDS = list(range(1, 101))
PRESETS = default_presets()
#: A threshold no block run count reaches.
NEVER = 1 << 30


def _identity(project: Project, options):
    """Full-report identity (or the exact failure) of one cold analysis.

    A fresh service per call: a shared in-process summary cache would
    replay the first analysis instead of running the second.
    """
    try:
        result = AnalysisService(project).analyze(AnalysisRequest(options=options))
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    return {mode: report_identity(report) for mode, report in result.reports.items()}


class TestFastPathSweep:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_compiled_and_interpreted_agree_bit_for_bit(self, seed, monkeypatch):
        preset = PRESETS[seed % len(PRESETS)]
        case = generate_case(seed, preset.mix)
        rendered = render_case(case)
        project = Project.from_source(
            rendered.source,
            entry=case.entry,
            annotations=rendered.annotations,
            cache="off",
            name=case.name,
        )
        compiles = value_analysis._M_COMPILES.value()
        interpreted = value_analysis._M_INTERPRETED.value()

        # Every block compiled on its first run.
        monkeypatch.setattr(value_analysis, "_KERNEL_JIT_THRESHOLD", 1)
        monkeypatch.setattr(value_analysis, "_KERNEL_CACHE", {})
        compiled = _identity(project, preset.options)
        assert value_analysis._M_INTERPRETED.value() == interpreted
        assert value_analysis._M_COMPILES.value() > compiles

        # No block compiled.
        compiles = value_analysis._M_COMPILES.value()
        monkeypatch.setattr(value_analysis, "_KERNEL_JIT_THRESHOLD", NEVER)
        monkeypatch.setattr(value_analysis, "_KERNEL_CACHE", {})
        interpreted_only = _identity(project, preset.options)
        assert value_analysis._M_COMPILES.value() == compiles

        assert compiled == interpreted_only, (
            f"seed {seed} preset {preset.name}: compiled kernels and "
            "interpreted blocks diverged"
        )


class TestIntervalInterning:
    def test_nullary_constructors_are_singletons(self):
        assert Interval.top() is Interval.top()
        assert Interval.bottom() is Interval.bottom()

    def test_small_constants_are_pooled(self):
        for value in (-1024, -1, 0, 1, 255, 4096):
            assert Interval.const(value) is Interval.const(value)

    def test_degenerate_range_is_the_pooled_constant(self):
        assert Interval.range(7, 7) is Interval.const(7)
        assert Interval.range(5, 3) is Interval.bottom()

    def test_out_of_pool_constants_still_compare_equal(self):
        assert Interval.const(1 << 20) == Interval(1 << 20, 1 << 20)

    def test_constants_are_interned_on_first_use(self):
        assert Interval.const(7) is Interval.const(7)
        assert AbstractValue.const(7) is AbstractValue.const(7)
        assert AbstractValue.const(7).interval is Interval.const(7)
        assert Interval.const(5000) is not Interval.const(5000)
        assert AbstractValue.const(5000) is not AbstractValue.const(5000)
        assert AbstractValue.const(5000) == AbstractValue.const(5000)

    def test_importing_the_domains_builds_no_pool(self):
        code = (
            "from repro.analysis.domains import interval, memstate\n"
            "print(len(interval._CONST_POOL), len(memstate._CONST_VALUES))"
        )
        package = os.path.dirname(os.path.dirname(value_analysis.__file__))
        env = {**os.environ, "PYTHONPATH": os.path.dirname(package)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["0", "0"]

    def test_join_returns_operand_when_result_equals_it(self):
        a = Interval.const(1)
        wide = Interval(1, 5)
        assert a.join(a) is a
        assert wide.join(a) is wide
        assert a.join(wide) is wide

    def test_meet_returns_operand_when_result_equals_it(self):
        narrow = Interval(2, 3)
        wide = Interval(0, 10)
        assert wide.meet(narrow) is narrow
        assert narrow.meet(wide) is narrow

    def test_widen_self_identity(self):
        a = Interval(0, 8)
        assert a.widen(a) is a
        assert Interval.top().widen(Interval.top()) is Interval.top()

    def test_abstract_value_singletons(self):
        assert AbstractValue.top() is AbstractValue.top()
        assert AbstractValue.bottom() is AbstractValue.bottom()
        assert AbstractValue.float_value() is AbstractValue.float_value()
        assert AbstractValue.const(42) is AbstractValue.const(42)

    def test_abstract_value_join_identity_fast_path(self):
        value = AbstractValue.const(3)
        assert value.join(value) is value
        wide = AbstractValue(Interval(0, 9))
        assert wide.join(value) is wide

    def test_state_includes_short_circuits_on_shared_dicts(self):
        state = AbstractState()
        state.set("r1", AbstractValue.const(4))
        clone = state.copy()
        # The copy shares registers/facts/memory; includes() must answer
        # True without a per-register walk (pointer fast path).
        assert state.includes(clone)
        assert clone.includes(state)

    def test_join_all_matches_pairwise_fold(self):
        a = AbstractState()
        a.set("r1", AbstractValue.const(1))
        a.set("r2", AbstractValue.const(7))
        b = AbstractState()
        b.set("r1", AbstractValue.const(5))
        c = AbstractState()
        c.set("r1", AbstractValue(Interval(-3, 0)))
        batched = AbstractState.join_all([a, b, c])
        pairwise = a.join(b).join(c)
        # AbstractState has no __eq__; mutual inclusion is lattice equality.
        assert batched.includes(pairwise) and pairwise.includes(batched)
        assert batched.get("r1") == pairwise.get("r1")
        assert batched.get("r2") == pairwise.get("r2")

    def test_join_all_of_nothing_is_unreachable(self):
        assert not AbstractState.join_all([]).reachable
        unreachable = AbstractState.unreachable()
        assert not AbstractState.join_all([unreachable]).reachable


def _wide_lp():
    """An LP whose phase 1 takes many pivots.

    48 variables, three full-width equality constraints and per-variable
    upper bounds: a tableau of ~99 columns.
    """
    n = 48
    objective = [1.0 + (i % 5) * 0.25 for i in range(n)]
    a_ub = [{i: 1.0} for i in range(n)]
    b_ub = [3.0] * n
    a_eq = [
        {i: 1.0 for i in range(n)},
        {i: (1.0 if i % 2 == 0 else 2.0) for i in range(n)},
        {i: float(1 + (i % 3)) for i in range(n)},
    ]
    b_eq = [float(n), float(n + n // 2), float(sum(1 + (i % 3) for i in range(n)))]
    return objective, a_ub, b_ub, a_eq, b_eq


class TestPreparedTableau:
    def test_prepared_tableau_reuse_counts_phase1_once(self):
        objective, a_ub, b_ub, a_eq, b_eq = _wide_lp()
        prepared = simplex.prepare_sparse_tableau(
            len(objective), a_ub, b_ub, a_eq, b_eq
        )
        assert prepared.pivots > 0
        maxi = simplex.optimise_prepared(prepared, objective, maximise=True)
        mini = simplex.optimise_prepared(prepared, objective, maximise=False)
        assert maxi.status == mini.status == "optimal"
        # Phase-2 counters exclude the shared phase-1 work.
        assert maxi.pivots >= 0 and mini.pivots >= 0
        single = simplex.solve_sparse_lp(
            objective, a_ub, b_ub, a_eq, b_eq, maximise=True
        )
        assert single.pivots == prepared.pivots + maxi.pivots
        assert single.objective == maxi.objective
