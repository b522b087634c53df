"""scipy's HiGHS as the named oracle of the path analysis's ILP solver.

The analyzer solves every IPET system with the in-tree simplex, over the
system :class:`repro.wcet.ipet.IPETBuilder` presolves from the CFG.  This
module keeps an independent reference beside it:

* :func:`highs` solves an :class:`ILPSystem` with ``scipy.optimize.milp``;
* :func:`full_ipet` writes out the unreduced formulation — one variable per
  block and per edge, two conservation rows per block — without any of the
  presolve's merging;
* :class:`TestPresolvedIPETMatchesHiGHS` records every ``solve_pair`` call of
  the paper requests, of error-monitor's error scenarios and of generated
  programs, and requires HiGHS on the full formulation to give the same WCET
  and BCET, and the presolved counts to satisfy every full row.

scipy is a test dependency only: nothing under ``src/`` imports it (see
:class:`TestNoScipyAtRuntime`).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.api import AnalysisRequest, AnalysisService
from repro.cfg.graph import ENTRY, EXIT
from repro.errors import InfeasibleILPError, UnboundedILPError
from repro.server.wire import ProjectSpec
from repro.testing.fuzz import _case_spec, default_presets
from repro.testing.generator import generate_case, render_case
from repro.wcet.ilp import ILPSystem
from repro.wcet.ipet import IPETBuilder, _Presolve
from repro.workloads.catalog import catalog
from test_api import PAPER_REQUESTS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Generated programs per fuzz preset and processor.
GENERATED_SEEDS = (11, 12)


def highs(system: ILPSystem, objective: Sequence[float], maximise: bool) -> float:
    """Optimum of ``objective`` over ``system`` by HiGHS's branch and bound.

    Raises :class:`InfeasibleILPError` / :class:`UnboundedILPError` like the
    in-tree solver, so error cases compare too.
    """
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")

    def dense(rows):
        matrix = np.zeros((len(rows), system.num_columns))
        for index, row in enumerate(rows):
            for column, value in row.items():
                matrix[index, column] = value
        return matrix

    constraints = []
    if system.a_ub:
        constraints.append(optimize.LinearConstraint(dense(system.a_ub), -np.inf, system.b_ub))
    if system.a_eq:
        constraints.append(
            optimize.LinearConstraint(dense(system.a_eq), system.b_eq, system.b_eq)
        )
    def solve(costs):
        return optimize.milp(
            c=costs,
            constraints=constraints,
            integrality=np.ones(system.num_columns),
            bounds=optimize.Bounds(0, np.inf),
        )

    sign = -1.0 if maximise else 1.0
    result = solve(sign * np.asarray(objective, dtype=float))
    if result.status in (3, 4):
        # "Unbounded or infeasible": a zero objective tells the two apart.
        feasible = solve(np.zeros(system.num_columns)).status == 0
        result.status = 3 if feasible else 2
    if result.status == 2:
        raise InfeasibleILPError("HiGHS: infeasible")
    if result.status == 3:
        raise UnboundedILPError("HiGHS: unbounded")
    assert result.status == 0, result.message
    return sign * result.fun


def full_ipet(builder: IPETBuilder, loop_bounds, infeasible_blocks=(),
              infeasible_edges=(), flow_constraints=()):
    """The unreduced IPET system: ``(system, variables)``.

    ``variables`` maps ``("x", block)`` and ``("f", (source, target))`` to
    columns.  Rows follow the formulation of :mod:`repro.wcet.ipet`.
    """
    cfg, loops = builder.cfg, builder.loops
    edges = [(edge.source, edge.target) for edge in cfg.edges()]
    keys = [("x", block) for block in cfg.node_ids()] + [("f", edge) for edge in edges]
    variables = {key: column for column, key in enumerate(keys)}
    system = ILPSystem(len(keys), name=f"full:{cfg.function_name}")

    def add(terms: Dict[Tuple, float], relation: str, bound: float) -> None:
        row = {variables[key]: float(value) for key, value in terms.items() if value}
        if relation == "==":
            system.a_eq.append(row)
            system.b_eq.append(float(bound))
        elif relation == "<=":
            system.a_ub.append(row)
            system.b_ub.append(float(bound))
        else:
            system.a_ub.append({column: -value for column, value in row.items()})
            system.b_ub.append(-float(bound))

    add({("f", e): 1 for e in edges if e[0] == ENTRY}, "==", 1)
    exits = {("f", e): 1 for e in edges if e[1] == EXIT}
    if exits:
        add(exits, "==", 1)
    for block in cfg.node_ids():
        add({**{("f", e): 1 for e in edges if e[1] == block}, ("x", block): -1}, "==", 0)
        add({**{("f", e): 1 for e in edges if e[0] == block}, ("x", block): -1}, "==", 0)
    for loop in loops.loops:
        bound = loop_bounds.get(loop.header)
        if bound is None:
            continue
        terms = {("f", edge): 1 for edge in loop.back_edges}
        for node in loop.entries or {loop.header}:
            for pred in cfg.predecessors(node):
                if pred not in loop.blocks:
                    terms[("f", (pred, node))] = -bound
        add(terms, "<=", 0)
    for block in infeasible_blocks:
        add({("x", block): 1}, "==", 0)
    for edge in infeasible_edges:
        if ("f", edge) in variables:
            add({("f", edge): 1}, "==", 0)
    for constraint in flow_constraints:
        terms: Dict[Tuple, float] = {}
        for block, coefficient in constraint.terms:
            terms[("x", block)] = terms.get(("x", block), 0) + coefficient
        add(terms, constraint.relation, constraint.bound)
    return system, variables


def _objective(variables, weights: Dict[int, int]) -> List[float]:
    objective = [0.0] * len(variables)
    for (kind, item), column in variables.items():
        if kind == "x":
            objective[column] = float(weights.get(item, 0))
    return objective


def _satisfies(system: ILPSystem, values: List[int]) -> bool:
    def lhs(row):
        return sum(value * values[column] for column, value in row.items())

    return all(lhs(row) == bound for row, bound in zip(system.a_eq, system.b_eq)) and all(
        lhs(row) <= bound for row, bound in zip(system.a_ub, system.b_ub)
    )


def check_against_highs(builder: IPETBuilder, loop_bounds, facts, solved) -> List[str]:
    """Compare presolved results with HiGHS on the full formulation.

    ``facts`` are the keyword arguments of the recorded call (infeasible
    blocks and edges, flow constraints); ``solved`` lists ``(result,
    weights, maximise)`` for each objective solved.
    """
    system, variables = full_ipet(builder, loop_bounds, **facts)
    problems = []
    for result, weights, maximise in solved:
        objective = _objective(variables, weights)
        expected = round(highs(system, objective, maximise))
        if result.bound_cycles != expected:
            problems.append(
                f"{builder.cfg.function_name} {result.objective}: "
                f"{result.bound_cycles} != HiGHS {expected}"
            )
        values = [0] * len(variables)
        for (kind, item), column in variables.items():
            counts = result.block_counts if kind == "x" else result.edge_counts
            values[column] = counts[item]
        if not _satisfies(system, values) or round(
            sum(c * v for c, v in zip(objective, values))
        ) != result.bound_cycles:
            problems.append(
                f"{builder.cfg.function_name} {result.objective}: the mapped-back "
                "counts are not an optimal point of the full formulation"
            )
    return problems


def check_pair(builder: IPETBuilder, args, kwargs, results) -> List[str]:
    """:func:`check_against_highs` for a recorded ``solve_pair`` call."""
    wcet_weights, bcet_weights, loop_bounds = args
    return check_against_highs(
        builder, loop_bounds, kwargs,
        [(results[0], wcet_weights, True), (results[1], bcet_weights, False)],
    )


def record(patch: pytest.MonkeyPatch, method: str, calls: list) -> None:
    """Append ``(builder, args, kwargs, results)`` of every
    ``IPETBuilder.<method>`` call to ``calls``."""
    original = getattr(IPETBuilder, method)

    def recording(self, *args, **kwargs):
        results = original(self, *args, **kwargs)
        calls.append((self, args, kwargs, results))
        return results

    patch.setattr(IPETBuilder, method, recording)


# --------------------------------------------------------------------------- #
def _paper_requests():
    workloads = catalog()
    for name, processor in PAPER_REQUESTS:
        all_modes = bool(workloads[name].annotation_set().mode_names())
        yield ProjectSpec(workload=name, processor=processor), AnalysisRequest(
            all_modes=all_modes
        )


def _error_monitor_requests():
    scenarios = catalog()["error-monitor"].annotation_set().error_scenarios
    assert scenarios
    for processor in ("simple", "leon2"):
        spec = ProjectSpec(workload="error-monitor", processor=processor)
        for scenario in scenarios:
            yield spec, AnalysisRequest(error_scenario=scenario.name)


def _generated_requests():
    for preset in default_presets():
        for processor in ("simple", "leon2"):
            for seed in GENERATED_SEEDS:
                case = generate_case(seed, mix=preset.mix)
                spec = _case_spec(case, render_case(case), processor)
                yield spec, AnalysisRequest(entry=case.entry, options=preset.options)


@pytest.fixture(scope="module")
def recorded_solves():
    """Every ``solve_pair`` call, by population, and the request counts."""
    recorded: Dict[str, list] = {}
    for population, requests in (
        ("paper", _paper_requests()),
        ("error-monitor", _error_monitor_requests()),
        ("generated", _generated_requests()),
    ):
        calls = recorded[population] = []
        with pytest.MonkeyPatch.context() as patch:
            record(patch, "solve_pair", calls)
            count = 0
            for spec, request in requests:
                AnalysisService(spec.to_project(cache="off")).analyze(request)
                count += 1
        recorded[population + ":requests"] = count
    return recorded


class TestPresolvedIPETMatchesHiGHS:
    @pytest.mark.parametrize(
        "population, min_requests",
        [("paper", 96), ("error-monitor", 4), ("generated", 24)],
    )
    def test_bounds_equal_highs_on_full_formulation(
        self, recorded_solves, population, min_requests
    ):
        calls = recorded_solves[population]
        assert recorded_solves[population + ":requests"] >= min_requests
        assert calls
        problems = []
        for call in calls:
            problems.extend(check_pair(*call))
        assert not problems, problems[:10]

    def test_presolve_shrinks_paper_systems(self, recorded_solves):
        """The reduced system has far fewer columns than blocks + edges."""
        full = reduced = 0
        for builder, args, kwargs, _ in recorded_solves["paper"]:
            system, _ = full_ipet(builder, args[2], **kwargs)
            full += system.num_columns
            reduced += _Presolve(
                builder.cfg, builder.loops, args[2], **kwargs
            ).system().num_columns
        assert reduced * 3 < full


# --------------------------------------------------------------------------- #
def _run_python(code: str, **env) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


_IDENTITY_DIGEST = """
import hashlib, json, sys
sys.path.insert(0, {tests!r})
from test_ilp_oracle import _paper_requests
from repro.api import AnalysisService
from repro.testing.fuzz import report_identity
digest = hashlib.sha256()
for spec, request in _paper_requests():
    result = AnalysisService(spec.to_project(cache="off")).analyze(request)
    for mode, report in sorted(result.reports.items(), key=lambda item: str(item[0])):
        digest.update(json.dumps(report_identity(report), sort_keys=True).encode())
print(digest.hexdigest())
"""


class TestReportIdentityIgnoresHashSeed:
    def test_paper_reports_equal_under_two_hash_seeds(self):
        """A served report is compared with the client's: the presolve's
        column order (and so the tie-broken ``block_counts``) must not depend
        on string hashing."""
        code = _IDENTITY_DIGEST.format(tests=os.path.dirname(os.path.abspath(__file__)))
        first = _run_python(code, PYTHONHASHSEED="1")
        second = _run_python(code, PYTHONHASHSEED="2")
        assert first == second


@pytest.fixture(scope="module")
def runtime_imports():
    """The flight-control bound and the top-level packages a fresh process
    holds after analysing flight-control in all modes and importing the
    server."""
    code = (
        "import sys, json\n"
        "from repro.api import AnalysisRequest, AnalysisService, Project\n"
        "import repro.server.http\n"
        "project = Project.from_workload('flight-control', cache='off')\n"
        "result = AnalysisService(project).analyze(AnalysisRequest(all_modes=True))\n"
        "print(json.dumps({'wcet': result.report.wcet_cycles,\n"
        "                  'packages': sorted({m.split('.')[0] for m in sys.modules})}))\n"
    )
    output = json.loads(_run_python(code).strip().splitlines()[-1])
    assert output["wcet"] == 2514
    return output["packages"]


class TestNoScipyAtRuntime:
    def test_analysis_and_server_never_import_scipy(self, runtime_imports):
        assert "scipy" not in runtime_imports


class TestNoNumpyAtRuntime:
    def test_analysis_and_server_never_import_numpy(self, runtime_imports):
        """Only the Table 1 sampler (``repro.arith.sampling``) uses numpy."""
        assert "numpy" not in runtime_imports
