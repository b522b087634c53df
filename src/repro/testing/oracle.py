"""Differential soundness oracle.

For one program (generated or from the corpus) the oracle:

1. compiles the mini-C source through the full static pipeline and runs the
   WCET analyzer (mini-C → IR → CFG → value/loop analysis → cache/pipeline →
   IPET), obtaining WCET and BCET bounds — a source that rendering already
   compiled (function-pointer programs) is not compiled again;
2. systematically enumerates concrete input vectors for the program's
   declared input globals;
3. replays the program in the concrete interpreter for every vector, times
   the trace with the concrete cache/pipeline simulator, and checks the
   soundness invariants:

   * ``BCET bound <= observed cycles <= WCET bound`` for every input,
   * no loop executes more often than its statically established bound,
   * no block the analysis reported unreachable is ever executed.

Any breach is reported as a :class:`Violation`; a compile/analysis/execution
crash is a violation too (kind ``compile-error`` / ``analysis-error`` /
``execution-error``), because the generator only emits programs the analyzer
claims to handle end to end.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.summaries import SummaryCache
from repro.api import AnalysisService, Project
from repro.api import AnalysisRequest as ServiceRequest
from repro.cache import SummaryStore
from repro.errors import ReproError
from repro.hardware import TraceTimer
from repro.hardware.processor import simple_scalar
from repro.ir import Interpreter
from repro.cfg.decode import decode_program
from repro.testing.generator import GeneratedCase, GlobalVar, RenderedCase, render_case
from repro.wcet.analyzer import AnalysisOptions
from repro.wcet.report import WCETReport

#: Safety margin multiplier applied to the product-of-ancestor-bounds when
#: checking loop headers (header executes bound+1 times per entry).
_HEADER_SLACK = 1


@dataclass
class Violation:
    """One breached invariant for one program (and possibly one input)."""

    kind: str                     # e.g. "wcet-undercut", "loopbound-exceeded"
    message: str
    input_index: Optional[int] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" [input #{self.input_index}]" if self.input_index is not None else ""
        return f"{self.kind}{where}: {self.message}"


@dataclass
class RunOutcome:
    """Concrete replay of one input vector."""

    input_index: int
    initial_data: Dict[str, List[int]]
    observed_cycles: int
    return_value: int
    steps: int


@dataclass
class OracleResult:
    """Everything the oracle learned about one program."""

    case_name: str
    seed: Optional[int]
    wcet_cycles: int = 0
    bcet_cycles: int = 0
    runs: List[RunOutcome] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    report: Optional[WCETReport] = None
    source: str = ""
    #: Wall-clock seconds of the loop-bound and unreachable-block checks, the
    #: decoded-program lookup included, under "check" (perfbench's
    #: ``testing.check_ms``).
    timings: Dict[str, float] = field(default_factory=dict)
    #: Function-summary cache counters of the analysis (tier1/tier2 hits and
    #: misses); all zero when no caching was in play.
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violation_kinds(self) -> List[str]:
        return sorted({violation.kind for violation in self.violations})

    def summary(self) -> str:
        status = "SOUND" if self.ok else "VIOLATED " + ",".join(self.violation_kinds())
        return (
            f"{self.case_name}: {status} "
            f"(wcet={self.wcet_cycles}, bcet={self.bcet_cycles}, "
            f"runs={len(self.runs)})"
        )


@dataclass
class OracleConfig:
    """Knobs of one oracle sweep."""

    processor_factory: object = simple_scalar
    max_input_vectors: int = 6
    max_steps: int = 2_000_000
    #: Directory of a persistent function-summary store shared by every
    #: worker of a sweep (``None`` disables tier-2 caching).  Purely a
    #: speed knob: cached and fresh analyses are bit-identical.
    cache_dir: Optional[str] = None
    #: Analysis options forwarded to the facade request (``None`` keeps the
    #: service defaults).  The fuzz driver uses this to probe non-default
    #: engine configurations, e.g. a tight ``max_contexts_per_function``.
    analysis_options: Optional[object] = None


#: Interesting scalar values probed first (clamped into the declared range).
_SCALAR_PROBES = (0, 1, -1)
#: Array fill patterns: (name, fill function over (index, low, high)).
_ARRAY_PATTERNS = (
    ("zeros", lambda i, lo, hi: 0),
    ("max", lambda i, lo, hi: hi),
    ("min", lambda i, lo, hi: lo),
    ("ramp", lambda i, lo, hi: lo + (i % (hi - lo + 1)) if hi > lo else lo),
    ("alternating", lambda i, lo, hi: hi if i % 2 == 0 else lo),
)


def enumerate_inputs(
    inputs: Sequence[GlobalVar], max_vectors: int, seed: int = 0
) -> List[Dict[str, List[int]]]:
    """Systematic input vectors: boundary probes first, seeded random tail.

    Returns ``initial_data`` maps for :meth:`Interpreter.run`.  Programs with
    no inputs get the single empty vector.
    """
    if not inputs:
        return [{}]

    rng = random.Random(seed)
    per_variable: List[List[List[int]]] = []
    for variable in inputs:
        low, high = variable.low, variable.high
        values: List[List[int]] = []
        if variable.length is None:
            candidates = [low, high]
            candidates += [v for v in _SCALAR_PROBES if low <= v <= high]
            seen = set()
            for value in candidates:
                if value not in seen:
                    seen.add(value)
                    values.append([value])
        else:
            for _, fill in _ARRAY_PATTERNS:
                values.append([fill(i, low, high) for i in range(variable.length)])
        per_variable.append(values)

    vectors: List[Dict[str, List[int]]] = []
    for combo in itertools.product(*per_variable):
        vectors.append(
            {variable.name: list(words) for variable, words in zip(inputs, combo)}
        )
        if len(vectors) >= max(max_vectors - 1, 1):
            break

    # Seeded random tail: fill the budget with uniform draws from the ranges.
    while len(vectors) < max_vectors:
        vector: Dict[str, List[int]] = {}
        for variable in inputs:
            length = variable.length or 1
            vector[variable.name] = [
                rng.randint(variable.low, variable.high) for _ in range(length)
            ]
        vectors.append(vector)
    return vectors


class DifferentialOracle:
    """Checks the soundness invariants of one program model."""

    def __init__(self, config: Optional[OracleConfig] = None):
        self.config = config or OracleConfig()
        # One store instance per oracle: workers of a sweep construct the
        # oracle once (pool worker setup), so bucket pages read from disk are
        # shared across every case the worker checks.
        self._summary_store = (
            SummaryStore(self.config.cache_dir) if self.config.cache_dir else None
        )

    # ------------------------------------------------------------------ #
    def check(self, case, rendered: Optional[RenderedCase] = None) -> OracleResult:
        """Run the full differential check for one case.

        ``case`` is a :class:`~repro.testing.generator.GeneratedCase` or any
        object with the same duck-typed surface (``name``, ``seed``,
        ``entry``, ``max_steps``, ``input_variables()`` and either a model
        renderable by :func:`render_case` or its own ``rendered()`` method —
        corpus cases provide the latter).  A caller that already rendered
        the case passes that :class:`RenderedCase` as ``rendered``.
        """
        result = OracleResult(case_name=case.name, seed=case.seed)

        if rendered is None:
            if isinstance(case, GeneratedCase):
                rendered = render_case(case)
            else:
                rendered = case.rendered()
        result.source = rendered.source
        processor = self.config.processor_factory()
        # The oracle is a thin consumer of the repro.api facade; cache="off"
        # keeps its caching contract literal: cache_dir=None means *no*
        # tier-2 store, even when REPRO_CACHE_DIR is set — only the
        # explicitly passed summary cache (with this oracle's own store) is
        # ever in play.
        settings = dict(
            entry=case.entry,
            annotations=rendered.annotations,
            processor=processor,
            cache="off",
            name=case.name,
        )
        if rendered.program is not None and rendered.program.entry == case.entry:
            # Rendering compiled this source already (to place the
            # function-pointer hints); analyse and replay that program.
            project = Project.from_program(rendered.program, **settings)
        else:
            project = Project.from_source(rendered.source, **settings)
        try:
            program = project.build()
        except ReproError as exc:
            result.violations.append(
                Violation(kind="compile-error", message=f"{type(exc).__name__}: {exc}")
            )
            return result

        summary_cache = SummaryCache(store=self._summary_store)
        options = self.config.analysis_options or AnalysisOptions()
        try:
            # Analyzer construction validates the program: an invalid Program
            # emitted by a compiler bug must surface as an analysis-error
            # violation, not crash the sweep.
            service = AnalysisService(project, summary_cache=summary_cache)
            request = ServiceRequest(entry=case.entry, options=options)
            report = service.analyze(request).report
        except ReproError as exc:
            result.violations.append(
                Violation(kind="analysis-error", message=f"{type(exc).__name__}: {exc}")
            )
            return result
        finally:
            result.cache_stats = summary_cache.stats()
        result.report = report
        result.wcet_cycles = report.wcet_cycles
        result.bcet_cycles = report.bcet_cycles

        vectors = enumerate_inputs(case.input_variables(), self.config.max_input_vectors)
        max_steps = min(case.max_steps, self.config.max_steps)
        # One interpreter and one trace timer serve all vectors: each decodes
        # an instruction, or builds its cost row, the first time it runs.
        interpreter = Interpreter(program, max_steps=max_steps)
        timer = TraceTimer(processor, program)
        # The structure checks read the analyzer's own CFGs and loop forests:
        # the analysis just decoded this program under these hints, so the
        # lookup is a hit on the program's memo.
        started = time.perf_counter()
        decoded = decode_program(program, hints=rendered.annotations.control_flow_hints)
        result.timings["check"] = time.perf_counter() - started
        for index, initial_data in enumerate(vectors):
            try:
                execution = interpreter.run(case.entry, initial_data=initial_data)
            except ReproError as exc:
                result.violations.append(
                    Violation(
                        kind="execution-error",
                        message=f"{type(exc).__name__}: {exc}",
                        input_index=index,
                    )
                )
                continue
            observed = timer.time(execution.trace)
            result.runs.append(
                RunOutcome(
                    input_index=index,
                    initial_data=initial_data,
                    observed_cycles=observed.cycles,
                    return_value=execution.return_value,
                    steps=execution.steps,
                )
            )

            if observed.cycles > report.wcet_cycles:
                result.violations.append(
                    Violation(
                        kind="wcet-undercut",
                        message=(
                            f"observed {observed.cycles} cycles > WCET bound "
                            f"{report.wcet_cycles}"
                        ),
                        input_index=index,
                    )
                )
            if observed.cycles < report.bcet_cycles:
                result.violations.append(
                    Violation(
                        kind="bcet-overcut",
                        message=(
                            f"observed {observed.cycles} cycles < BCET bound "
                            f"{report.bcet_cycles}"
                        ),
                        input_index=index,
                    )
                )
            started = time.perf_counter()
            self._check_structure(decoded, report, execution, result, index)
            result.timings["check"] += time.perf_counter() - started
        return result

    # ------------------------------------------------------------------ #
    def _check_structure(self, decoded, report, execution, result, index) -> None:
        """Loop-bound and unreachable-block checks against one trace."""
        block_counts = execution.trace.block_counts
        call_counts = execution.trace.call_counts

        for name, function_report in report.functions.items():
            calls = call_counts.get(name, 0)
            if calls == 0:
                continue
            cfg = decoded.cfgs[name]
            loops = decoded.loops(name)

            for block_id in function_report.unreachable_blocks:
                if not cfg.has_block(block_id):
                    continue
                executed = sum(
                    block_counts.get(address, 0)
                    for address in cfg.block(block_id).addresses()
                )
                if executed:
                    result.violations.append(
                        Violation(
                            kind="unreachable-executed",
                            message=(
                                f"{name}: block {block_id:#x} reported "
                                f"unreachable but executed {executed} times"
                            ),
                            input_index=index,
                        )
                    )

            bound_by_header = {
                loop_report.header: loop_report.bound
                for loop_report in function_report.loop_reports
                if loop_report.bound is not None
            }
            for loop in loops.loops:
                bound = bound_by_header.get(loop.header)
                if bound is None:
                    continue
                # Each entry into the loop may execute the header bound+1
                # times (the final, failing condition check).  A bound counts
                # *back edges*; an enclosing loop's body — and with it the
                # entry point of this loop — can run bound+1 times when the
                # enclosing loop exits through a break, so entries multiply
                # by parent_bound + 1 per nesting level.
                entries = calls
                parent = loop.parent
                while parent is not None:
                    parent_bound = bound_by_header.get(parent)
                    if parent_bound is None:
                        entries = None
                        break
                    entries *= parent_bound + 1
                    parent_loop = loops.loop_with_header(parent)
                    parent = parent_loop.parent if parent_loop else None
                if entries is None:
                    continue
                limit = (bound + _HEADER_SLACK) * entries
                executed = block_counts.get(loop.header, 0)
                if executed > limit:
                    result.violations.append(
                        Violation(
                            kind="loopbound-exceeded",
                            message=(
                                f"{name}: loop {loop.header:#x} header executed "
                                f"{executed} times, statically bounded by "
                                f"{bound} iterations x {entries} entries"
                            ),
                            input_index=index,
                        )
                    )


# --------------------------------------------------------------------------- #
def check_case(
    case: GeneratedCase, config: Optional[OracleConfig] = None
) -> OracleResult:
    """Convenience wrapper: run the differential oracle on one case."""
    return DifferentialOracle(config).check(case)
