"""The top-level static WCET analyzer — Figure 1 end to end.

:class:`WCETAnalyzer` reproduces the phase structure of aiT-like analyzers the
paper describes:

1. **Decoding** — CFG reconstruction and call-graph construction; indirect
   branches/calls need :class:`~repro.cfg.reconstruct.ControlFlowHints`
   (supplied through the annotation set), otherwise the analysis stops — the
   tier-one "function pointers" challenge.
2. **Loop/value analysis** — abstract interpretation per function, automatic
   loop bound detection; remaining loops must be bounded by annotations or the
   analysis stops — the tier-one "loops and recursions" challenge.  Irreducible
   loops can only be bounded by annotations.
3. **Cache/pipeline analysis** — abstract instruction/data cache analysis and
   the in-order pipeline model produce per-basic-block cycle bounds.
4. **Path analysis** — IPET integer linear programming maximises (minimises)
   total time subject to structural and annotation flow constraints, yielding
   the WCET (BCET) bound.

The analyzer is *mode aware* (:meth:`WCETAnalyzer.analyze` accepts an operating
mode and/or an error scenario, Section 4.3), supports context-sensitive callee
analysis (argument values at the call site seed the callee's value analysis)
and handles annotated recursion.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.errors import (
    AnnotationError,
    CFGError,
    UnboundedLoopError,
)
from repro.analysis import summaries as summary_keys
from repro.analysis.domains.interval import Interval
from repro.analysis.domains.memstate import AbstractValue
from repro.analysis.loopbounds import LoopBoundAnalysis, LoopBoundResult
from repro.analysis.summaries import FunctionSummary, SummaryCache
from repro.analysis.reachability import find_unreachable_code
from repro.analysis.value import AccessInfo, ValueAnalysis, ValueAnalysisResult
from repro.annotations.registry import AnnotationSet
from repro.cfg.decode import DecodedProgram, decode_program
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.loops import LoopForest
from repro.hardware.cache_analysis import (
    CacheClassification,
    DataCacheAnalysis,
    InstructionCacheAnalysis,
)
from repro.hardware.pipeline import PipelineModel
from repro.hardware.processor import ProcessorConfig
from repro.ir.instructions import ARGUMENT_REGISTERS, Opcode
from repro.ir.program import Program
from repro.wcet.blocktime import BlockTimeTable
from repro.wcet.contexts import CallContext, ContextCache
from repro.wcet.ipet import IPETBuilder, ResolvedFlowConstraint
from repro.wcet.report import (
    ChallengeReport,
    FunctionReport,
    LoopReport,
    PhaseTiming,
    WCETReport,
)

_M_PIVOTS = obs_metrics.REGISTRY.counter(
    "repro_simplex_pivots_total", "Simplex pivots spent in IPET path analysis."
)


class _PhaseClock:
    """Exclusive per-phase wall-clock accounting.

    Time always accrues to the *innermost* active phase: entering a nested
    phase pauses the enclosing one.  Context-sensitive callee analysis makes
    this essential — a callee's full analysis runs in the middle of the
    caller's pipeline-analysis phase, and naive interval timing would charge
    the callee's loop/value/cache/path work to the caller's pipeline bucket
    *in addition to* the callee's own buckets.  With the stacked clock the
    per-phase figures are disjoint and sum to the measured total.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._stack: List[str] = []
        self._checkpoint = 0.0

    def _accrue(self, now: float) -> None:
        if self._stack:
            top = self._stack[-1]
            self.seconds[top] = self.seconds.get(top, 0.0) + (now - self._checkpoint)
        self._checkpoint = now

    @contextmanager
    def phase(self, name: str):
        self._accrue(time.perf_counter())
        self._stack.append(name)
        span = obs_trace.begin(f"phase:{name}")
        try:
            yield
        finally:
            obs_trace.end(span)
            self._accrue(time.perf_counter())
            self._stack.pop()


@dataclass
class AnalysisOptions:
    """Tuning knobs of the WCET analyzer."""

    #: Re-analyse callees per call site with the argument values known there.
    context_sensitive_calls: bool = True
    #: Use the abstract instruction cache analysis (if the processor has one).
    use_instruction_cache: bool = True
    #: Use the abstract data cache analysis (if the processor has one).
    use_data_cache: bool = True
    #: Assume mutable globals still hold their initial values at task entry.
    assume_initial_globals: bool = False
    #: Raise immediately on unresolved indirect branches/calls (tier-one).
    strict_indirect: bool = True
    #: Also compute BCET bounds (cheap; disable for large sweeps).
    compute_bcet: bool = True
    #: Cap on distinct argument contexts analysed per callee.
    max_contexts_per_function: int = 16


class WCETAnalyzer:
    """Static WCET analyzer for one program on one processor configuration."""

    def __init__(
        self,
        program: Program,
        processor: ProcessorConfig,
        annotations: Optional[AnnotationSet] = None,
        options: Optional[AnalysisOptions] = None,
        summary_store=None,
        summary_cache: Optional[SummaryCache] = None,
    ):
        program.validate()
        self.program = program
        self.processor = processor
        self.annotations = annotations or AnnotationSet()
        self.options = options or AnalysisOptions()
        self.pipeline = PipelineModel(processor)
        # Two-tier function-summary cache.  ``summary_cache`` shares an
        # in-process tier between analyzers (the batch API uses this);
        # ``summary_store`` attaches a persistent on-disk tier.  With neither,
        # the analyzer caches in process only.
        if summary_cache is not None:
            self.summaries = summary_cache
        else:
            self.summaries = SummaryCache(store=summary_store)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def analyze(
        self,
        entry: Optional[str] = None,
        mode: Optional[str] = None,
        error_scenario: Optional[str] = None,
        _shared: "Optional[_SharedModeState]" = None,
    ) -> WCETReport:
        """Analyse the task starting at ``entry`` (default: the program entry).

        ``mode`` selects an operating mode (its facts are merged in), and
        ``error_scenario`` applies a documented error-handling scenario.
        ``_shared`` carries the loop/value memo :meth:`analyze_all_modes`
        threads through its per-mode runs.  Decoding needs no such plumbing:
        the program memoises it, so it runs once for any number of runs.
        """
        entry = entry or self.program.entry
        annotations = self.annotations.for_mode(mode)
        if error_scenario is not None:
            scenario = next(
                (s for s in annotations.error_scenarios if s.name == error_scenario),
                None,
            )
            if scenario is None:
                raise AnnotationError(f"unknown error scenario {error_scenario!r}")
            infeasible, constraints = scenario.to_flow_facts()
            annotations.infeasible_paths.extend(infeasible)
            annotations.flow_constraints.extend(constraints)

        phases: List[PhaseTiming] = []
        challenges = ChallengeReport()
        clock = _PhaseClock()

        # ----------------------------------------------------------------- #
        # Phase 1: decoding (CFG reconstruction + call graph).  Decoding is a
        # pure function of the program, its hints and the strictness, so the
        # program memoises it: every analysis, mode and the oracle after the
        # first reads the same decoded form.
        # ----------------------------------------------------------------- #
        with clock.phase("decoding"):
            decoded = decode_program(
                self.program,
                hints=annotations.control_flow_hints,
                strict=self.options.strict_indirect,
            )
            for message in decoded.issues:
                challenges.add_tier_one(message)
        decode_detail = decoded.detail
        if _shared is not None:
            decode_detail += " (shared across modes)"
        phases.append(
            PhaseTiming("decoding", clock.seconds.get("decoding", 0.0), decode_detail)
        )

        reachable = decoded.callgraph.reachable_from(entry)
        analysis_state = _RunState(
            annotations=annotations,
            decoded=decoded,
            challenges=challenges,
            clock=clock,
            reports={},
            context_cache=ContextCache(),
            summaries=self.summaries,
            bucket=summary_keys.bucket_digest(
                self.program.content_digest(), self.processor, self.options
            ),
            hints_dig=summary_keys.hints_digest(annotations),
            value_memo=(_shared.value_memo if _shared is not None else {}),
        )

        # ----------------------------------------------------------------- #
        # Phases 2-4 per function, callees before callers.  The enclosing
        # "orchestration" phase soaks up the time between the named phases
        # (call-graph walking, context-cache management, recursion scaling)
        # so the per-phase figures sum to the total analysis time.
        # ----------------------------------------------------------------- #
        with clock.phase("orchestration"):
            for component in decoded.components:
                members = [name for name in component if name in reachable]
                if not members:
                    continue
                if not component.isdisjoint(decoded.recursive):
                    self._analyze_recursive_component(members, analysis_state)
                else:
                    name = members[0]
                    report = self._analyze_function(
                        name, CallContext.default(name), analysis_state
                    )
                    analysis_state.reports[name] = report

        for phase_name in (
            "loop/value analysis",
            "cache analysis",
            "pipeline analysis",
            "path analysis",
            "orchestration",
        ):
            phases.append(
                PhaseTiming(
                    phase_name,
                    clock.seconds.get(phase_name, 0.0),
                    iterations=analysis_state.counters.get(phase_name, 0),
                )
            )

        entry_report = analysis_state.reports[entry]
        report = WCETReport(
            entry=entry,
            processor=self.processor.name,
            wcet_cycles=entry_report.wcet_cycles,
            bcet_cycles=entry_report.bcet_cycles,
            functions={
                name: function_report
                for name, function_report in analysis_state.reports.items()
                if name in reachable
            },
            phases=phases,
            challenges=challenges,
            mode=mode,
            error_scenario=error_scenario,
            annotation_summary=annotations.summary(),
        )
        self.summaries.flush()
        return report

    def analyze_all_modes(self, entry: Optional[str] = None) -> Dict[Optional[str], WCETReport]:
        """Analyse the mode-unaware case plus every declared operating mode.

        Every per-mode run reads the program's one decoded form (CFGs, call
        graph, loop forests; :func:`~repro.cfg.decode.decode_program`), and
        the runs share one loop/value memo keyed on each function's actual
        inputs (entry register values, globals assumption).  So a mode that
        only adds path-level facts (flow constraints, infeasible paths, loop
        bounds) re-runs none of the mode-independent phases — visible as
        near-zero "decoding" and "loop/value analysis" timings in every
        report after the first.  Every report of the family marks its
        decoding detail "(shared across modes)".  Functions whose full
        analysis inputs are unchanged by a mode are shared wholesale through
        the function-summary cache.
        """
        shared = _SharedModeState()
        results: Dict[Optional[str], WCETReport] = {
            None: self.analyze(entry=entry, _shared=shared)
        }
        for mode_name in self.annotations.mode_names():
            results[mode_name] = self.analyze(entry=entry, mode=mode_name, _shared=shared)
        return results

    # ------------------------------------------------------------------ #
    # Function-level analysis
    # ------------------------------------------------------------------ #
    def _analyze_function(
        self,
        name: str,
        context: CallContext,
        run: "_RunState",
        recursive_component: Optional[Set[str]] = None,
    ) -> FunctionReport:
        cached = run.context_cache.get(context)
        if cached is not None:
            # Journal the hit as well: a summary being recorded higher up the
            # stack must capture every context its subtree *consulted*, not
            # just the ones first registered inside it — a cold run of that
            # subtree alone would register them itself, and replay has to
            # reconstruct the same population.
            run.context_journal.append((context, cached))
            return cached

        # --- function-summary cache probe (tier 1 in-process, tier 2 disk) - #
        # Members of recursion cycles are excluded: their body analyses use
        # non-standard semantics (recursive calls charged zero) and their
        # default-context result is the depth-scaled one installed by
        # _analyze_recursive_component, so they are re-derived every run.
        key = None
        if recursive_component is None and name not in run.decoded.recursive:
            key = (
                run.bucket,
                summary_keys.summary_item_key(name, context, run.annotation_digest(name)),
            )
            summary = run.summaries.get(*key)
            if summary is not None:
                with obs_trace.span("summary-replay", attrs={"function": name}):
                    return self._install_summary(summary, context, run)
        challenge_marks = (len(run.challenges.tier_one), len(run.challenges.tier_two))
        known_reports = set(run.reports)
        journal_mark = len(run.context_journal)
        cap_mark = run.cap_binding_events

        annotations = run.annotations
        cfg = run.decoded.cfgs[name]
        loops = run.decoded.loops(name)

        # --- loop/value analysis (memoised on its actual inputs) ---------- #
        with run.clock.phase("loop/value analysis"):
            initial_registers = self._initial_registers(name, context, annotations)
            memo_key = (
                name,
                tuple(
                    sorted(
                        (register, value.interval.lo, value.interval.hi)
                        for register, value in initial_registers.items()
                    )
                ),
            )
            memo_entry = run.value_memo.get(memo_key)
            if memo_entry is None:
                value_analysis = ValueAnalysis(
                    self.program,
                    cfg,
                    loops,
                    initial_registers=initial_registers,
                    assume_initial_globals=self.options.assume_initial_globals,
                )
                values = value_analysis.run()
                pristine_bounds = LoopBoundAnalysis(cfg, loops, values).run()
                run.value_memo[memo_key] = (value_analysis, values, pristine_bounds)
                run.counters["loop/value analysis"] = (
                    run.counters.get("loop/value analysis", 0) + values.iterations
                )
            else:
                value_analysis, values, pristine_bounds = memo_entry
            # Loop annotations mutate the bound set (and differ per mode);
            # the memoised result stays pristine, each run works on a copy.
            bounds = LoopBoundResult(
                function_name=pristine_bounds.function_name,
                bounds=dict(pristine_bounds.bounds),
                failures=dict(pristine_bounds.failures),
            )
            loop_reports = self._apply_loop_annotations(
                name, cfg, loops, bounds, annotations, run
            )

        if bounds.failures:
            details = "; ".join(
                f"loop {header:#x}: {failure.reason} — {failure.message}"
                for header, failure in sorted(bounds.failures.items())
            )
            run.challenges.add_tier_one(
                f"{name}: unbounded loops remain after annotations ({details})"
            )
            raise UnboundedLoopError(
                f"cannot compute a WCET bound for {name!r}: {details}. "
                "Add 'loopbound' annotations for these loops."
            )

        accesses = self._restrict_accesses(name, values.accesses, annotations, run)

        # --- cache analysis ------------------------------------------------ #
        with run.clock.phase("cache analysis"):
            icache_classes: Dict[int, CacheClassification] = {}
            dcache_classes: Dict[int, CacheClassification] = {}
            icache_summary: Dict[str, int] = {}
            dcache_summary: Dict[str, int] = {}
            if self.processor.icache is not None and self.options.use_instruction_cache:
                icache_result = InstructionCacheAnalysis(cfg, self.processor.icache, loops).run()
                icache_classes = icache_result.classifications
                icache_summary = icache_result.summary()
            if self.processor.dcache is not None and self.options.use_data_cache:
                dcache_result = DataCacheAnalysis(
                    cfg, self.processor.dcache, accesses, self.processor.memory_map, loops
                ).run()
                dcache_classes = dcache_result.classifications
                dcache_summary = dcache_result.summary()

        # --- pipeline analysis (per-block times + callee costs) ------------- #
        # Callee costs recursively analyse the callees; their phases pause
        # this one (see _PhaseClock), so only the caller's own table work is
        # charged to "pipeline analysis".
        with run.clock.phase("pipeline analysis"):
            table = BlockTimeTable(function_name=name)
            for block_id, block in cfg.blocks.items():
                table.set_block(
                    self.pipeline.block_time_bounds(
                        block, icache_classes, dcache_classes, accesses
                    )
                )
            self._add_callee_costs(
                name, cfg, value_analysis, values, table, run, recursive_component
            )

        # --- path analysis --------------------------------------------------#
        with run.clock.phase("path analysis"):
            reachability = find_unreachable_code(cfg, values)
            infeasible_blocks = set(reachability.all_unreachable())
            infeasible_blocks |= self._resolve_infeasible(name, cfg, annotations)
            infeasible_edges = set(values.infeasible_edges())
            flow_constraints = self._resolve_flow_constraints(name, cfg, annotations)
            loop_bound_map = {
                header: bound.max_back_edges for header, bound in bounds.bounds.items()
            }

            ipet = IPETBuilder(cfg, loops)
            solve_span = obs_trace.begin("simplex-solve", attrs={"function": name})
            if self.options.compute_bcet:
                # Both objectives share one presolved constraint system and
                # one phase-1 feasibility basis.
                wcet_result, bcet_result = ipet.solve_pair(
                    table.wcet_weights(),
                    table.bcet_weights(),
                    loop_bound_map,
                    infeasible_blocks=infeasible_blocks,
                    infeasible_edges=infeasible_edges,
                    flow_constraints=flow_constraints,
                )
                bcet_cycles = bcet_result.bound_cycles
                pivots = wcet_result.ilp_pivots + bcet_result.ilp_pivots
            else:
                wcet_result = ipet.solve(
                    table.wcet_weights(),
                    loop_bound_map,
                    infeasible_blocks=infeasible_blocks,
                    infeasible_edges=infeasible_edges,
                    flow_constraints=flow_constraints,
                    maximise=True,
                )
                bcet_cycles = 0
                pivots = wcet_result.ilp_pivots
            if solve_span is not None:
                solve_span.set("pivots", pivots)
            obs_trace.end(solve_span)
            run.counters["path analysis"] = (
                run.counters.get("path analysis", 0) + pivots
            )
            _M_PIVOTS.inc(pivots)

        unknown_accesses = sum(1 for info in accesses.values() if info.unknown)
        imprecise_accesses = sum(
            1 for info in accesses.values() if not info.absolute.is_constant
        )
        if unknown_accesses:
            run.challenges.add_tier_two(
                f"{name}: {unknown_accesses} memory accesses with completely unknown "
                "addresses (charged with the slowest memory module)"
            )
        not_classified = dcache_summary.get("NC", 0) + icache_summary.get("NC", 0)
        if not_classified:
            run.challenges.add_tier_two(
                f"{name}: {not_classified} cache accesses could not be classified "
                "(charged as misses)"
            )

        report = FunctionReport(
            name=name,
            wcet_cycles=wcet_result.bound_cycles,
            bcet_cycles=bcet_cycles,
            loop_reports=loop_reports,
            block_times=dict(table.times),
            block_counts=wcet_result.block_counts,
            icache_summary=icache_summary,
            dcache_summary=dcache_summary,
            unreachable_blocks=reachability.all_unreachable(),
            imprecise_accesses=imprecise_accesses,
            unknown_accesses=unknown_accesses,
            callee_wcet=dict(table.callee_wcet),
            ilp_nodes=wcet_result.ilp_nodes,
            context=str(context),
        )
        if key is not None and run.cap_binding_events == cap_mark:
            # Only cache subtrees whose context-sensitivity decisions were
            # independent of the run-global context population (the
            # ``max_contexts_per_function`` cap never became binding inside
            # them): those replay identically under any starting state.
            run.summaries.put(
                *key,
                FunctionSummary(
                    report=report,
                    subtree_reports={
                        fn: rep
                        for fn, rep in run.reports.items()
                        if fn not in known_reports
                    },
                    contexts=tuple(run.context_journal[journal_mark:]),
                    tier_one=tuple(run.challenges.tier_one[challenge_marks[0]:]),
                    tier_two=tuple(run.challenges.tier_two[challenge_marks[1]:]),
                ),
            )
        run.record_context(context, report)
        return report

    def _install_summary(
        self, summary: FunctionSummary, context: CallContext, run: "_RunState"
    ) -> FunctionReport:
        """Replay a cached analysis subtree into this run's state.

        Reconstructs exactly what a cold analysis of the subtree would have
        left behind: the challenge messages it emitted, the callee reports it
        added, and the callee contexts it registered (the latter keeps the
        ``max_contexts_per_function`` cap deterministic between cold and warm
        runs).
        """
        for message in summary.tier_one:
            run.challenges.add_tier_one(message)
        for message in summary.tier_two:
            run.challenges.add_tier_two(message)
        for fn, rep in summary.subtree_reports.items():
            run.reports.setdefault(fn, rep)
        for ctx, rep in summary.contexts:
            existing = run.context_cache.get(ctx)
            if existing is None:
                run.record_context(ctx, rep)
            else:
                # Already registered in this run: journal the consultation
                # anyway (with the run's own report), exactly as the cold
                # path does for context-cache hits — a summary being
                # recorded higher up the stack must see it.
                run.context_journal.append((ctx, existing))
        run.record_context(context, summary.report)
        return summary.report

    # ------------------------------------------------------------------ #
    def _analyze_recursive_component(self, members: List[str], run: "_RunState") -> None:
        """Handle a recursion cycle (MISRA rule 16.2 territory).

        Each member is analysed with recursive calls (calls to other members of
        the cycle) charged zero cycles — the *body* cost.  The annotated
        recursion depth ``D`` then scales the result:

        * with at most one recursive call site per body the number of
          activations is at most ``D``;
        * with ``k > 1`` recursive call sites per body it is at most
          ``(k^D - 1) / (k - 1)`` (a call tree of branching factor ``k``).

        The resulting bound is conservative but sound under the annotated
        depth; without an annotation the analysis is aborted, which is exactly
        the tier-one situation the paper describes.
        """
        component = set(members)
        depth_annotation = None
        for name in members:
            annotation = run.annotations.recursion_bound_for(name)
            if annotation is not None:
                if depth_annotation is None or annotation.max_depth > depth_annotation:
                    depth_annotation = annotation.max_depth
        if depth_annotation is None:
            run.challenges.add_tier_one(
                f"recursion cycle {sorted(component)} has no recursion-depth annotation"
            )
            raise CFGError(
                f"functions {sorted(component)} are (mutually) recursive and no "
                "'recursion' annotation bounds the depth; no WCET bound can be "
                "computed (MISRA rule 16.2)"
            )
        run.challenges.add_tier_two(
            f"recursion cycle {sorted(component)} bounded by annotated depth "
            f"{depth_annotation}"
        )

        body_reports: Dict[str, FunctionReport] = {}
        branching = 1
        for name in members:
            report = self._analyze_function(
                name,
                CallContext.default(name),
                run,
                recursive_component=component,
            )
            body_reports[name] = report
            sites = 0
            for site in run.decoded.callgraph.call_sites_in(name):
                if site.callee in component:
                    sites += 1
            branching = max(branching, sites)

        if branching <= 1:
            activations = depth_annotation
        else:
            activations = (branching ** depth_annotation - 1) // (branching - 1)

        total_body_wcet = sum(r.wcet_cycles for r in body_reports.values())
        total_body_bcet = min(r.bcet_cycles for r in body_reports.values())
        for name, body in body_reports.items():
            scaled = FunctionReport(
                name=name,
                wcet_cycles=activations * total_body_wcet,
                bcet_cycles=total_body_bcet,
                loop_reports=body.loop_reports,
                block_times=body.block_times,
                block_counts=body.block_counts,
                icache_summary=body.icache_summary,
                dcache_summary=body.dcache_summary,
                unreachable_blocks=body.unreachable_blocks,
                imprecise_accesses=body.imprecise_accesses,
                unknown_accesses=body.unknown_accesses,
                callee_wcet=body.callee_wcet,
                ilp_nodes=body.ilp_nodes,
                context=f"{name}[recursion depth {depth_annotation}]",
            )
            run.reports[name] = scaled
            # Later callers must see the scaled cost.
            run.record_context(CallContext.default(name), scaled)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _initial_registers(
        self, name: str, context: CallContext, annotations: AnnotationSet
    ) -> Dict[str, AbstractValue]:
        initial: Dict[str, AbstractValue] = {}
        for annotation in annotations.argument_ranges_for(name):
            initial[annotation.register] = AbstractValue(
                Interval(annotation.low, annotation.high)
            )
        # Context argument values (call-site specific) override annotations.
        for register, interval in context.argument_intervals().items():
            initial[register] = AbstractValue(interval)
        return initial

    def _apply_loop_annotations(
        self,
        name: str,
        cfg: ControlFlowGraph,
        loops: LoopForest,
        bounds: LoopBoundResult,
        annotations: AnnotationSet,
        run: "_RunState",
    ) -> List[LoopReport]:
        for annotation in annotations.loop_bounds_for(name):
            block_id = _resolve_location(cfg, annotation.location)
            if block_id is None:
                raise AnnotationError(
                    f"loop bound annotation for {name}/{annotation.location!r} does "
                    "not match any basic block"
                )
            loop = loops.loop_with_header(block_id) or loops.innermost_loop_of(block_id)
            if loop is None:
                raise AnnotationError(
                    f"loop bound annotation for {name}/{annotation.location!r}: the "
                    "location is not inside any loop"
                )
            existing = bounds.bounds.get(loop.header)
            if existing is None or annotation.max_iterations < existing.max_back_edges:
                bounds.add_annotation(
                    loop.header, annotation.max_iterations, detail=annotation.comment
                )

        reports: List[LoopReport] = []
        for loop in loops.loops:
            bound = bounds.bounds.get(loop.header)
            failure = bounds.failures.get(loop.header)
            if bound is not None:
                if bound.source == "annotation":
                    run.challenges.add_tier_two(
                        f"{name}: loop at {loop.header:#x} bounded only by annotation "
                        f"(<= {bound.max_back_edges} iterations)"
                    )
                reports.append(
                    LoopReport(
                        function=name,
                        header=loop.header,
                        bound=bound.max_back_edges,
                        source=bound.source,
                        irreducible=loop.irreducible,
                        detail=bound.detail,
                    )
                )
            else:
                reports.append(
                    LoopReport(
                        function=name,
                        header=loop.header,
                        bound=None,
                        source="unbounded",
                        irreducible=loop.irreducible,
                        failure_reason=failure.reason if failure else "",
                        detail=failure.message if failure else "",
                    )
                )
        return reports

    def _restrict_accesses(
        self,
        name: str,
        accesses: Dict[int, AccessInfo],
        annotations: AnnotationSet,
        run: "_RunState",
    ) -> Dict[int, AccessInfo]:
        annotation = annotations.memory_regions_for(name)
        if annotation is None:
            return accesses
        allowed = Interval.bottom()
        for region in annotation.regions:
            module = self.processor.memory_map.module_named(region)
            allowed = allowed.join(Interval(module.base, module.end - 1))
        restricted: Dict[int, AccessInfo] = {}
        changed = 0
        for address, info in accesses.items():
            if info.unknown or info.absolute.is_top:
                restricted[address] = AccessInfo(
                    instruction_address=info.instruction_address,
                    is_load=info.is_load,
                    size=info.size,
                    bases=info.bases,
                    offset=info.offset,
                    absolute=allowed,
                    unknown=False,
                )
                changed += 1
            else:
                restricted[address] = info
        if changed:
            run.challenges.add_tier_two(
                f"{name}: {changed} unknown memory accesses restricted to regions "
                f"{list(annotation.regions)} by annotation"
            )
        return restricted

    def _add_callee_costs(
        self,
        name: str,
        cfg: ControlFlowGraph,
        value_analysis: ValueAnalysis,
        values: ValueAnalysisResult,
        table: BlockTimeTable,
        run: "_RunState",
        recursive_component: Optional[Set[str]],
    ) -> None:
        hints = run.annotations.control_flow_hints
        for block_id, block in cfg.blocks.items():
            for instr in block.call_sites():
                if instr.opcode is Opcode.CALL:
                    targets = [instr.call_target()]
                else:
                    targets = list(hints.call_targets(instr.address) or ())
                    if not targets:
                        # Unresolved indirect call in permissive mode: charge
                        # the most expensive known function as a fallback.
                        targets = []
                worst = 0
                best = 0 if targets else 0
                best_candidates: List[int] = []
                for target in targets:
                    if recursive_component and target in recursive_component:
                        # Recursive calls are charged by the component scaling.
                        continue
                    callee_report = self._callee_report(
                        target, instr.address, block_id, value_analysis, values, run
                    )
                    worst = max(worst, callee_report.wcet_cycles)
                    best_candidates.append(callee_report.bcet_cycles)
                best = min(best_candidates) if best_candidates else 0
                if worst or best:
                    table.add_callee_cost(block_id, worst, best)

    def _callee_report(
        self,
        callee: str,
        call_address: int,
        block_id: int,
        value_analysis: ValueAnalysis,
        values: ValueAnalysisResult,
        run: "_RunState",
    ) -> FunctionReport:
        context = CallContext.default(callee)
        # Recursive functions are always charged with their (depth-scaled)
        # default-context bound; analysing them per call-site argument context
        # would sidestep the recursion-depth annotation.
        if callee in run.decoded.recursive:
            report = run.context_cache.get(context)
            if report is not None:
                if callee not in run.reports:
                    run.reports[callee] = report
                return report
        if self.options.context_sensitive_calls:
            state = value_analysis.state_before(values, block_id, call_address)
            if state.reachable:
                arguments: Dict[str, Interval] = {}
                callee_function = self.program.function(callee)
                used = ARGUMENT_REGISTERS[: max(callee_function.num_params, 0)]
                for register in used:
                    value = state.get(register)
                    if value.is_float:
                        continue
                    interval = self._argument_interval(value)
                    if interval is not None and not interval.is_top:
                        arguments[register] = interval
                if arguments:
                    candidate = CallContext.from_arguments(callee, arguments)
                    existing = run.context_cache.contexts_for(callee)
                    cap = self.options.max_contexts_per_function
                    if cap > 0 and len(existing) >= cap:
                        # The cap is binding: the decision below depends on
                        # which contexts happen to be registered already —
                        # run-global state a function summary cannot capture.
                        # Summaries recorded while this was the case are not
                        # reusable (see _analyze_function).
                        run.cap_binding_events += 1
                    if candidate in existing or len(existing) < cap:
                        context = candidate
        # _analyze_function starts with the (hit/miss-counted) context-cache
        # lookup for this exact context, so probing here too would count
        # every cold callee analysis as two misses.
        report = self._analyze_function(callee, context, run)
        if context.is_default and callee not in run.reports:
            run.reports[callee] = report
        elif callee not in run.reports:
            # Make sure the function shows up in the overall report even if it
            # was only analysed context-sensitively.
            run.reports[callee] = report
        return report

    def _argument_interval(self, value: AbstractValue) -> Optional[Interval]:
        """Numeric interval to seed a callee context with, or ``None``.

        Address-typed values (symbolic base + offset interval) must be
        translated to *absolute* address intervals before crossing the call
        boundary: the callee's value analysis has no notion of the caller's
        bases, so passing the raw offset interval (e.g. ``[0, 0]`` for
        ``&global``) would make callee memory accesses resolve to bogus
        addresses outside every memory module — and be charged zero cycles,
        undercutting the WCET bound.  Bases without a static address (the
        caller's stack frame) are dropped entirely, which is sound: the
        callee argument simply stays unknown.
        """
        if not value.bases:
            return value.interval
        absolute = Interval.bottom()
        for base in value.bases:
            if not (self.program.has_data(base) or self.program.has_function(base)):
                return None
            base_address = self.program.symbol_address(base)
            absolute = absolute.join(value.interval.add(Interval.const(base_address)))
        return absolute

    def _resolve_infeasible(
        self, name: str, cfg: ControlFlowGraph, annotations: AnnotationSet
    ) -> Set[int]:
        result: Set[int] = set()
        for annotation in annotations.infeasible_for(name):
            block_id = _resolve_location(cfg, annotation.location)
            if block_id is None:
                raise AnnotationError(
                    f"infeasible-path annotation for {name}/{annotation.location!r} "
                    "does not match any basic block"
                )
            result.add(block_id)
        return result

    def _resolve_flow_constraints(
        self, name: str, cfg: ControlFlowGraph, annotations: AnnotationSet
    ) -> List[ResolvedFlowConstraint]:
        resolved: List[ResolvedFlowConstraint] = []
        for constraint in annotations.flow_constraints_for(name):
            terms: List[Tuple[int, int]] = []
            for location, coefficient in constraint.terms:
                block_id = _resolve_location(cfg, location)
                if block_id is None:
                    raise AnnotationError(
                        f"flow constraint {constraint.name or constraint.terms!r} for "
                        f"{name}: location {location!r} does not match any block"
                    )
                terms.append((block_id, coefficient))
            resolved.append(
                ResolvedFlowConstraint(
                    terms=tuple(terms),
                    relation=constraint.relation,
                    bound=constraint.bound,
                    name=constraint.name,
                )
            )
        return resolved


@dataclass
class _SharedModeState:
    """Mode-independent pipeline state shared by :meth:`analyze_all_modes`.

    ``value_memo`` holds converged value analyses and pristine loop-bound
    results, keyed by ``(function, canonical entry-register values)``: the
    complete set of inputs the loop/value phase depends on once the CFG is
    fixed.  Modes that only add path-level facts share every entry.  (The
    decoded program needs no sharing here: the program memoises it.)
    """

    value_memo: Dict[tuple, tuple] = field(default_factory=dict)


@dataclass
class _RunState:
    """Mutable state shared by one :meth:`WCETAnalyzer.analyze` run."""

    annotations: AnnotationSet
    decoded: DecodedProgram
    challenges: ChallengeReport
    clock: _PhaseClock
    reports: Dict[str, FunctionReport]
    context_cache: ContextCache
    #: The analyzer's two-tier function-summary cache plus this run's
    #: content-addressed key material.
    summaries: SummaryCache = None
    bucket: str = ""
    hints_dig: str = ""
    #: Per-phase work counters (fixpoint iterations, simplex pivots) that
    #: end up on the matching :class:`PhaseTiming` entries.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Loop/value memo (shared across modes when the run is part of an
    #: ``analyze_all_modes`` pipeline, run-local otherwise).
    value_memo: Dict[tuple, tuple] = field(default_factory=dict)
    #: Every (context, report) registration of this run, in order; function
    #: summaries record the slice made inside their subtree so a cache hit
    #: can replay the exact same registrations.
    context_journal: List[Tuple[CallContext, FunctionReport]] = field(
        default_factory=list
    )
    #: Per-function annotation digests (memoised; keyed over the callee
    #: closure, so they are stable for the whole run).
    _annot_digests: Dict[str, str] = field(default_factory=dict)
    #: Times the ``max_contexts_per_function`` cap was binding (a callee's
    #: registered-context count had reached it when a call site was charged).
    #: Subtrees containing such events are never summarised: their outcome
    #: depends on run-global state the cache key cannot capture.
    cap_binding_events: int = 0

    # ------------------------------------------------------------------ #
    def record_context(self, context: CallContext, report: FunctionReport) -> None:
        self.context_cache.put(context, report)
        self.context_journal.append((context, report))

    def annotation_digest(self, name: str) -> str:
        digest = self._annot_digests.get(name)
        if digest is None:
            closure = summary_keys.callee_closure(self.decoded.callgraph, name)
            digest = summary_keys.function_annotation_digest(
                self.annotations, closure, self.hints_dig
            )
            self._annot_digests[name] = digest
        return digest


def _resolve_location(cfg: ControlFlowGraph, location) -> Optional[int]:
    """Resolve a label or address to the basic block containing it."""
    if isinstance(location, int):
        try:
            return cfg.block_containing(location).id
        except CFGError:
            return None
    for block_id, block in cfg.blocks.items():
        for instr in block.instructions:
            if instr.label == location:
                return block_id
    return None
