"""Per-layer attribution for the traced pass.

The traced pass installs :class:`repro.obs.trace.Tracer` (which already emits
``analyze``, ``phase:*``, ``summary-replay`` and ``simplex-solve`` spans, and
on the server path ``client-submit``, ``queue-wait``, ``dispatch``,
``worker-execute`` and ``cache-flush``) and wraps public entry points of the
other layers from here, so nothing under ``src/`` changes.  Each op runs
under its own root span and trace id.

Attribution is a sweep over one op's time line: every instant of the op is
charged to the *deepest* span of that op's trace covering it.  In one thread
that is the usual self time (a span's duration minus its children's).  On
the server path it also charges the instants a client thread spends blocked
in ``wait`` to the server-side span doing the work at that moment, so the
layer times of one op add up to its latency instead of double counting.
"""

from __future__ import annotations

import heapq
import json
import os
import re
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: The repo's modules, in pipeline order: the layers of the report.
LAYERS = (
    "minic", "ir", "cfg", "analysis", "hardware", "wcet", "cache", "api",
    "server", "testing",
)

#: Spans the program emits itself, by layer.  Spans this module opens are
#: named ``<layer>.<call>`` and need no entry here.
PROGRAM_SPANS = {
    "analyze": "api",
    "phase:decoding": "cfg",
    "phase:loop/value analysis": "analysis",
    "phase:cache analysis": "hardware",
    "phase:pipeline analysis": "hardware",
    "phase:path analysis": "wcet",
    "simplex-solve": "wcet",
    "phase:orchestration": "wcet",
    "summary-replay": "cache",
    "cache-flush": "cache",
    "client-submit": "server",
    "queue-wait": "server",
    "dispatch": "server",
    "worker-execute": "server",
    "dedup-join": "server",
}

#: Name of the root span the benchmark opens around every op.
OP_SPAN = "op"

#: Every per-layer metric the traced run reports, with its unit.
TIME_METRICS = (
    "minic.compile_ms", "ir.build_ms", "ir.interpret_ms", "cfg.decode_ms",
    "analysis.value_ms", "hardware.cache_ms", "hardware.pipeline_ms",
    "hardware.trace_timer_ms", "wcet.path_ms", "wcet.simplex_ms",
    "wcet.orchestration_ms", "cache.store_read_ms", "cache.store_flush_ms",
    "cache.replay_ms", "api.facade_ms", "api.encode_ms", "api.decode_ms",
    "server.submit_ms", "server.wait_ms", "server.result_ms",
    "server.queue_wait_ms", "server.dispatch_ms", "server.worker_execute_ms",
    "server.flush_ms", "server.overhead_ms", "testing.generate_ms",
    "testing.check_ms",
)
COUNT_METRICS = (
    "minic.ir_instructions", "ir.steps", "cfg.blocks",
    "analysis.fixpoint_iterations", "analysis.fixpoint_joins",
    "analysis.fixpoint_widens", "analysis.kernel_compiles",
    "analysis.blocks_interpreted", "wcet.simplex_pivots", "wcet.ilp_nodes",
    "cache.tier1_hits", "cache.tier1_misses", "cache.tier2_hits",
    "cache.tier2_misses", "cache.puts", "cache.file_reads",
    "cache.file_writes", "cache.bytes_read", "api.result_bytes",
    "server.http_requests_per_op", "server.dedup_joins", "server.rejections",
    "server.retries", "server.worker_restarts",
)


def metric_units() -> Dict[str, str]:
    """Unit of every per-layer metric name."""
    units = {name: "ms" for name in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units["api.result_bytes"] = "bytes"
    units["server.http_requests_per_op"] = "count/op"
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.share"] = "fraction"
    units["obs.op_ms"] = "ms"
    units["obs.unattributed_ms"] = "ms"
    units["obs.trace_overhead"] = "fraction"
    return units


#: Registry counters whose deltas become exact per-layer counts.
REGISTRY_COUNTS = {
    "analysis.fixpoint_iterations": "repro_fixpoint_iterations_total",
    "analysis.fixpoint_joins": "repro_fixpoint_joins_total",
    "analysis.fixpoint_widens": "repro_fixpoint_widens_total",
    "analysis.kernel_compiles": "repro_kernel_jit_compiles_total",
    "analysis.blocks_interpreted": "repro_kernel_interpreted_blocks_total",
    "wcet.simplex_pivots": "repro_simplex_pivots_total",
}

#: Key under which the fleet oracle's own "check" seconds are summed.
CHECK_SECONDS = "testing.check_seconds"

_BLOCKS = re.compile(r"^(\d+) basic blocks")


def layer_of(name: str) -> Optional[str]:
    layer = PROGRAM_SPANS.get(name)
    if layer is None and "." in name:
        layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else None


# --------------------------------------------------------------------------- #
# Counters read from results and from the metric registry
# --------------------------------------------------------------------------- #
def registry_counts() -> Dict[str, float]:
    """Current values of the registry counters named in REGISTRY_COUNTS."""
    counts = {}
    for metric, family in REGISTRY_COUNTS.items():
        counter = obs_metrics.REGISTRY.get(family)
        counts[metric] = counter.value() if counter is not None else 0.0
    return counts


def report_counts(reports: Iterable, counts: Dict[str, float]) -> None:
    """Add the work counters one result's WCET reports carry to ``counts``.

    Decoded blocks come from the first report only: the modes of an
    all-modes result share one decoding, and every report repeats its count.
    """
    for index, report in enumerate(reports):
        for phase in report.phases:
            if index == 0 and phase.phase == "decoding":
                match = _BLOCKS.match(phase.detail)
                if match:
                    counts["cfg.blocks"] = counts.get("cfg.blocks", 0) + int(match.group(1))
        for function in report.functions.values():
            counts["wcet.ilp_nodes"] = counts.get("wcet.ilp_nodes", 0) + function.ilp_nodes


def cache_counts(stats: Dict[str, int], counts: Dict[str, float]) -> None:
    """Add a SummaryCache stats delta to ``counts``."""
    for key in ("tier1_hits", "tier1_misses", "tier2_hits", "tier2_misses", "puts"):
        counts[f"cache.{key}"] = counts.get(f"cache.{key}", 0) + stats.get(key, 0)


# --------------------------------------------------------------------------- #
# Timed calls into public entry points
# --------------------------------------------------------------------------- #
class Probes:
    """Installs span-recording wrappers around public entry points.

    ``counts`` collects work counters the wrappers see on the way (program
    sizes, interpreter steps, store I/O).  ``uninstall`` restores every
    patched attribute.
    """

    def __init__(self):
        self.counts: Dict[str, float] = {}
        self._patches: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attribute: str, make: Callable) -> None:
        original = owner.__dict__[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self) -> "Probes":
        from repro.api import serialize
        from repro.api.project import Project
        from repro.cache.store import SummaryStore
        from repro.hardware.pipeline import TraceTimer
        from repro.ir.interpreter import Interpreter
        from repro.server.client import ServerClient
        from repro.testing import oracle

        def timed(name, after=None):
            def make(function):
                def wrapper(*args, **kwargs):
                    span = obs_trace.begin(name)
                    try:
                        result = function(*args, **kwargs)
                    finally:
                        obs_trace.end(span)
                    if after is not None:
                        after(args, result)
                    return result
                return wrapper
            return make

        def build(function):
            def wrapper(project):
                if project.source is None or project._program is not None:
                    return function(project)
                span = obs_trace.begin("minic.compile")
                try:
                    program = function(project)
                finally:
                    obs_trace.end(span)
                self._add(
                    "minic.ir_instructions",
                    sum(len(fn) for fn in program.functions.values()),
                )
                return program
            return wrapper

        def from_workload(method):
            function = method.__func__

            def wrapper(cls, *args, **kwargs):
                with obs_trace.span("ir.build"):
                    return function(cls, *args, **kwargs)
            return classmethod(wrapper)

        def store_get(function):
            def wrapper(store, bucket, item):
                reads = store.file_reads
                with obs_trace.span("cache.store_read"):
                    value = function(store, bucket, item)
                if store.file_reads > reads:
                    self._add("cache.file_reads", store.file_reads - reads)
                    try:
                        self._add("cache.bytes_read", os.path.getsize(store._bucket_path(bucket)))
                    except OSError:
                        pass
                return value
            return wrapper

        def store_flush(function):
            def wrapper(store):
                writes = store.file_writes
                with obs_trace.span("cache.store_flush"):
                    function(store)
                self._add("cache.file_writes", store.file_writes - writes)
            return wrapper

        self._patch(Project, "build", build)
        self._patch(Project, "from_workload", from_workload)
        self._patch(Interpreter, "run", timed(
            "ir.interpret", lambda args, result: self._add("ir.steps", result.steps)
        ))
        self._patch(TraceTimer, "time", timed("hardware.trace_timer"))
        self._patch(SummaryStore, "get", store_get)
        self._patch(SummaryStore, "flush", store_flush)
        self._patch(serialize, "to_json", timed("api.encode"))
        self._patch(serialize, "from_json", timed("api.decode"))
        self._patch(ServerClient, "submit", timed("server.submit"))
        self._patch(ServerClient, "wait", timed("server.wait"))
        self._patch(ServerClient, "result", timed("server.result"))
        self._patch(oracle, "render_case", timed("testing.generate"))
        self._patch(oracle.DifferentialOracle, "check", timed("testing.oracle"))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# --------------------------------------------------------------------------- #
# Spans and the time-line sweep
# --------------------------------------------------------------------------- #
class SpanRecord:
    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start", "end")

    def __init__(self, name, trace_id, span_id, parent_id, start, end):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end


def from_tracer(spans) -> List[SpanRecord]:
    return [
        SpanRecord(s.name, s.trace_id, s.span_id, s.parent_id, s.start, s.end)
        for s in spans
    ]


def from_trace_dir(directory: str) -> List[SpanRecord]:
    """Spans from the Chrome trace files a ``serve --trace-dir`` wrote."""
    records: List[SpanRecord] = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(directory, entry), "r", encoding="utf-8") as handle:
            document = json.load(handle)
        for event in document.get("traceEvents", []):
            args = event.get("args", {})
            start = event["ts"] / 1e6
            records.append(SpanRecord(
                event["name"], args.get("trace_id"), args.get("span_id"),
                args.get("parent_id"), start, start + event.get("dur", 0) / 1e6,
            ))
    return records


def attribute(spans: List[SpanRecord]) -> Tuple[List[float], Dict[str, float], Dict[str, float]]:
    """Charge every op's time line to span names.

    Returns ``(op_latencies, exclusive, inclusive)``: each op's root-span
    duration, seconds charged to each span name by the deepest-span sweep,
    and the summed (clipped) duration of each span name.
    """
    by_trace: Dict[str, List[SpanRecord]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    latencies: List[float] = []
    exclusive: Dict[str, float] = {}
    inclusive: Dict[str, float] = {}
    for members in by_trace.values():
        roots = [s for s in members if s.name == OP_SPAN and s.parent_id is None]
        if len(roots) != 1:
            continue
        root = roots[0]
        latencies.append(root.end - root.start)
        children: Dict[str, List[SpanRecord]] = {}
        for span in members:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        # Depth-first from the root; spans not reachable from it are ignored.
        placed: List[Tuple[float, float, int, str]] = []
        stack = [(root, 0)]
        while stack:
            span, depth = stack.pop()
            start = max(span.start, root.start)
            end = min(span.end, root.end)
            if end > start:
                placed.append((start, end, depth, span.name))
                inclusive[span.name] = inclusive.get(span.name, 0.0) + (end - start)
            for child in children.get(span.span_id, ()):
                stack.append((child, depth + 1))
        _sweep(placed, exclusive)
    return latencies, exclusive, inclusive


def _sweep(placed: List[Tuple[float, float, int, str]], exclusive: Dict[str, float]) -> None:
    placed.sort()
    boundaries = sorted({edge for start, end, _, _ in placed for edge in (start, end)})
    heap: List[Tuple[int, float, float, str]] = []
    index = 0
    for left, right in zip(boundaries, boundaries[1:]):
        while index < len(placed) and placed[index][0] <= left:
            start, end, depth, name = placed[index]
            heapq.heappush(heap, (-depth, -start, end, name))
            index += 1
        while heap and heap[0][2] <= left:
            heapq.heappop(heap)
        if heap:
            name = heap[0][3]
            exclusive[name] = exclusive.get(name, 0.0) + (right - left)


# --------------------------------------------------------------------------- #
# Assembling the per-layer metrics
# --------------------------------------------------------------------------- #
def layer_metrics(
    latencies: List[float],
    exclusive: Dict[str, float],
    inclusive: Dict[str, float],
    counts: Dict[str, float],
    overhead: float,
) -> Dict[str, float]:
    """Per-op layer metrics from one traced pass's attribution.

    Times are milliseconds per op.  ``*_ms`` metrics are self time (the
    sweep's charge), except the server's client calls, queue wait, worker
    execution and flush, which are whole call/span durations.
    """
    ops = max(len(latencies), 1)

    def per_op(seconds: float) -> float:
        return seconds * 1e3 / ops

    def excl(*names: str) -> float:
        return per_op(sum(exclusive.get(name, 0.0) for name in names))

    def incl(name: str) -> float:
        return per_op(inclusive.get(name, 0.0))

    op_ms = per_op(sum(latencies))
    metrics = {
        "minic.compile_ms": excl("minic.compile"),
        "ir.build_ms": excl("ir.build"),
        "ir.interpret_ms": excl("ir.interpret"),
        "cfg.decode_ms": excl("phase:decoding"),
        "analysis.value_ms": excl("phase:loop/value analysis"),
        "hardware.cache_ms": excl("phase:cache analysis"),
        "hardware.pipeline_ms": excl("phase:pipeline analysis"),
        "hardware.trace_timer_ms": excl("hardware.trace_timer"),
        "wcet.path_ms": excl("phase:path analysis", "simplex-solve"),
        "wcet.simplex_ms": excl("simplex-solve"),
        "wcet.orchestration_ms": excl("phase:orchestration"),
        "cache.store_read_ms": excl("cache.store_read"),
        "cache.store_flush_ms": excl("cache.store_flush", "cache-flush"),
        "cache.replay_ms": excl("summary-replay"),
        "api.facade_ms": excl("analyze"),
        "api.encode_ms": excl("api.encode"),
        "api.decode_ms": excl("api.decode"),
        "server.submit_ms": incl("server.submit"),
        "server.wait_ms": incl("server.wait"),
        "server.result_ms": incl("server.result"),
        "server.queue_wait_ms": incl("queue-wait"),
        "server.dispatch_ms": excl("dispatch"),
        "server.worker_execute_ms": incl("worker-execute"),
        "server.flush_ms": incl("cache-flush"),
        "server.overhead_ms": (
            op_ms - incl("worker-execute") if inclusive.get("worker-execute") else 0.0
        ),
        "testing.generate_ms": excl("testing.generate"),
        "testing.check_ms": per_op(counts.get(CHECK_SECONDS, 0.0)),
    }
    for name in COUNT_METRICS:
        metrics[name] = float(counts.get(name, 0))
    layer_ms = {layer: 0.0 for layer in LAYERS}
    attributed = 0.0
    for name, seconds in exclusive.items():
        layer = layer_of(name)
        if layer is not None:
            layer_ms[layer] += seconds
            attributed += seconds
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = per_op(layer_ms[layer])
        metrics[f"{layer}.share"] = layer_ms[layer] / sum(latencies) if latencies else 0.0
    metrics["obs.op_ms"] = op_ms
    metrics["obs.unattributed_ms"] = op_ms - per_op(attributed)
    metrics["obs.trace_overhead"] = overhead
    return metrics


class TracedPass:
    """Context manager: tracer + probes + registry snapshot around one pass."""

    def __init__(self):
        self.tracer = obs_trace.Tracer()
        self.probes = Probes()
        self.spans: List[SpanRecord] = []
        self.counts: Dict[str, float] = {}
        self._before: Dict[str, float] = {}

    def __enter__(self) -> "TracedPass":
        self._previous = obs_trace.install(self.tracer)
        self.probes.install()
        self._before = registry_counts()
        return self

    def __exit__(self, *exc_info) -> None:
        after = registry_counts()
        self.probes.uninstall()
        obs_trace.install(self._previous)
        self.spans = from_tracer(self.tracer.drain())
        self.counts = dict(self.probes.counts)
        for name, value in after.items():
            self.counts[name] = self.counts.get(name, 0) + value - self._before[name]


def op_span():
    """Open the root span of one op on its own trace (None when untraced)."""
    if obs_trace.active() is None:
        return None
    return obs_trace.begin(OP_SPAN, parent={"trace_id": obs_trace.new_trace_id(), "parent_id": None})
