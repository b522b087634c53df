"""The four benchmark workloads and their closed loops.

Every workload derives all of its inputs from one seed, checks every op's
output against a reference, and counts each op that does not match as a
failure.  ``paper-cold``, ``paper-warm`` and ``fleet`` run in this process
from one thread; ``serve`` drives a ``python -m repro serve`` process from
two client threads.  All four are closed loops: a caller sends its next op
only after the previous one returned.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.summaries import SummaryCache
from repro.api import AnalysisRequest, AnalysisService
from repro.api.project import PROCESSORS
from repro.cache import SummaryStore
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.server.client import ServerClient
from repro.server.wire import ProjectSpec
from repro.testing.corpus import annotations_to_text
from repro.testing.fuzz import default_presets, report_identity
from repro.testing.generator import generate_case, render_case
from repro.testing.oracle import DifferentialOracle, OracleConfig
from repro.workloads.catalog import catalog

import layers

HERE = os.path.dirname(os.path.abspath(__file__))

PAPER_PROCESSORS = ("simple", "leon2", "mpc5554", "hcs12x")
#: A deliberate tier-one refusal (unresolved function pointer): no bound.
PAPER_EXCLUDED = ("dispatch",)
FLEET_PROCESSORS = ("simple", "leon2")
#: Input vectors each fleet program is replayed on (the fuzz driver's default).
FLEET_INPUT_VECTORS = 3
#: The serve warm set: six specs, within a worker's eight warm-service slots.
WARM_SET = tuple(
    (workload, processor)
    for workload in ("flight-control", "message-handler", "error-monitor")
    for processor in ("simple", "leon2")
)
NOVEL_SHARE = 0.1
SERVE_CLIENTS = 2
SERVE_JOBS = 2
#: Novel programs prepared per measured second: 1.5-2x what the server
#: completes at the time of writing (~100-130 requests/s, 10% novel).
NOVEL_PER_SECOND = 20
REQUEST_TIMEOUT = 120.0
#: Completed requests in one slice of a serve run (~0.8 s): ten blocks of
#: nine warm requests and one novel program.
SERVE_SLICE_OPS = 100


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to an op that failed)."""


@dataclass(frozen=True)
class PaperRequest:
    workload: str
    processor: str
    all_modes: bool

    @property
    def key(self) -> str:
        return f"{self.workload}/{self.processor}"

    def spec(self) -> ProjectSpec:
        return ProjectSpec(workload=self.workload, processor=self.processor)

    def request(self) -> AnalysisRequest:
        return AnalysisRequest(all_modes=self.all_modes)


def paper_requests() -> List[PaperRequest]:
    """The 96 analysable catalog requests (24 workloads x 4 processors)."""
    requests = []
    for name, workload in sorted(catalog().items()):
        if name in PAPER_EXCLUDED:
            continue
        all_modes = bool(workload.annotation_set().mode_names())
        for processor in PAPER_PROCESSORS:
            requests.append(PaperRequest(name, processor, all_modes))
    return requests


def load_reference() -> Dict[str, Dict[str, List[int]]]:
    """Pinned per-mode [wcet, bcet] bounds of every paper request."""
    with open(os.path.join(HERE, "reference_bounds.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def bounds_of(result) -> Dict[str, List[int]]:
    return {
        str(mode): [report.wcet_cycles, report.bcet_cycles]
        for mode, report in result.reports.items()
    }


def identity_of(result) -> Dict[str, dict]:
    return {str(mode): report_identity(report) for mode, report in result.reports.items()}


def check_bounds(key: str, result, reference) -> List[str]:
    observed = bounds_of(result)
    if observed != reference[key]:
        return [f"{key}: bounds {observed} != reference {reference[key]}"]
    return []


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(fraction * len(ordered))) - 1)]


@dataclass(frozen=True)
class Slice:
    """A run of consecutive ops with about the same work as every other
    slice of the run (paper passes, rounds of fleet programs)."""

    first: int
    ops: int
    seconds: float


@dataclass
class Outcome:
    """What one run of a loop measured."""

    latencies: List[float] = field(default_factory=list)
    #: When each op completed, in seconds from the start of the run.
    ends: List[float] = field(default_factory=list)
    #: One message per failed op.
    failures: List[str] = field(default_factory=list)
    wall: float = 0.0
    #: Exact work counters over the workload's counted ops.
    counts: Dict[str, float] = field(default_factory=dict)
    #: ``(item, spec, result)`` of every answered request, checked after the
    #: measured window (serve).
    results: List[tuple] = field(default_factory=list)
    #: The slices of the run, in order.
    slices: List[Slice] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def cut(self, size: int) -> None:
        """Slice the run into groups of ``size`` consecutive completions
        (one group of all of them when fewer completed)."""
        size = min(size, len(self.ends)) or 1
        previous = 0.0
        for first in range(0, len(self.ends) - size + 1, size):
            end = self.ends[first + size - 1]
            self.slices.append(Slice(first, size, end - previous))
            previous = end

    def fast_slices(self, margin: float) -> List[Slice]:
        """The slices run while the host was at full speed: those within
        ``margin`` of the fastest slice's time, and never fewer than the
        fastest quarter of them.

        A shared host slows every process on it by up to ~1.9x for seconds
        at a time; since every slice does about the same work, a slice's
        time reads the host's speed while it ran.
        """
        ranked = sorted(self.slices, key=lambda piece: piece.seconds)
        chosen = [piece for piece in ranked if piece.seconds <= margin * ranked[0].seconds]
        return chosen if len(chosen) >= len(ranked) // 4 else ranked[:max(1, len(ranked) // 4)]

    def at_full_speed(self, margin: float) -> Tuple[float, float, int]:
        """``(ops per second, median op latency in seconds, slices used)``
        over the fast slices."""
        chosen = self.fast_slices(margin)
        latencies = [
            latency for piece in chosen
            for latency in self.latencies[piece.first:piece.first + piece.ops]
        ]
        throughput = sum(piece.ops for piece in chosen) / sum(piece.seconds for piece in chosen)
        return throughput, statistics.median(latencies), len(chosen)


# --------------------------------------------------------------------------- #
# In-process workloads
# --------------------------------------------------------------------------- #
class InProcess:
    """Shared closed loop of the single-threaded in-process workloads.

    Subclasses provide ``items()`` (the seeded op stream, in slices of
    ``slice_ops`` consecutive ops that each do about the same work),
    ``execute(item)`` (one op, timed), ``check(item, output)`` and
    ``count(...)``.
    """

    name = ""
    #: A slice ran at full speed when its time is within this factor of the
    #: run's fastest slice (paper slices repeat the very same work).
    fast_margin = 1.2
    #: Ops, from the start of a measured run, whose work counters must repeat
    #: exactly at one seed.
    counted_ops = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}/{purpose}/{self.seed}")

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def warm_up(self, items) -> None:
        for item in items:
            failures = self.check(item, self.execute(item))
            if failures:
                raise BenchError(f"{self.name} warm-up failed: {failures[0]}")

    def _one(self, item, outcome: Outcome, traced: bool, run_started: float):
        span = layers.op_span() if traced else None
        started = time.perf_counter()
        try:
            output = self.execute(item)
            error = None
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            output, error = None, f"{type(exc).__name__}: {exc}"
        finished = time.perf_counter()
        obs_trace.end(span)
        outcome.latencies.append(finished - started)
        outcome.ends.append(finished - run_started)
        failures = [error] if error else self.check(item, output)
        if failures:
            outcome.failures.append("; ".join(failures))
        return output, finished

    def measure(self, seconds: float) -> Outcome:
        """Run whole slices of ``slice_ops`` ops until ``seconds`` have
        passed (and at least ``counted_ops`` ops); counters over the first
        ``counted_ops`` ops."""
        outcome = Outcome()
        before = layers.registry_counts()
        started = slice_started = time.perf_counter()
        deadline = started + seconds
        for index, item in enumerate(self.items()):
            output, finished = self._one(item, outcome, False, started)
            if index < self.counted_ops and output is not None:
                self.count(item, output, outcome.counts)
            if index == self.counted_ops - 1:
                for key, value in layers.registry_counts().items():
                    outcome.counts[key] = outcome.counts.get(key, 0) + value - before[key]
            if (index + 1) % self.slice_ops:
                continue
            outcome.slices.append(
                Slice(index + 1 - self.slice_ops, self.slice_ops, finished - slice_started)
            )
            slice_started = finished
            if finished >= deadline and index + 1 >= self.counted_ops:
                break
        outcome.wall = finished - started
        return outcome

    def run_items(self, items, traced: bool) -> Outcome:
        """Run a fixed list of ops (the traced run's unit of work)."""
        outcome = Outcome()
        started = time.perf_counter()
        finished = started
        for item in items:
            output, finished = self._one(item, outcome, traced, started)
            if traced and output is not None:
                self.count(item, output, outcome.counts)
        outcome.wall = finished - started
        return outcome


class PaperCold(InProcess):
    """Build one catalog project and analyse it with a fresh cache, no store
    -- what ``repro analyze --workload W --processor P --no-cache`` does."""

    name = "paper-cold"
    counted_ops = 96
    #: Passes over the 96 requests in one traced unit of work.
    traced_passes = 1
    #: Passes in one slice of a measured run (~0.5 s).
    slice_passes = 1

    def setup(self) -> None:
        self.reference = load_reference()
        self.requests = paper_requests()
        self._order = self.rng("order")
        # A fresh process's first analyses cost 2-3x steady state.
        self.warm_up(self._shuffled(self.rng("warm-up")))

    @property
    def slice_ops(self) -> int:
        return self.slice_passes * len(self.requests)

    def _shuffled(self, rng: random.Random) -> List[PaperRequest]:
        order = list(self.requests)
        rng.shuffle(order)
        return order

    def items(self) -> Iterator[PaperRequest]:
        while True:
            yield from self._shuffled(self._order)

    def fixed_items(self) -> List[PaperRequest]:
        rng = self.rng("traced")
        return [r for _ in range(self.traced_passes) for r in self._shuffled(rng)]

    def execute(self, request: PaperRequest):
        project = request.spec().to_project(cache="off")
        return AnalysisService(project).analyze(request.request())

    def check(self, request: PaperRequest, result) -> List[str]:
        return check_bounds(request.key, result, self.reference)

    def count(self, request, result, counts) -> None:
        layers.report_counts(result.reports.values(), counts)
        layers.cache_counts(result.cache_stats, counts)


class PaperWarm(PaperCold):
    """Analyse a prebuilt catalog project through a fresh store handle and a
    fresh in-process cache over a filled store -- a restarted server worker
    answering a program that is already in the shared store."""

    name = "paper-warm"
    traced_passes = 20
    slice_passes = 10

    def setup(self) -> None:
        self.reference = load_reference()
        self.requests = paper_requests()
        self._order = self.rng("order")
        self.store_dir = os.path.join(self.workdir, "store")
        self.projects = {}
        fill = SummaryCache(store=SummaryStore(self.store_dir))
        for request in self.requests:
            project = request.spec().to_project(cache="off")
            result = AnalysisService(project, summary_cache=fill).analyze(request.request())
            failures = check_bounds(request.key, result, self.reference)
            if failures:
                raise BenchError(f"paper-warm store fill failed: {failures[0]}")
            self.projects[request] = project
        self.warm_up(self._shuffled(self.rng("warm-up")))

    def execute(self, request: PaperRequest):
        store = SummaryStore(self.store_dir)
        service = AnalysisService(
            self.projects[request], summary_cache=SummaryCache(store=store)
        )
        return service.analyze(request.request()), store

    def check(self, request: PaperRequest, output) -> List[str]:
        result, _ = output
        failures = check_bounds(request.key, result, self.reference)
        puts = result.cache_stats.get("puts", 0)
        if puts:
            failures.append(f"{request.key}: recomputed {puts} summaries over a filled store")
        return failures

    def count(self, request, output, counts) -> None:
        result, store = output
        super().count(request, result, counts)
        counts["cache.file_reads"] = counts.get("cache.file_reads", 0) + store.file_reads
        counts["cache.file_writes"] = counts.get("cache.file_writes", 0) + store.file_writes


def fleet_slots() -> List[tuple]:
    """The twelve (preset, processor) slots, in rotation order."""
    return [(preset, processor) for processor in FLEET_PROCESSORS for preset in default_presets()]


def load_pool() -> Dict[str, List[int]]:
    """Generator seeds per slot: programs of about the slot's median cost."""
    with open(os.path.join(HERE, "fleet_pool.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def rounds(pool, slots, rng: random.Random):
    """Endless seeded stream of ``(program seed, preset, processor)``:
    rounds of one program of each slot, in slot order.

    Each slot deals its pool programs in a seeded order, so a program
    repeats only after as many rounds as its slot has programs, and every
    round does about the same work whatever the seed.
    """
    decks = []
    for preset, processor in slots:
        seeds = pool[f"{preset.name}/{processor}"]
        decks.append(rng.sample(seeds, len(seeds)))
    round_ = 0
    while True:
        for deck, slot in zip(decks, slots):
            yield (deck[round_ % len(deck)], *slot)
        round_ += 1


class Fleet(InProcess):
    """Generate, compile, analyse, replay and soundness-check one seeded
    mini-C program -- what ``repro sweep`` / ``repro fuzz`` pay per program.

    Programs come from ``fleet_pool.json``: for each preset on each
    processor, the generator seeds whose measured cost is closest to that
    slot's median (see ``calibrate_fleet.py``).  The seed picks and orders
    them through :func:`rounds`.
    """

    name = "fleet"
    #: One rotation: each preset on each processor.
    counted_ops = 12
    #: One round: one program of each slot.
    slice_ops = 12
    #: Rounds at full speed differ by up to ~1.4x in time, with their programs.
    fast_margin = 1.35

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.slots = fleet_slots()
        self.oracles = {
            (preset.name, processor): DifferentialOracle(
                OracleConfig(
                    processor_factory=PROCESSORS[processor],
                    max_input_vectors=FLEET_INPUT_VECTORS,
                    analysis_options=preset.options,
                )
            )
            for preset, processor in self.slots
        }

    def warm_up_items(self) -> List[tuple]:
        """One program per slot, the same at every seed, so that set-up time
        does not move with the seed."""
        rng = random.Random("fleet/warm-up")
        return [(rng.randrange(1, 2 ** 31), *slot) for slot in self.slots]

    def setup(self) -> None:
        self.pool = load_pool()
        self.warm_up(self.warm_up_items())

    def items(self):
        return rounds(self.pool, self.slots, self.rng("programs"))

    def fixed_items(self):
        """Three rounds: 36 programs."""
        stream = rounds(self.pool, self.slots, self.rng("traced"))
        return [next(stream) for _ in range(3 * len(self.slots))]

    def execute(self, item):
        program_seed, preset, processor = item
        with obs_trace.span("testing.generate"):
            case = generate_case(program_seed, mix=preset.mix)
        return self.oracles[(preset.name, processor)].check(case)

    def check(self, item, result) -> List[str]:
        if result.ok:
            return []
        program_seed, preset, processor = item
        return [
            f"program {program_seed} ({preset.name}, {processor}): "
            + "; ".join(str(violation) for violation in result.violations)
        ]

    def count(self, item, result, counts) -> None:
        if result.report is not None:
            layers.report_counts([result.report], counts)
        layers.cache_counts(result.cache_stats, counts)
        counts["ir.steps"] = counts.get("ir.steps", 0) + sum(run.steps for run in result.runs)
        counts[layers.CHECK_SECONDS] = (
            counts.get(layers.CHECK_SECONDS, 0) + result.timings.get("check", 0.0)
        )


# --------------------------------------------------------------------------- #
# serve: a server process and a two-thread load generator
# --------------------------------------------------------------------------- #
def _tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (VmHWM) of a process and all its descendants."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children", "r", encoding="ascii") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue
    return total_kb / 1024.0


class ServerProcess:
    """``python -m repro serve --jobs 2`` on an ephemeral port."""

    def __init__(self, workdir: str, label: str, trace_dir: Optional[str] = None):
        argv = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--jobs", str(SERVE_JOBS), "--cache-dir", os.path.join(workdir, f"{label}-store"),
        ]
        if trace_dir is not None:
            argv += ["--trace-dir", trace_dir]
        self._log = open(os.path.join(workdir, f"{label}-server.log"), "wb")
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        self.url: Optional[str] = None

    def wait_ready(self, timeout: float = 60.0) -> str:
        lines: List[str] = []
        reader = threading.Thread(
            target=lambda: lines.append(self.process.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout)
        match = re.search(r"listening on (\S+)", lines[0]) if lines else None
        if match is None:
            self.stop()
            raise BenchError("analysis server did not start (see its log in the work dir)")
        self.url = match.group(1)
        return self.url

    def scrape(self) -> Dict[str, float]:
        with urllib.request.urlopen(f"{self.url}/metrics", timeout=30) as response:
            return obs_metrics.parse_exposition(response.read().decode())

    def peak_rss_mb(self) -> float:
        return _tree_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
        self._log.close()


def _novel_spec(program_seed: int, preset, processor: str) -> ProjectSpec:
    case = generate_case(program_seed, mix=preset.mix)
    rendered = render_case(case)
    lines = annotations_to_text(rendered.annotations)
    return ProjectSpec(
        source=rendered.source,
        entry=case.entry,
        annotations="\n".join(lines) + "\n" if lines else None,
        processor=processor,
        name=case.name,
    )


def _series_sum(samples: Dict[str, float], family: str, **labels) -> float:
    total = 0.0
    for series, value in samples.items():
        name, _, label_text = series.partition("{")
        if name != family:
            continue
        if all(f'{key}="{val}"' in label_text for key, val in labels.items()):
            total += value
    return total


#: /metrics series behind the serve workload's server-side counts.
SERVER_COUNTS = {
    "analysis.fixpoint_iterations": ("repro_fixpoint_iterations_total", {}),
    "analysis.fixpoint_joins": ("repro_fixpoint_joins_total", {}),
    "analysis.fixpoint_widens": ("repro_fixpoint_widens_total", {}),
    "analysis.kernel_compiles": ("repro_kernel_jit_compiles_total", {}),
    "analysis.blocks_interpreted": ("repro_kernel_interpreted_blocks_total", {}),
    "wcet.simplex_pivots": ("repro_simplex_pivots_total", {}),
    "cache.tier1_hits": ("repro_summary_cache_requests_total", {"tier": "1", "result": "hit"}),
    "cache.tier1_misses": ("repro_summary_cache_requests_total", {"tier": "1", "result": "miss"}),
    "cache.tier2_hits": ("repro_summary_cache_requests_total", {"tier": "2", "result": "hit"}),
    "cache.tier2_misses": ("repro_summary_cache_requests_total", {"tier": "2", "result": "miss"}),
    "server.dedup_joins": ("repro_dedup_joins_total", {}),
    "server.rejections": ("repro_faults_total", {"kind": "rejections"}),
    "server.retries": ("repro_faults_total", {"kind": "job_retries"}),
    "server.worker_restarts": ("repro_faults_total", {"kind": "worker_restarts"}),
    "http_requests": ("repro_http_requests_total", {}),
}


def server_counts(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {
        name: _series_sum(after, family, **labels) - _series_sum(before, family, **labels)
        for name, (family, labels) in SERVER_COUNTS.items()
    }


class Serve:
    """Two client threads on the interactive lane against ``serve --jobs 2``:
    ~90% repeats of a six-spec warm set, ~10% never-seen generated programs."""

    name = "serve"
    #: A slice's time also moves with its novel programs, as fleet's rounds do.
    fast_margin = 1.35

    def __init__(self, seed: int, workdir: str, seconds: float):
        self.seed = seed
        self.workdir = workdir
        self.seconds = seconds
        self.servers: List[ServerProcess] = []

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}/{purpose}/{self.seed}")

    def start_server(self, label: str, trace_dir: Optional[str] = None) -> ServerProcess:
        server = ServerProcess(self.workdir, label, trace_dir)
        self.servers.append(server)
        return server

    def setup(self) -> None:
        # The server boots in its own process while this one prepares inputs.
        self.server = self.start_server("serve")
        self.prepare()
        self.server.wait_ready()
        self.warm_up(self.server)

    def prepare(self) -> None:
        """Warm-set references, the novel programs and the request order."""
        self.warm = []
        for workload, processor in WARM_SET:
            spec = ProjectSpec(workload=workload, processor=processor)
            request = AnalysisRequest(all_modes=workload == "flight-control")
            reference = AnalysisService(spec.to_project(cache="off")).analyze(request)
            self.warm.append((spec, request, identity_of(reference)))
        slots = fleet_slots()
        programs = rounds(load_pool(), slots, self.rng("novel"))
        novel_count = int(math.ceil(self.seconds * NOVEL_PER_SECOND))
        self.novel = [_novel_spec(*next(programs)) for _ in range(novel_count)]
        # The same warm-up programs at every seed (see Fleet.setup).
        rng = random.Random("serve/warm-up")
        self.warm_up_novel = [
            _novel_spec(rng.randrange(1, 2 ** 31), *slots[index]) for index in range(SERVE_CLIENTS)
        ]
        self.sequence = self._sequence(self.rng("sequence"), novel_count)

    def _sequence(self, rng: random.Random, novel_count: int) -> List[Tuple[str, int]]:
        """Blocks of ten requests: one novel program at a seeded position,
        nine warm requests dealt from seeded shuffles of the warm set, so
        every run sends the same mix."""
        sequence: List[Tuple[str, int]] = []
        deck: List[int] = []
        for novel in range(novel_count):
            block = []
            for _ in range(round(1 / NOVEL_SHARE) - 1):
                if not deck:
                    deck = rng.sample(range(len(self.warm)), len(self.warm))
                block.append(("warm", deck.pop()))
            block.insert(rng.randrange(len(block) + 1), ("novel", novel))
            sequence.extend(block)
        return sequence

    def warm_up(self, server: ServerProcess) -> None:
        """Each client sends the warm set three times and one novel program
        of its own, so both workers hold every warm service before measuring."""
        errors: List[str] = []

        def client(index: int) -> None:
            client = ServerClient(server.url, timeout=REQUEST_TIMEOUT)
            try:
                for _ in range(3):
                    for spec, request, _ in self.warm:
                        client.analyze(spec, request, timeout=REQUEST_TIMEOUT)
                client.analyze(self.warm_up_novel[index], AnalysisRequest(), timeout=REQUEST_TIMEOUT)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=client, args=(i,)) for i in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise BenchError(f"serve warm-up failed: {errors[0]}")

    def _request(self, item: Tuple[str, int]):
        kind, index = item
        if kind == "warm":
            spec, request, _ = self.warm[index]
            return spec, request
        return self.novel[index], AnalysisRequest()

    def run_sequence(
        self,
        server: ServerProcess,
        sequence: List[Tuple[str, int]],
        seconds: Optional[float],
        traced: bool = False,
    ) -> Outcome:
        """Two closed-loop clients consume ``sequence`` in order until it
        ends or ``seconds`` have passed."""
        outcome = Outcome()
        lock = threading.Lock()
        position = [0]
        ends: List[float] = []
        started = time.perf_counter()
        deadline = None if seconds is None else started + seconds

        def client() -> None:
            client = ServerClient(server.url, timeout=REQUEST_TIMEOUT)
            finished = started
            while True:
                with lock:
                    if position[0] >= len(sequence) or (
                        deadline is not None and time.perf_counter() >= deadline
                    ):
                        break
                    item = sequence[position[0]]
                    position[0] += 1
                spec, request = self._request(item)
                span = layers.op_span() if traced else None
                begun = time.perf_counter()
                try:
                    result = client.analyze(spec, request, timeout=REQUEST_TIMEOUT)
                    error = None
                except Exception as exc:  # noqa: BLE001 - a failed request is a failed op
                    result, error = None, f"{type(exc).__name__}: {exc}"
                finished = time.perf_counter()
                obs_trace.end(span)
                with lock:
                    outcome.latencies.append(finished - begun)
                    outcome.ends.append(finished - started)
                    if error:
                        outcome.failures.append(error)
                    else:
                        outcome.results.append((item, spec, result))
            with lock:
                ends.append(finished)

        threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        outcome.wall = max(ends) - started
        return outcome

    def verify(self, outcome: Outcome) -> None:
        """Compare every answered request with the direct facade: warm ones
        with the references from set-up, novel ones with an analysis made
        here.  Runs after the measured window, so that the checks do not
        compete with the clients and the server for the two cores."""
        for (kind, index), spec, result in outcome.results:
            if kind == "warm":
                reference = self.warm[index][2]
                label = f"warm request {spec.workload}/{spec.processor}"
            else:
                direct = AnalysisService(spec.to_project(cache="off")).analyze(AnalysisRequest())
                reference = identity_of(direct)
                label = f"novel program {spec.name} ({spec.processor})"
            if identity_of(result) != reference:
                outcome.failures.append(f"{label}: result differs from the direct facade")

    def measure(self, seconds: float) -> Outcome:
        before = self.server.scrape()
        outcome = self.run_sequence(self.server, self.sequence, seconds)
        after = self.server.scrape()
        outcome.cut(SERVE_SLICE_OPS)
        outcome.counts = server_counts(before, after)
        self.verify(outcome)
        return outcome

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def teardown(self) -> None:
        for server in self.servers:
            server.stop()

    def traced(self) -> Tuple[Outcome, Outcome, "layers.TracedPass", Dict[str, float]]:
        """One untraced and one traced pass over the same fixed requests,
        each against its own fresh server (the traced one with
        ``--trace-dir``)."""
        self.prepare()
        sequence = self.sequence[:SERVE_TRACED_REQUESTS]
        plain = self.start_server("untraced")
        plain.wait_ready()
        self.warm_up(plain)
        untraced = self.run_sequence(plain, sequence, None)
        plain.stop()
        trace_dir = os.path.join(self.workdir, "traces")
        server = self.start_server("traced", trace_dir)
        server.wait_ready()
        self.warm_up(server)
        before = server.scrape()
        with layers.TracedPass() as traced_pass:
            traced = self.run_sequence(server, sequence, None, traced=True)
        counts = server_counts(before, server.scrape())
        server.stop()
        traced_pass.spans.extend(layers.from_trace_dir(trace_dir))
        result_bytes = 0
        for _, _, result in traced.results:
            result_bytes += len(json.dumps(result.to_json()))
            layers.report_counts(result.reports.values(), counts)
            counts["cache.puts"] = counts.get("cache.puts", 0) + result.cache_stats.get("puts", 0)
        self.verify(untraced)
        self.verify(traced)
        http = counts.pop("http_requests") - 1  # the first scrape is counted too
        counts["server.http_requests_per_op"] = http / max(traced.attempted, 1)
        counts["api.result_bytes"] = result_bytes / max(traced.attempted, 1)
        return untraced, traced, traced_pass, counts


#: Requests in each of serve's traced-run passes.
SERVE_TRACED_REQUESTS = 300


def traced_run(workload) -> dict:
    """The ``--trace 1`` run: per-layer metrics from a separate traced pass.

    In-process workloads run a fixed list of ops four times, untraced,
    traced, traced, untraced, so that process-wide warm-up drift cancels in
    the overhead estimate; counts from the two traced passes repeat exactly
    at one seed.
    """
    if isinstance(workload, Serve):
        # Server-side counts come from /metrics; the client process's own
        # probes and registry see none of the analysis.
        untraced, traced, traced_pass, counts = workload.traced()
        passes = [traced_pass]
        outcomes = [untraced, traced]
        untraced_ops, traced_ops = untraced.latencies, traced.latencies
    else:
        workload.setup()
        items = workload.fixed_items()
        # The first pass over the list warms per-program engine caches; it
        # is not part of either side of the comparison.
        workload.run_items(items, traced=False)
        first = workload.run_items(items, traced=False)
        passes, traced_outcomes = [], []
        for _ in range(2):
            with layers.TracedPass() as traced_pass:
                traced_outcomes.append(workload.run_items(items, traced=True))
            passes.append(traced_pass)
        last = workload.run_items(items, traced=False)
        outcomes = [first, *traced_outcomes, last]
        untraced_ops = first.latencies + last.latencies
        traced_ops = traced_outcomes[0].latencies + traced_outcomes[1].latencies
        counts = _sum_counts(outcome.counts for outcome in traced_outcomes)
        # Where a probe saw a count that results also carry, the probe wins.
        counts.update(_sum_counts(traced_pass.counts for traced_pass in passes))
    spans = [span for traced_pass in passes for span in traced_pass.spans]
    latencies, exclusive, inclusive = layers.attribute(spans)
    overhead = statistics.fmean(traced_ops) / statistics.fmean(untraced_ops) - 1.0
    metrics = layers.layer_metrics(latencies, exclusive, inclusive, counts, overhead)
    failures = [message for outcome in outcomes for message in outcome.failures]
    return {
        "metrics": metrics,
        "units": layers.metric_units(),
        "layers": list(layers.LAYERS),
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": len(failures),
        "failures": failures[:20],
    }


def _sum_counts(count_dicts) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for counts in count_dicts:
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    return total


def create(name: str, seed: int, workdir: str, seconds: float):
    if name == "paper-cold":
        return PaperCold(seed, workdir)
    if name == "paper-warm":
        return PaperWarm(seed, workdir)
    if name == "fleet":
        return Fleet(seed, workdir)
    if name == "serve":
        return Serve(seed, workdir, seconds)
    raise BenchError(f"unknown workload {name!r}")
