"""Metrics: counters, gauges, log-scale histograms (stdlib only).

Metrics are always on — an increment is one dict update under a per-metric
lock, the same order of cost as the plain integer counters the engine
already kept.  Every series has exactly one owner, and so one scope:

* **process** — the analysis families live on :data:`REGISTRY`, registered
  at import time by the module that owns them, so the registry looks
  identical in the server process and in every worker process.  That
  symmetry is what makes worker shipping trivial: a worker snapshots the
  registry (:meth:`MetricsRegistry.dump`) around a job, ships the
  elementwise :func:`diff`, and the server :meth:`~MetricsRegistry.merge`\\ s
  the delta into its own registry by metric name;
* **server** — each :class:`~repro.server.queue.Scheduler` owns a
  :class:`MetricsRegistry` of its own for the job-flow, fault, phase and
  HTTP families and the point-in-time gauges, so two servers in one process
  never count into each other.

Rendering follows the Prometheus text exposition format 0.0.4 (``# HELP`` /
``# TYPE`` headers, ``_bucket{le=...}``/``_sum``/``_count`` histogram
series), which is what ``GET /metrics`` serves.  :func:`parse_exposition`
is the matching reader used by tests and the CI scrape check.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "diff",
    "parse_exposition",
]

#: Histogram buckets: log-scale, three per decade, 100 µs … 100 s.  Every
#: histogram uses them, so bucket series from different processes and
#: versions always line up.
DEFAULT_BUCKETS = tuple(round(10.0 ** (exp / 3.0), 10) for exp in range(-12, 7))


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared bookkeeping: labelled samples under one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: Dict[tuple, object] = {}
        if not self.labelnames:
            # Unlabelled metrics expose their series from birth, so scrapes
            # (and the CI presence check) see them before the first event.
            self._values[()] = self._zero()

    def _zero(self):
        return 0.0

    def _key(self, labels: Dict[str, str]) -> tuple:
        if not self.labelnames:
            return ()
        return tuple(str(labels.get(name, "")) for name in self.labelnames)

    # -- cross-process shipping ---------------------------------------- #
    def _dump_samples(self) -> Dict[str, object]:
        with self._lock:
            return {
                json.dumps(list(key)): self._copy_sample(value)
                for key, value in self._values.items()
            }

    def _copy_sample(self, value):
        return value

    def _merge_sample(self, key: tuple, value) -> None:
        raise NotImplementedError

    def merge(self, samples: Dict[str, object]) -> None:
        for raw_key, value in samples.items():
            key = tuple(json.loads(raw_key))
            self._merge_sample(key, value)

    def series(self) -> Dict[tuple, float]:
        """Every counter or gauge sample as ``{label values: value}``."""
        with self._lock:
            return {key: float(value) for key, value in self._values.items()}

    # -- rendering ------------------------------------------------------ #
    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            lines.extend(self._render_sample(key, value))
        return lines

    def _render_sample(self, key: tuple, value) -> List[str]:
        labels = _render_labels(self.labelnames, key)
        return [f"{self.name}{labels} {_format_value(value)}"]


class Counter(_Metric):
    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))

    def _merge_sample(self, key: tuple, value) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(value)


class Gauge(_Metric):
    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[self._key(labels)] = float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))

    def _merge_sample(self, key: tuple, value) -> None:
        # Gauges are point-in-time: a shipped delta would be meaningless, so
        # merges take the latest observation instead of summing.
        with self._lock:
            self._values[key] = float(value)


class Histogram(_Metric):
    """Cumulative-bucket histogram with fixed log-scale bounds."""

    kind = "histogram"
    buckets = DEFAULT_BUCKETS

    def _zero(self):
        # per-bucket counts (non-cumulative) + [sum, count] tail
        return [0.0] * (len(self.buckets) + 1) + [0.0, 0.0]

    def observe(self, value: float, **labels) -> None:
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        key = self._key(labels)
        with self._lock:
            sample = self._values.get(key)
            if sample is None:
                sample = self._zero()
                self._values[key] = sample
            sample[index] += 1
            sample[-2] += value
            sample[-1] += 1

    def _copy_sample(self, value):
        return list(value)

    def _merge_sample(self, key: tuple, value) -> None:
        with self._lock:
            sample = self._values.get(key)
            if sample is None:
                sample = self._zero()
                self._values[key] = sample
            for index, part in enumerate(value):
                sample[index] += float(part)

    def _render_sample(self, key: tuple, value) -> List[str]:
        lines = []
        cumulative = 0.0
        for index, bound in enumerate(self.buckets):
            cumulative += value[index]
            labels = _render_labels(
                self.labelnames + ("le",), key + (f"{bound:g}",)
            )
            lines.append(f"{self.name}_bucket{labels} {_format_value(cumulative)}")
        cumulative += value[len(self.buckets)]
        labels = _render_labels(self.labelnames + ("le",), key + ("+Inf",))
        lines.append(f"{self.name}_bucket{labels} {_format_value(cumulative)}")
        plain = _render_labels(self.labelnames, key)
        lines.append(f"{self.name}_sum{plain} {_format_value(value[-2])}")
        lines.append(f"{self.name}_count{plain} {_format_value(value[-1])}")
        return lines


# --------------------------------------------------------------------------- #
class MetricsRegistry:
    """Name-keyed registry; ``counter``/``gauge``/``histogram`` are idempotent
    get-or-create so repeated imports (and test reloads) never collide."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {metric.kind}"
                    )
                return metric
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames=labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames=labelnames)

    def histogram(self, name: str, help: str = "", labelnames=()) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames=labelnames)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def value(self, name: str, **labels) -> float:
        """One counter or gauge series (0 for an absent family or series)."""
        metric = self.get(name)
        return metric.value(**labels) if metric is not None else 0.0

    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """The full Prometheus text exposition (0.0.4)."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def flat_counters(self) -> Dict[str, float]:
        """Counter and gauge samples as a flat ``{series: value}`` dict —
        the compact snapshot merged into the /healthz ServerStats."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        flat: Dict[str, float] = {}
        for metric in metrics:
            if metric.kind not in ("counter", "gauge"):
                continue
            for key, value in sorted(metric.series().items()):
                flat[metric.name + _render_labels(metric.labelnames, key)] = value
        return flat

    # -- cross-process shipping ---------------------------------------- #
    def dump(self) -> Dict[str, Dict[str, object]]:
        """Raw snapshot of every metric's samples (JSON-safe)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {metric.name: metric._dump_samples() for metric in metrics}

    def merge(self, delta: Dict[str, Dict[str, object]]) -> None:
        """Fold a worker's :func:`diff` into this registry.  Unknown names
        (version skew between processes) are silently skipped — a delta must
        never crash the supervisor."""
        for name, samples in delta.items():
            metric = self.get(name)
            if metric is not None and samples:
                metric.merge(samples)


def diff(
    before: Dict[str, Dict[str, object]], after: Dict[str, Dict[str, object]]
) -> Dict[str, Dict[str, object]]:
    """Elementwise ``after - before`` of two :meth:`MetricsRegistry.dump`
    snapshots, with zero and empty entries dropped."""
    delta: Dict[str, Dict[str, object]] = {}
    for name, samples in after.items():
        base = before.get(name, {})
        changed: Dict[str, object] = {}
        for key, value in samples.items():
            prior = base.get(key)
            if isinstance(value, list):
                prior_list = prior if isinstance(prior, list) else [0.0] * len(value)
                diffed = [
                    float(part) - float(prior_list[i]) if i < len(prior_list) else float(part)
                    for i, part in enumerate(value)
                ]
                if any(diffed):
                    changed[key] = diffed
            else:
                diffed_value = float(value) - float(prior or 0.0)
                if diffed_value:
                    changed[key] = diffed_value
        if changed:
            delta[name] = changed
    return delta


#: The process-wide registry every instrumented analysis module registers
#: into; server-scoped families live on each Scheduler's own registry.
REGISTRY = MetricsRegistry()


# --------------------------------------------------------------------------- #
def parse_exposition(text: str) -> Dict[str, float]:
    """Parse Prometheus text exposition into ``{series: value}``.

    The series key includes the label block verbatim
    (``repro_queue_depth{lane="batch"}``).  Comment and blank lines are
    skipped; a malformed sample line raises ``ValueError`` — the CI scrape
    check relies on that to catch format regressions."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        # The value is the last whitespace-separated token; the series name
        # (with its label block, which may contain spaces inside quotes) is
        # everything before it.
        series, _, value = line.rpartition(" ")
        if not series:
            raise ValueError(f"malformed exposition line: {line!r}")
        try:
            samples[series] = float(value)
        except ValueError:
            raise ValueError(f"malformed exposition value: {line!r}") from None
    return samples
