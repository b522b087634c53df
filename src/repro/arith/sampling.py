"""Random-sampling harness regenerating Table 1.

The paper applied ``lDivMod`` to 10^8 random 32-bit input pairs and reported a
histogram of observed iteration counts in fixed buckets.  This module draws
deterministic pseudo-random samples (numpy PCG64), feeds them through
:func:`repro.arith.ldivmod.ldivmod` and produces the same bucket layout, plus
the summary statistics the paper quotes in prose ("1 in more than 99.8 %",
"0, 1 or 2 in more than 99.999 %", worst observed count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arith.ldivmod import ldivmod

#: Bucket boundaries exactly as printed in Table 1 of the paper
#: (single counts 0..3, then ranges).
PAPER_TABLE1_BUCKETS: Tuple[Tuple[int, int], ...] = (
    (0, 0),
    (1, 1),
    (2, 2),
    (3, 3),
    (4, 9),
    (10, 19),
    (20, 39),
    (40, 59),
    (60, 79),
    (80, 99),
    (100, 135),
    (136, 10**9),   # the paper lists the three worst inputs individually
)

#: The paper's reported frequencies for 10^8 samples (for EXPERIMENTS.md
#: comparisons; the last row aggregates the three individually-listed inputs).
PAPER_TABLE1_ROWS: Tuple[Tuple[str, int], ...] = (
    ("0", 1552),
    ("1", 99_881_801),
    ("2", 116_421),
    ("3", 114),
    ("4 .. 9", 13),
    ("10 .. 19", 19),
    ("20 .. 39", 24),
    ("40 .. 59", 22),
    ("60 .. 79", 13),
    ("80 .. 99", 11),
    ("100 .. 135", 7),
    (">= 136", 3),
)


def _bucket_label(low: int, high: int) -> str:
    if low == high:
        return str(low)
    if high >= 10**9:
        return f">= {low}"
    return f"{low} .. {high}"


@dataclass
class IterationHistogram:
    """Histogram of iteration counts over a random sample."""

    samples: int
    counts: Dict[int, int] = field(default_factory=dict)
    max_iterations: int = 0
    max_inputs: Tuple[int, int] = (0, 0)
    seed: int = 0

    # ------------------------------------------------------------------ #
    def record(self, iterations: int, dividend: int, divisor: int) -> None:
        self.counts[iterations] = self.counts.get(iterations, 0) + 1
        if iterations > self.max_iterations:
            self.max_iterations = iterations
            self.max_inputs = (dividend, divisor)

    def frequency_of(self, iterations: int) -> int:
        return self.counts.get(iterations, 0)

    def fraction_at_most(self, iterations: int) -> float:
        total = sum(count for value, count in self.counts.items() if value <= iterations)
        return total / self.samples if self.samples else 0.0

    def fraction_exactly(self, iterations: int) -> float:
        return self.frequency_of(iterations) / self.samples if self.samples else 0.0

    # ------------------------------------------------------------------ #
    def bucketed(
        self, buckets: Sequence[Tuple[int, int]] = PAPER_TABLE1_BUCKETS
    ) -> List[Tuple[str, int]]:
        rows: List[Tuple[str, int]] = []
        for low, high in buckets:
            total = sum(
                count for value, count in self.counts.items() if low <= value <= high
            )
            rows.append((_bucket_label(low, high), total))
        return rows

    def format_table(self) -> str:
        """Render the histogram in the layout of Table 1."""
        lines = [
            f"Observed iteration counts for lDivMod ({self.samples} random inputs, seed {self.seed})",
            f"{'Iteration Counts':<20s} {'Frequency of Occurrence':>24s}",
        ]
        for label, frequency in self.bucketed():
            lines.append(f"{label:<20s} {frequency:>24d}")
        lines.append(
            f"worst observed: {self.max_iterations} iterations for "
            f"lDivMod({self.max_inputs[0]:#010x}, {self.max_inputs[1]:#010x})"
        )
        lines.append(
            f"share with exactly 1 iteration : {self.fraction_exactly(1) * 100.0:8.4f} %"
        )
        lines.append(
            f"share with at most 2 iterations: {self.fraction_at_most(2) * 100.0:8.4f} %"
        )
        return "\n".join(lines)


def sample_iteration_histogram(
    samples: int = 1_000_000,
    seed: int = 20110318,
    divide: Callable[[int, int], object] = ldivmod,
    chunk_size: int = 65536,
) -> IterationHistogram:
    """Run ``divide`` on ``samples`` random 32-bit pairs and histogram iterations.

    ``divide`` must return an object with ``iterations`` (the default is
    :func:`repro.arith.ldivmod.ldivmod`; the restoring baseline can be passed
    to show its degenerate single-bar histogram).  Zero divisors are skipped
    (re-drawn), matching the paper's setup of valid division inputs.
    """
    # Imported here: the analyzer imports this package through the workload
    # catalog, and only this sampler needs numpy.
    import numpy as np

    histogram = IterationHistogram(samples=samples, seed=seed)
    generator = np.random.Generator(np.random.PCG64(seed))
    remaining = samples
    while remaining > 0:
        batch = min(chunk_size, remaining)
        dividends = generator.integers(0, 2**32, size=batch, dtype=np.uint64)
        divisors = generator.integers(1, 2**32, size=batch, dtype=np.uint64)
        for dividend, divisor in zip(dividends.tolist(), divisors.tolist()):
            result = divide(int(dividend), int(divisor))
            histogram.record(result.iterations, int(dividend), int(divisor))
        remaining -= batch
    return histogram
