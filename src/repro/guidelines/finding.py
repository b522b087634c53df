"""Findings produced by the guideline checker."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """MISRA-C rule categories."""

    REQUIRED = "required"
    ADVISORY = "advisory"


class ChallengeTier(enum.Enum):
    """Which class of WCET-analysis challenge a violation causes.

    The paper distinguishes *tier-one* challenges (without solving them no
    WCET bound can be computed at all) from *tier-two* challenges (the bound
    exists but is needlessly loose).  Some rules — notably 14.5 (continue) —
    have *no* impact on binary-level timing analysis; the paper makes a point
    of saying so, and the checker preserves that assessment.
    """

    TIER_ONE = "tier-1"
    TIER_TWO = "tier-2"
    NONE = "none"


@dataclass
class Finding:
    """One rule violation (or informational note) at a source location."""

    rule: str                    # e.g. "13.4"
    title: str
    severity: Severity
    function: str
    line: int
    message: str
    #: The WCET-analysis challenge this violation causes (the paper's column).
    challenge: ChallengeTier = ChallengeTier.NONE
    #: Free-text explanation of the timing-analysis impact.
    wcet_impact: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        location = f"{self.function}:{self.line}" if self.function else f"line {self.line}"
        return (
            f"[MISRA {self.rule}] {location}: {self.message} "
            f"({self.challenge.value} impact)"
        )

    def to_json(self) -> dict:
        from repro.api import serialize

        return serialize.to_json(self)

    @classmethod
    def from_json(cls, data: dict) -> "Finding":
        from repro.api import serialize

        return serialize.from_json(data, cls)
