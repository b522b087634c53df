"""Abstract domains used by the value and loop-bound analyses."""

from repro.analysis.domains.interval import Interval
from repro.analysis.domains.memstate import AbstractValue, AbstractMemory, AbstractState

__all__ = [
    "Interval",
    "AbstractValue",
    "AbstractMemory",
    "AbstractState",
]
