"""Loop/value analysis — the abstract-interpretation phase of Figure 1.

This package provides:

* numeric abstract domains (:mod:`repro.analysis.domains`): intervals with
  widening, and the abstract register/memory state built on them;
* a generic worklist fixpoint solver (:mod:`repro.analysis.fixpoint`);
* the register/memory value analysis (:mod:`repro.analysis.value`) that
  computes abstract register contents, abstract addresses of every memory
  access and branch-condition refinements;
* the data-flow based loop bound analysis (:mod:`repro.analysis.loopbounds`),
  modelled on the counter-loop detection the paper relies on (rules 13.4 and
  13.6 discussion);
* unreachable-code detection (:mod:`repro.analysis.reachability`, rule 14.1).
"""

from repro.analysis.domains.interval import Interval
from repro.analysis.domains.memstate import AbstractValue, AbstractMemory, AbstractState
from repro.analysis.value import ValueAnalysis, ValueAnalysisResult
from repro.analysis.loopbounds import LoopBound, LoopBoundAnalysis, LoopBoundResult
from repro.analysis.reachability import ReachabilityResult, find_unreachable_code

__all__ = [
    "Interval",
    "AbstractValue",
    "AbstractMemory",
    "AbstractState",
    "ValueAnalysis",
    "ValueAnalysisResult",
    "LoopBound",
    "LoopBoundAnalysis",
    "LoopBoundResult",
    "ReachabilityResult",
    "find_unreachable_code",
]
