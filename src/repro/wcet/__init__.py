"""Path analysis and the top-level WCET analyzer (Figure 1 end-to-end).

* :mod:`repro.wcet.simplex` / :mod:`repro.wcet.ilp` — the self-contained
  linear and integer-linear programming solver of the IPET path analysis (a
  sparse two-phase simplex under branch and bound; no other solver);
* :mod:`repro.wcet.ipet` — the Implicit Path Enumeration Technique: block and
  edge counts, structural flow conservation, loop-bound and annotation
  constraints, presolved into one integer column per class of equal counts,
  and total execution time maximised (WCET) and minimised (BCET) as one
  pair;
* :mod:`repro.wcet.blocktime` — per-block timing tables combining pipeline,
  cache and memory-map information;
* :mod:`repro.wcet.contexts` — call-site context sensitivity;
* :mod:`repro.wcet.analyzer` — the :class:`WCETAnalyzer` orchestrating decoding,
  loop/value analysis, cache/pipeline analysis and path analysis;
* :mod:`repro.wcet.report` — structured analysis reports.
"""

from repro.wcet.ilp import ILPSolution, ILPSystem, solve_ilp, solve_ilp_pair
from repro.wcet.ipet import IPETBuilder, PathAnalysisResult
from repro.wcet.blocktime import BlockTimeTable
from repro.wcet.contexts import CallContext
from repro.wcet.analyzer import AnalysisOptions, WCETAnalyzer
from repro.wcet.report import FunctionReport, WCETReport, ChallengeReport

__all__ = [
    "ILPSolution",
    "ILPSystem",
    "solve_ilp",
    "solve_ilp_pair",
    "IPETBuilder",
    "PathAnalysisResult",
    "BlockTimeTable",
    "CallContext",
    "AnalysisOptions",
    "WCETAnalyzer",
    "WCETReport",
    "FunctionReport",
    "ChallengeReport",
]
