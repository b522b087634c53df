"""Path analysis and the top-level WCET analyzer (Figure 1 end-to-end).

* :mod:`repro.wcet.simplex` / :mod:`repro.wcet.ilp` — a self-contained linear
  and integer-linear programming solver (with an optional scipy backend) used
  by the IPET path analysis;
* :mod:`repro.wcet.ipet` — the Implicit Path Enumeration Technique: block and
  edge frequency variables, structural flow conservation, loop-bound and
  annotation constraints, maximisation of total execution time;
* :mod:`repro.wcet.blocktime` — per-block timing tables combining pipeline,
  cache and memory-map information;
* :mod:`repro.wcet.contexts` — call-site context sensitivity;
* :mod:`repro.wcet.analyzer` — the :class:`WCETAnalyzer` orchestrating decoding,
  loop/value analysis, cache/pipeline analysis and path analysis;
* :mod:`repro.wcet.report` — structured analysis reports.
"""

from repro.wcet.ilp import ILPProblem, ILPSolution, LinearExpression, solve_ilp
from repro.wcet.ipet import IPETBuilder, PathAnalysisResult
from repro.wcet.blocktime import BlockTimeTable
from repro.wcet.contexts import CallContext
from repro.wcet.analyzer import AnalysisOptions, WCETAnalyzer
from repro.wcet.report import FunctionReport, WCETReport, ChallengeReport

__all__ = [
    "ILPProblem",
    "ILPSolution",
    "LinearExpression",
    "solve_ilp",
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
