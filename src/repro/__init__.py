"""repro — reproduction of "Software Structure and WCET Predictability" (PPES 2011).

The package provides a complete, self-contained static WCET analysis stack and
the surrounding tooling the paper's discussion is built on:

* :mod:`repro.api` — the unified facade: Project/AnalysisService, serialisable
  reports, and the single ``python -m repro`` command line.
* :mod:`repro.server` — the persistent analysis service: job queue with
  content-addressed dedup, warm worker pool, HTTP/JSON front end and typed
  client (``python -m repro serve`` / ``repro analyze --remote``).
* :mod:`repro.ir` — register-level IR ("the binary"), assembler, interpreter.
* :mod:`repro.cfg` — control-flow reconstruction, loops, call graph.
* :mod:`repro.analysis` — abstract-interpretation value & loop-bound analyses.
* :mod:`repro.hardware` — memory map, caches, pipeline timing model.
* :mod:`repro.wcet` — IPET path analysis and the top-level WCET analyzer.
* :mod:`repro.minic` — mini-C frontend and code generator.
* :mod:`repro.guidelines` — MISRA-C:2004 predictability rule checker.
* :mod:`repro.annotations` — design-level information (modes, flow facts, ...).
* :mod:`repro.arith` — software arithmetic (lDivMod study, soft-float, fixed-point).
* :mod:`repro.workloads` — workload programs used by the examples, tests and perfbench.
"""

__version__ = "1.0.0"

__all__ = [
    "api",
    "server",
    "ir",
    "cfg",
    "analysis",
    "hardware",
    "wcet",
    "minic",
    "guidelines",
    "annotations",
    "arith",
    "workloads",
    "errors",
]
