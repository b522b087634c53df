"""Unified analysis facade: one request/result API for every front end.

The paper's workflow (Figure 1) is one pipeline — source → annotations →
decoding → analyses → report.  This package is that pipeline as a stable,
typed, serialisable API:

* :class:`Project` (:mod:`repro.api.project`) — the analysable unit: sources
  (mini-C, assembly or a built program), annotations, processor model, and
  the cache configuration, resolved through one documented precedence order;
* :class:`AnalysisService` (:mod:`repro.api.service`) — serves typed
  :class:`AnalysisRequest`\\ s and returns :class:`AnalysisResult`\\ s bundling
  per-mode WCET reports, guideline findings and cache statistics;
* :mod:`repro.api.serialize` — the versioned JSON schema every report type
  round-trips through exactly (``to_json``/``from_json``);
* :mod:`repro.api.cli` — the single ``python -m repro`` command line
  (``analyze``, ``check``, ``sweep``, ``fuzz``, ``report``, ``serve``), with
  machine-readable ``--json`` output everywhere.

Quick start::

    from repro.api import AnalysisRequest, AnalysisService, Project

    project = Project.from_workload("flight-control", processor="leon2")
    result = AnalysisService(project).analyze(AnalysisRequest(all_modes=True))
    print(result.report.wcet_cycles)
    payload = result.to_json()          # crosses process/machine boundaries

Many requests go through :meth:`AnalysisService.analyze_many` (serial or
over a process pool).  Every other entry point — the analysis server, the
differential oracle behind :func:`repro.testing.sweep.run_sweep`,
perfbench — is a thin consumer of this layer; new workloads and back ends
plug in here instead of growing another bespoke surface.
"""

from repro.api.project import (
    CACHE_ENV_VAR,
    PROCESSORS,
    Project,
    ProjectError,
    resolve_processor,
    resolve_summary_store,
)
from repro.api.serialize import SCHEMA_VERSION, SchemaError, from_json, to_json
from repro.api.service import (
    AnalysisRequest,
    AnalysisResult,
    AnalysisService,
    RequestError,
)

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "AnalysisService",
    "RequestError",
    "CACHE_ENV_VAR",
    "PROCESSORS",
    "Project",
    "ProjectError",
    "SCHEMA_VERSION",
    "SchemaError",
    "from_json",
    "resolve_processor",
    "resolve_summary_store",
    "to_json",
]
