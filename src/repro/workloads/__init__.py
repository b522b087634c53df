"""Workload programs for the examples, the tests and perfbench.

Every experiment in DESIGN.md analyses one or more of these mini-C programs
(or, for the single-path study, directly-built IR programs).  Each module
exposes the source text, the design-level annotations the paper's Section 4.3
would attach to it, and helpers that compile it to an IR program.

Modules
-------

* :mod:`repro.workloads.flight_control` — dual-mode flight-control task
  (operating modes experiment).
* :mod:`repro.workloads.message_handler` — CAN-style message handler with
  per-cycle read/write buffers (data-dependent algorithms experiment).
* :mod:`repro.workloads.error_handling` — monitor task with error handlers
  (error-handling experiment).
* :mod:`repro.workloads.loops_suite` — loop-structure variants for MISRA rules
  13.4, 13.6, 14.1, 14.4 and 14.5.
* :mod:`repro.workloads.functions_suite` — recursion and variadic-function
  variants for rules 16.1 and 16.2.
* :mod:`repro.workloads.pointer_suite` — dynamic memory, device drivers and
  function-pointer dispatch (rule 20.4, imprecise-memory and
  function-pointer experiments).
* :mod:`repro.workloads.arithmetic_suite` — software arithmetic kernels
  (lDivMod vs. restoring division vs. fixed point) and the single-path
  transformation pair.
* :mod:`repro.workloads.catalog` — a name-indexed registry of everything above.
"""

from repro.workloads.catalog import Workload, catalog, workload_names, get_workload

__all__ = ["Workload", "catalog", "workload_names", "get_workload"]
