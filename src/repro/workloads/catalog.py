"""Name-indexed registry of all workloads (used by the examples, tests and perfbench)."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.annotations import AnnotationSet
from repro.ir.program import Program
from repro.workloads import (
    arithmetic_suite,
    error_handling,
    flight_control,
    functions_suite,
    loops_suite,
    message_handler,
    pointer_suite,
)


@dataclass(frozen=True)
class Workload:
    """A named, self-describing workload."""

    name: str
    description: str
    paper_section: str
    build: Callable[[], Program]
    annotations: Optional[Callable[[], AnnotationSet]] = None
    entry: str = "main"

    def program(self) -> Program:
        return self.build()

    def annotation_set(self) -> AnnotationSet:
        if self.annotations is None:
            return AnnotationSet()
        return self.annotations()


def catalog() -> Dict[str, Workload]:
    """All workloads, keyed by name."""
    return dict(_by_name())


@functools.lru_cache(maxsize=None)
def _by_name() -> Dict[str, Workload]:
    # Built once: every cold project build looks its workload up here.
    entries: List[Workload] = [
        Workload(
            name="flight-control",
            description="dual-mode flight control task (ground / air operating modes)",
            paper_section="4.3 Operating Modes",
            build=flight_control.program,
            annotations=flight_control.annotations,
        ),
        Workload(
            name="message-handler",
            description="CAN-style message handler with per-cycle read/write buffers",
            paper_section="4.3 Data-Dependent Algorithms",
            build=message_handler.program,
            annotations=message_handler.annotations,
            entry="handle_message",
        ),
        Workload(
            name="error-monitor",
            description="periodic monitor with four error handlers and documented scenarios",
            paper_section="4.3 Error Handling",
            build=error_handling.program,
            annotations=error_handling.annotations,
            entry="monitor",
        ),
        Workload(
            name="device-driver",
            description="CAN driver reading a mailbox through an unresolved pointer",
            paper_section="4.3 Imprecise Memory Accesses",
            build=pointer_suite.device_driver_program,
            annotations=pointer_suite.device_driver_annotations,
            entry="can_driver",
        ),
        Workload(
            name="heap-buffer",
            description="buffer processing on a malloc'd buffer (MISRA rule 20.4 violation)",
            paper_section="4.2 Rule 20.4",
            build=pointer_suite.heap_program,
        ),
        Workload(
            name="static-buffer",
            description="the same buffer processing on a statically allocated buffer",
            paper_section="4.2 Rule 20.4",
            build=pointer_suite.static_program,
        ),
        Workload(
            name="ldivmod",
            description="estimate-and-correct 32-bit software division (Table 1 subject)",
            paper_section="4.3 Software Arithmetic / Table 1",
            build=arithmetic_suite.ldivmod_program,
            annotations=arithmetic_suite.ldivmod_annotations,
            entry="ldivmod",
        ),
        Workload(
            name="restoring-division",
            description="restoring shift-subtract division with a fixed iteration count",
            paper_section="4.3 Software Arithmetic",
            build=arithmetic_suite.restoring_program,
            entry="restoring_div",
        ),
        Workload(
            name="single-path",
            description="predicated single-path transformation of a branchy kernel",
            paper_section="2 Related Work (Puschner/Kirner)",
            build=arithmetic_suite.single_path_kernel,
        ),
        Workload(
            name="branchy-kernel",
            description="the original branchy kernel the single-path variant is derived from",
            paper_section="2 Related Work (Puschner/Kirner)",
            build=arithmetic_suite.branchy_kernel,
        ),
    ]
    for rule, (violating, conforming) in loops_suite.VARIANTS.items():
        entries.append(
            Workload(
                name=f"rule-{rule}-violating",
                description=f"variant violating MISRA rule {rule}",
                paper_section=f"4.2 Rule {rule}",
                build=lambda rule=rule: loops_suite.violating_program(rule),
                annotations=lambda rule=rule: loops_suite.manual_annotations(rule),
            )
        )
        entries.append(
            Workload(
                name=f"rule-{rule}-conforming",
                description=f"conforming rewrite for MISRA rule {rule}",
                paper_section=f"4.2 Rule {rule}",
                build=lambda rule=rule: loops_suite.conforming_program(rule),
            )
        )
    entries.append(
        Workload(
            name="recursive-sum",
            description="recursive weighted sum (MISRA rule 16.2 violation)",
            paper_section="4.2 Rule 16.2",
            build=functions_suite.recursive_program,
            annotations=functions_suite.recursion_annotations,
        )
    )
    entries.append(
        Workload(
            name="iterative-sum",
            description="iterative rewrite of the weighted sum",
            paper_section="4.2 Rule 16.2",
            build=functions_suite.iterative_program,
        )
    )
    entries.append(
        Workload(
            name="variadic-sum",
            description="variadic-style argument summation (MISRA rule 16.1 violation)",
            paper_section="4.2 Rule 16.1",
            build=functions_suite.variadic_program,
            annotations=functions_suite.variadic_annotations,
        )
    )
    entries.append(
        Workload(
            name="fixed-arity-sum",
            description="fixed-arity rewrite of the argument summation",
            paper_section="4.2 Rule 16.1",
            build=functions_suite.fixed_arity_program,
        )
    )
    entries.append(
        Workload(
            name="dispatch",
            description="event dispatch through a function pointer (tier-one challenge)",
            paper_section="3.2 Function Pointers",
            build=pointer_suite.dispatch_program,
        )
    )
    return {workload.name: workload for workload in entries}


def workload_names() -> List[str]:
    return sorted(catalog())


def get_workload(name: str) -> Workload:
    try:
        return _by_name()[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(workload_names())}"
        ) from exc
