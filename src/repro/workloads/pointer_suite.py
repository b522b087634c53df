"""Pointer-related workloads: dynamic memory (rule 20.4), imprecise device
accesses (Section 4.3 "Imprecise Memory Accesses"), non-local jumps (rule
20.7) and function-pointer dispatch (Section 3.2 "Function Pointers")."""

from __future__ import annotations

from typing import List, Tuple

from repro.annotations import AnnotationSet
from repro.ir.instructions import Opcode
from repro.ir.program import Program
from repro.minic.codegen import compile_source

#: Number of words processed by the buffer workloads.
BUFFER_WORDS = 16

# --------------------------------------------------------------------------- #
# Rule 20.4 — heap-allocated buffer vs. static buffer
# --------------------------------------------------------------------------- #
HEAP_BUFFER_SOURCE = f"""
int seed;

int main(void) {{
    int i;
    int acc = 0;
    int *buffer = malloc({BUFFER_WORDS * 4});
    for (i = 0; i < {BUFFER_WORDS}; i++) {{
        buffer[i] = seed + i;
    }}
    for (i = 0; i < {BUFFER_WORDS}; i++) {{
        acc = acc + buffer[i];
    }}
    return acc;
}}
"""

STATIC_BUFFER_SOURCE = f"""
int seed;
int buffer[{BUFFER_WORDS}];

int main(void) {{
    int i;
    int acc = 0;
    for (i = 0; i < {BUFFER_WORDS}; i++) {{
        buffer[i] = seed + i;
    }}
    for (i = 0; i < {BUFFER_WORDS}; i++) {{
        acc = acc + buffer[i];
    }}
    return acc;
}}
"""

# --------------------------------------------------------------------------- #
# Rule 20.7 — setjmp/longjmp error exit vs. structured status return
# --------------------------------------------------------------------------- #
LONGJMP_SOURCE = f"""
int jump_buffer[8];
int samples[{BUFFER_WORDS}];

int process(int index) {{
    if (samples[index] < 0) {{
        longjmp(jump_buffer, 1);
    }}
    return samples[index] * 2;
}}

int main(void) {{
    int i;
    int acc = 0;
    if (setjmp(jump_buffer)) {{
        return -1;
    }}
    for (i = 0; i < {BUFFER_WORDS}; i++) {{
        acc = acc + process(i);
    }}
    return acc;
}}
"""

STRUCTURED_ERROR_SOURCE = f"""
int samples[{BUFFER_WORDS}];

int process(int index) {{
    if (samples[index] < 0) {{
        return -1;
    }}
    return samples[index] * 2;
}}

int main(void) {{
    int i;
    int acc = 0;
    for (i = 0; i < {BUFFER_WORDS}; i++) {{
        int value = process(i);
        if (value < 0) {{
            return -1;
        }}
        acc = acc + value;
    }}
    return acc;
}}
"""

# --------------------------------------------------------------------------- #
# Imprecise memory accesses — CAN driver touching device registers through a
# pointer the analysis cannot resolve.
# --------------------------------------------------------------------------- #
DEVICE_DRIVER_SOURCE = f"""
int can_registers[{BUFFER_WORDS}];
int mailbox_index;
int application_state[{BUFFER_WORDS}];

/* The driver receives a pointer computed from a runtime mailbox index; the
   analysis only sees an unknown pointer. */
int read_mailbox(int *mailbox) {{
    int i;
    int sum = 0;
    for (i = 0; i < 4; i++) {{
        sum = sum + mailbox[i];
    }}
    return sum;
}}

int can_driver(void) {{
    int value = read_mailbox(&can_registers[mailbox_index]);
    application_state[0] = value;
    return value;
}}

int main(void) {{
    return can_driver();
}}
"""


def heap_program() -> Program:
    return compile_source(HEAP_BUFFER_SOURCE)


def static_program() -> Program:
    return compile_source(STATIC_BUFFER_SOURCE)


def device_driver_program(entry: str = "can_driver") -> Program:
    return compile_source(DEVICE_DRIVER_SOURCE, entry=entry)


def device_driver_annotations(regions: Tuple[str, ...] = ("ram",)) -> AnnotationSet:
    """Memory-region annotation: the driver's unknown accesses stay in RAM.

    (The ``can_registers`` mailbox array lives in normal RAM in this model; in
    a configuration where it is placed into the device region the annotation
    would name ``("ram", "device")`` — the benchmark sweeps both.)
    """
    annotation_set = AnnotationSet()
    annotation_set.add_memory_regions("read_mailbox", regions)
    annotation_set.add_memory_regions("can_driver", regions)
    return annotation_set


# --------------------------------------------------------------------------- #
# Function-pointer dispatch (tier-one challenge of Section 3.2)
# --------------------------------------------------------------------------- #
DISPATCH_SOURCE = f"""
int event_code;
int payload[{BUFFER_WORDS}];

int handle_fast(void) {{
    return payload[0] + payload[1];
}}

int handle_slow(void) {{
    int i;
    int acc = 0;
    for (i = 0; i < {BUFFER_WORDS}; i++) {{
        acc = acc + payload[i] * 3;
    }}
    return acc;
}}

int main(void) {{
    int *handler;
    if (event_code == 0) {{
        handler = &handle_fast;
    }} else {{
        handler = &handle_slow;
    }}
    return handler();
}}
"""


def dispatch_program() -> Program:
    return compile_source(DISPATCH_SOURCE)


def dispatch_annotations(program: Program) -> AnnotationSet:
    """Call-target hints for the indirect call in ``main``.

    The hint lists both handlers — the designer's knowledge of the event
    table.  Without it the CFG reconstruction stops with a tier-one error.
    """
    annotation_set = AnnotationSet()
    for instr in program.function("main").instructions:
        if instr.opcode is Opcode.ICALL:
            annotation_set.add_call_targets(instr.address, ["handle_fast", "handle_slow"])
    return annotation_set
