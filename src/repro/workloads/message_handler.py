"""CAN-style message handler (data-dependent algorithms, Section 4.3).

The paper's example: message-based communication with fixed-size read and
write buffers reserved per scheduling cycle.  During the interrupt handler the
message data is copied either *from* or *to* memory depending on the current
scheduling cycle — the two directions can never occur in the same activation,
and the amount of data is fixed at design time — but neither fact is visible
to a static analysis of the code alone.  The annotations below supply exactly
those two facts:

* an :class:`~repro.annotations.flowfacts.ArgumentRange` bounding the length
  argument (which bounds the copy loops automatically), and
* a mutual-exclusion flow constraint between the read path and the write path.
"""

from __future__ import annotations

from repro.annotations import AnnotationSet
from repro.ir.program import Program
from repro.minic.codegen import compile_source

#: Capacity (in words) of the per-cycle message buffers.
BUFFER_WORDS = 16

SOURCE = f"""
/* CAN-style message handler with per-cycle read and write buffers.
   rx_pending and tx_pending are set by the communication stack; the scheduler
   guarantees that a single activation only ever serves one direction, but the
   code structure alone does not show that. */
int rx_buffer[{BUFFER_WORDS}];
int tx_buffer[{BUFFER_WORDS}];
int app_inbox[{BUFFER_WORDS}];
int app_outbox[{BUFFER_WORDS}];
int checksum;

int handle_message(int rx_pending, int tx_pending, int length) {{
    int i;
    int sum = 0;
    if (rx_pending) {{
read_path:
        for (i = 0; i < length; i++) {{
            app_inbox[i] = rx_buffer[i];
            sum = sum + rx_buffer[i];
        }}
    }}
    if (tx_pending) {{
write_path:
        for (i = 0; i < length; i++) {{
            tx_buffer[i] = app_outbox[i];
            sum = sum + app_outbox[i];
        }}
    }}
    checksum = sum;
    return sum;
}}

int main(void) {{
    int result;
    result = handle_message(1, 0, {BUFFER_WORDS});
    return result;
}}
"""


def source() -> str:
    """Mini-C source of the message handler."""
    return SOURCE


def program(entry: str = "handle_message") -> Program:
    """The compiled message handler (default entry: the handler itself)."""
    return compile_source(SOURCE, entry=entry)


def annotations(with_length_bound: bool = True, with_exclusion: bool = True) -> AnnotationSet:
    """Design-level facts for the handler.

    ``with_length_bound`` adds the argument-range fact ``length in [0, 16]``
    (bounds both copy loops); ``with_exclusion`` adds the read/write mutual
    exclusion.  Disabling them shows the cost of not documenting each piece
    of information (``tests/test_paper_claims.py``).
    """
    annotation_set = AnnotationSet()
    if with_length_bound:
        # length is the third parameter -> argument register r5.
        annotation_set.add_argument_range("handle_message", "r5", 0, BUFFER_WORDS)
    if with_exclusion:
        annotation_set.add_flow_constraint(
            "handle_message",
            [("read_path", 1), ("write_path", 1)],
            "<=",
            1,
            name="read/write cycles are mutually exclusive",
        )
    return annotation_set


def fallback_loop_bounds() -> AnnotationSet:
    """Loop-bound-only annotations (what a designer would write without the
    argument-range mechanism): both copy loops iterate at most BUFFER_WORDS
    times.  The loop labels are looked up from the compiled program so the
    annotation stays valid if the source is reformatted."""
    annotation_set = AnnotationSet()
    compiled = program()
    for label in compiled.function("handle_message").labels():
        if label.startswith("loop_"):
            annotation_set.add_loop_bound(
                "handle_message", label, BUFFER_WORDS, comment="buffer capacity"
            )
    return annotation_set
