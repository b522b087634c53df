"""Loop-structure variant pairs for MISRA rules 13.4, 13.6, 14.1, 14.4, 14.5.

Each experiment compares a *violating* variant with a *conforming* rewrite of
the same computation, so ``tests/test_paper_claims.py`` can show what the
violation costs the WCET analysis: no automatic bound at all (13.4, 13.6,
14.4), extra analysed paths (14.1), or — the paper's counterpoint — nothing
at all (14.5).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.annotations import AnnotationSet
from repro.ir.program import Program
from repro.minic.codegen import compile_source

#: Iterations of the accumulation loops in all variants.
ITERATIONS = 32

# --------------------------------------------------------------------------- #
# Rule 13.4 — float-controlled loop vs. integer-controlled loop
# --------------------------------------------------------------------------- #
FLOAT_LOOP_SOURCE = f"""
int samples[{ITERATIONS}];
int main(void) {{
    float f;
    int acc = 0;
    int i = 0;
    for (f = 0.0; f < {ITERATIONS}.0; f = f + 1.0) {{
        acc = acc + samples[i];
        i = i + 1;
    }}
    return acc;
}}
"""

INT_LOOP_SOURCE = f"""
int samples[{ITERATIONS}];
int main(void) {{
    int i;
    int acc = 0;
    for (i = 0; i < {ITERATIONS}; i++) {{
        acc = acc + samples[i];
    }}
    return acc;
}}
"""

# --------------------------------------------------------------------------- #
# Rule 13.6 — counter modified in the body vs. clean counter loop
# --------------------------------------------------------------------------- #
MODIFIED_COUNTER_SOURCE = f"""
int samples[{ITERATIONS}];
int main(void) {{
    int i;
    int acc = 0;
    for (i = 0; i < {ITERATIONS}; i++) {{
        acc = acc + samples[i];
        if (samples[i] < 0) {{
            i = i + samples[i];
        }}
    }}
    return acc;
}}
"""

CLEAN_COUNTER_SOURCE = f"""
int samples[{ITERATIONS}];
int main(void) {{
    int i;
    int acc = 0;
    int skip = 0;
    for (i = 0; i < {ITERATIONS}; i++) {{
        if (skip == 0) {{
            acc = acc + samples[i];
        }}
        if (samples[i] < 0) {{
            skip = 1;
        }}
    }}
    return acc;
}}
"""

# --------------------------------------------------------------------------- #
# Rule 14.1 — unreachable (debug) code left in vs. removed
# --------------------------------------------------------------------------- #
# ``debug_enabled`` is a global that the deployed system never sets, so the
# guarded dump loop is dead code in practice — but a static analysis cannot
# know that and has to include the path in the worst case (the paper's point:
# removing unreachable code removes a source of over-approximation).
DEAD_CODE_SOURCE = f"""
int samples[{ITERATIONS}];
int debug_dump[{ITERATIONS}];
int debug_enabled;
int main(void) {{
    int i;
    int acc = 0;
    for (i = 0; i < {ITERATIONS}; i++) {{
        acc = acc + samples[i];
    }}
    if (debug_enabled) {{
debug_path:
        for (i = 0; i < {ITERATIONS}; i++) {{
            debug_dump[i] = samples[i] * 17;
            acc = acc + debug_dump[i];
        }}
    }}
    return acc;
}}
"""

NO_DEAD_CODE_SOURCE = INT_LOOP_SOURCE

# --------------------------------------------------------------------------- #
# Rule 14.4 — goto creating an irreducible loop vs. structured loop
# --------------------------------------------------------------------------- #
GOTO_IRREDUCIBLE_SOURCE = f"""
int samples[{ITERATIONS}];
int main(void) {{
    int i = 0;
    int acc = 0;
    if (samples[0] > 0) {{
        goto body;
    }}
head:
    acc = acc + 1;
body:
    acc = acc + samples[i];
    i = i + 1;
    if (i < {ITERATIONS}) {{
        goto head;
    }}
    return acc;
}}
"""

STRUCTURED_LOOP_SOURCE = f"""
int samples[{ITERATIONS}];
int main(void) {{
    int i;
    int acc = 0;
    int first = 1;
    for (i = 0; i < {ITERATIONS}; i++) {{
        if (first == 0 || samples[0] <= 0) {{
            acc = acc + 1;
        }}
        acc = acc + samples[i];
        first = 0;
    }}
    return acc;
}}
"""

# --------------------------------------------------------------------------- #
# Rule 14.5 — continue vs. if/else rewrite (bounds must match)
# --------------------------------------------------------------------------- #
CONTINUE_SOURCE = f"""
int samples[{ITERATIONS}];
int main(void) {{
    int i;
    int acc = 0;
    for (i = 0; i < {ITERATIONS}; i++) {{
        if (samples[i] == 0) {{
            continue;
        }}
        acc = acc + samples[i];
    }}
    return acc;
}}
"""

IF_ELSE_SOURCE = f"""
int samples[{ITERATIONS}];
int main(void) {{
    int i;
    int acc = 0;
    for (i = 0; i < {ITERATIONS}; i++) {{
        if (samples[i] != 0) {{
            acc = acc + samples[i];
        }}
    }}
    return acc;
}}
"""

#: Variant registry: experiment id -> (violating source, conforming source).
VARIANTS: Dict[str, Tuple[str, str]] = {
    "13.4": (FLOAT_LOOP_SOURCE, INT_LOOP_SOURCE),
    "13.6": (MODIFIED_COUNTER_SOURCE, CLEAN_COUNTER_SOURCE),
    "14.1": (DEAD_CODE_SOURCE, NO_DEAD_CODE_SOURCE),
    "14.4": (GOTO_IRREDUCIBLE_SOURCE, STRUCTURED_LOOP_SOURCE),
    "14.5": (CONTINUE_SOURCE, IF_ELSE_SOURCE),
}


def violating_program(rule: str) -> Program:
    return compile_source(VARIANTS[rule][0])


def conforming_program(rule: str) -> Program:
    return compile_source(VARIANTS[rule][1])


def manual_annotations(rule: str) -> AnnotationSet:
    """The manual annotations needed to analyse the *violating* variant at all.

    The bound is the designer's knowledge of the loop's true behaviour —
    exactly what the paper says must be documented when the structure defeats
    the automatic analysis.
    """
    annotation_set = AnnotationSet()
    if rule == "13.4":
        annotation_set.add_loop_bound(
            "main", "loop_7", ITERATIONS, comment="float counter steps by 1.0 up to 32.0"
        )
    elif rule == "13.6":
        annotation_set.add_loop_bound(
            "main", "loop_6", ITERATIONS, comment="counter only ever decreased on negative samples"
        )
    elif rule == "14.4":
        annotation_set.add_loop_bound(
            "main", "head", ITERATIONS, comment="the goto loop executes at most 32 times"
        )
    return annotation_set
