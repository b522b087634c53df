"""Token-level mutation tests of the two text parsers.

Each test takes the example in its parser's module docstring and applies a
few mutations to its lines of tokens: delete, duplicate, swap or copy
tokens, put in a word from a small dictionary of awkward tokens, or split,
join, drop or replace whole lines.  The parser must return or raise its own
typed error — ``AssemblyError`` for assembly, ``ParseError`` for annotation
text.  Any other exception (an ``IndexError``, a bare ``ValueError``) fails
the test: malformed input yields a typed error, never a crash.
"""

from __future__ import annotations

import textwrap
from typing import List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annotations import parser as annotation_parser
from repro.errors import AssemblyError, ParseError
from repro.ir import asmparser

#: Tokens at the edges of the assembly grammar: predicates, labels, operand
#: punctuation, malformed numbers and directive attributes.
ASSEMBLY_WORDS = [
    "?r4", "?", "loop:", ":", ",", "[r5", "4]", "+", "08", "0x", "1.5", "r99",
    "init=", "params=", ".func", ".data",
]
#: Tokens at the edges of the annotation grammar: numeric and empty
#: locations, malformed numbers, block braces and flow-constraint syntax.
ANNOTATION_WORDS = [
    "f.0x", "f.08", "f.", "0x", "08", "{", "}", "max=", "2*", "+", "<=", ":",
    "mode", "handler",
]

OPERATIONS = [
    "delete", "duplicate", "swap", "copy", "replace", "insert",
    "split", "join", "drop", "line",
]

Mutation = Tuple[str, int, int, int, str]


def mutations(words: Sequence[str]):
    index = st.integers(min_value=0, max_value=1 << 16)
    return st.lists(
        st.tuples(st.sampled_from(OPERATIONS), index, index, index, st.sampled_from(words)),
        min_size=1,
        max_size=4,
    )


def docstring_example(module) -> str:
    """The indented example after the first ``::`` of ``module``'s docstring."""
    lines = []
    for line in module.__doc__.split("::\n", 1)[1].splitlines():
        if line and not line.startswith(" "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


def mutate(text: str, steps: Sequence[Mutation]) -> str:
    """Apply ``steps`` to the lines of ``text``; comment lines are left out."""
    lines: List[List[str]] = [
        line.split() for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    for operation, first, second, third, word in steps:
        if not lines:
            break
        i = first % len(lines)
        tokens = lines[i]
        k = second % (len(tokens) + 1)
        if operation == "insert":
            tokens.insert(k, word)
        elif operation == "split":
            lines[i:i + 1] = [tokens[:k], tokens[k:]]
        elif operation == "join":
            lines[i:i + 2] = [tokens + (lines[i + 1] if i + 1 < len(lines) else [])]
        elif operation == "drop":
            del lines[i]
        elif operation == "line":
            lines[i] = [word]
        elif operation == "copy":
            other = lines[third % len(lines)]
            if tokens and other:
                tokens[k % len(tokens)] = other[third % len(other)]
        elif tokens:
            k %= len(tokens)
            if operation == "delete":
                del tokens[k]
            elif operation == "duplicate":
                tokens.insert(k, tokens[k])
            elif operation == "swap":
                j = third % len(tokens)
                tokens[k], tokens[j] = tokens[j], tokens[k]
            else:  # replace
                tokens[k] = word
    return "\n".join(" ".join(tokens) for tokens in lines)


ASSEMBLY_EXAMPLE = docstring_example(asmparser)
ANNOTATION_EXAMPLE = docstring_example(annotation_parser)


def test_docstring_examples_parse_before_and_after_the_round_trip():
    for text in (ASSEMBLY_EXAMPLE, mutate(ASSEMBLY_EXAMPLE, [])):
        assert asmparser.parse_assembly(text).function("helper")
    for text in (ANNOTATION_EXAMPLE, mutate(ANNOTATION_EXAMPLE, [])):
        assert annotation_parser.parse_annotations(text).loop_bounds_for("handle_message")


@given(mutations(ASSEMBLY_WORDS))
@settings(max_examples=300, deadline=None)
def test_mutated_assembly_parses_or_raises_assembly_error(steps):
    try:
        asmparser.parse_assembly(mutate(ASSEMBLY_EXAMPLE, steps))
    except AssemblyError:
        pass


@given(mutations(ANNOTATION_WORDS))
@settings(max_examples=300, deadline=None)
def test_mutated_annotations_parse_or_raise_parse_error(steps):
    try:
        annotation_parser.parse_annotations(mutate(ANNOTATION_EXAMPLE, steps))
    except ParseError:
        pass
