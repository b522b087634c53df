"""Textual annotation format.

The paper recommends that developers "instantly document the relevant source
code parts" — this module provides the file format for doing so.  Example::

    # loop bounds:  function.label  max-iterations
    loopbound handle_message.copy_loop 16

    # linear flow constraints over block execution counts (per invocation);
    # a term names a block by label or by address
    flow handle_message: read_path + write_path <= 1
    flow handle_message: 2*0x1014 + retry <= 5

    # blocks that can never execute
    infeasible main.debug_dump

    # recursion depth, argument value ranges, memory regions
    recursion traverse 4
    argrange handle_message r3 0 16
    memregions can_driver ram,device

    # resolution of function pointers / computed gotos
    calltargets 0x1040 handler_a,handler_b
    branchtargets 0x1080 case0,case1,case2

    # operating modes group mode-specific facts
    mode ground {
        infeasible flight_task.airborne_branch
        loopbound flight_task.gear_loop 3
    }

    # error-handling scenarios
    errorscenario single_fault max=1 {
        handler monitor.handle_overvoltage
        handler monitor.handle_undervoltage
    }

Lines starting with ``#`` (or ``;``) are comments.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import AnnotationError, ParseError
from repro.annotations.errors_model import ErrorScenario
from repro.annotations.flowfacts import Location
from repro.annotations.modes import OperatingMode
from repro.annotations.registry import AnnotationSet

#: A flow-constraint term: an optional ``N *`` coefficient, then a label or
#: a block address (``0x1014`` or decimal; an address term starts with a digit).
_TERM_RE = re.compile(r"^(?:(\d+)\s*\*\s*)?([A-Za-z_.][\w.]*|\d\w*)$")


def _parse_location(text: str, line_no: int) -> Tuple[str, Location]:
    """Split ``function.label`` or ``function.0xADDR`` into its parts."""
    if "." not in text:
        raise ParseError(
            f"expected function.label or function.0xADDR, got {text!r}", line_no
        )
    function, _, location = text.partition(".")
    if not function or not location:
        raise ParseError(f"bad location {text!r}", line_no)
    if location.startswith("0x") or location.isdigit():
        return function, _parse_int(location, line_no)
    return function, location


def _parse_int(text: str, line_no: int) -> int:
    try:
        return int(text, 0)
    except ValueError as exc:
        raise ParseError(f"expected an integer, got {text!r}", line_no) from exc


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.annotations = AnnotationSet()

    def parse(self) -> AnnotationSet:
        index = 0
        while index < len(self.lines):
            index = self._parse_statement(index, self.annotations, mode=None)
        return self.annotations

    # ------------------------------------------------------------------ #
    def _clean(self, index: int) -> str:
        line = self.lines[index]
        for marker in ("#", ";"):
            position = line.find(marker)
            if position >= 0:
                line = line[:position]
        return line.strip()

    def _parse_statement(
        self, index: int, target: AnnotationSet, mode: Optional[OperatingMode]
    ) -> int:
        """Parse the statement at ``index``; returns the next line's index.

        A fact the annotation model refuses (a negative bound, an empty
        range, a second mode of one name) is a :class:`ParseError` naming
        the statement's line.
        """
        try:
            return self._statement(index, target, mode)
        except AnnotationError as exc:
            raise ParseError(str(exc), index + 1) from exc

    def _statement(
        self, index: int, target: AnnotationSet, mode: Optional[OperatingMode]
    ) -> int:
        line_no = index + 1
        line = self._clean(index)
        if not line:
            return index + 1

        tokens = line.split()
        keyword = tokens[0].lower()

        if keyword == "mode":
            return self._parse_mode_block(index)
        if keyword == "errorscenario":
            return self._parse_error_block(index)

        if keyword == "loopbound":
            if len(tokens) < 3:
                raise ParseError("loopbound needs a location and a bound", line_no)
            function, location = _parse_location(tokens[1], line_no)
            bound = _parse_int(tokens[2], line_no)
            from repro.annotations.flowfacts import LoopBoundAnnotation

            fact = LoopBoundAnnotation(function, location, bound)
            if mode is not None:
                mode.add(fact)
            else:
                target.loop_bounds.append(fact)
        elif keyword == "infeasible":
            if len(tokens) < 2:
                raise ParseError("infeasible needs a location", line_no)
            function, location = _parse_location(tokens[1], line_no)
            from repro.annotations.flowfacts import InfeasiblePath

            fact = InfeasiblePath(function, location, reason=" ".join(tokens[2:]))
            if mode is not None:
                mode.add(fact)
            else:
                target.infeasible_paths.append(fact)
        elif keyword == "flow":
            fact = self._parse_flow(line, line_no)
            if mode is not None:
                mode.add(fact)
            else:
                target.flow_constraints.append(fact)
        elif keyword == "recursion":
            if len(tokens) != 3:
                raise ParseError("recursion needs a function and a depth", line_no)
            target.add_recursion_bound(tokens[1], _parse_int(tokens[2], line_no))
        elif keyword == "argrange":
            if len(tokens) != 5:
                raise ParseError(
                    "argrange needs: function register low high", line_no
                )
            from repro.annotations.flowfacts import ArgumentRange

            fact = ArgumentRange(
                tokens[1],
                tokens[2],
                _parse_int(tokens[3], line_no),
                _parse_int(tokens[4], line_no),
            )
            if mode is not None:
                mode.add(fact)
            else:
                target.argument_ranges.append(fact)
        elif keyword == "memregions":
            if len(tokens) != 3:
                raise ParseError("memregions needs a function and a region list", line_no)
            from repro.annotations.memregions import MemoryRegionAnnotation

            fact = MemoryRegionAnnotation(tokens[1], tuple(tokens[2].split(",")))
            if mode is not None:
                mode.add(fact)
            else:
                target.memory_regions.append(fact)
        elif keyword == "calltargets":
            if len(tokens) != 3:
                raise ParseError("calltargets needs an address and a function list", line_no)
            target.add_call_targets(_parse_int(tokens[1], line_no), tokens[2].split(","))
        elif keyword == "branchtargets":
            if len(tokens) != 3:
                raise ParseError("branchtargets needs an address and a label list", line_no)
            target.add_branch_targets(_parse_int(tokens[1], line_no), tokens[2].split(","))
        else:
            raise ParseError(f"unknown annotation keyword {keyword!r}", line_no)
        return index + 1

    # ------------------------------------------------------------------ #
    def _parse_flow(self, line: str, line_no: int):
        from repro.annotations.flowfacts import FlowConstraint

        # flow <function>: <terms> <relation> <bound>
        body = line[len("flow"):].strip()
        if ":" not in body:
            raise ParseError("flow constraint needs 'function: terms rel bound'", line_no)
        function, _, rest = body.partition(":")
        function = function.strip()
        rest = rest.strip()
        match = re.search(r"(<=|>=|==)", rest)
        if not match:
            raise ParseError("flow constraint needs a relation (<=, >=, ==)", line_no)
        relation = match.group(1)
        terms_text, bound_text = rest.split(relation, 1)
        bound = _parse_int(bound_text.strip(), line_no)
        terms: List[Tuple[Location, int]] = []
        for part in terms_text.split("+"):
            part = part.strip()
            if not part:
                continue
            term_match = _TERM_RE.match(part)
            if not term_match:
                raise ParseError(f"bad flow-constraint term {part!r}", line_no)
            coefficient = int(term_match.group(1) or 1)
            location: Location = term_match.group(2)
            if location[0].isdigit():
                location = _parse_int(location, line_no)
            terms.append((location, coefficient))
        return FlowConstraint(function, tuple(terms), relation, bound)

    # ------------------------------------------------------------------ #
    def _parse_mode_block(self, index: int) -> int:
        line_no = index + 1
        line = self._clean(index)
        match = re.match(r"^mode\s+(\w+)\s*\{\s*$", line)
        if not match:
            raise ParseError("mode block must look like: mode NAME {", line_no)
        mode = OperatingMode(name=match.group(1))
        index += 1
        while index < len(self.lines):
            line = self._clean(index)
            if line == "}":
                self.annotations.add_mode(mode)
                return index + 1
            if not line:
                index += 1
                continue
            index = self._parse_statement(index, self.annotations, mode=mode)
        raise ParseError(f"mode block {mode.name!r} is not closed", line_no)

    def _parse_error_block(self, index: int) -> int:
        line_no = index + 1
        line = self._clean(index)
        match = re.match(r"^errorscenario\s+(\w+)\s+max=(\d+)\s*\{\s*$", line)
        if not match:
            raise ParseError(
                "error scenario must look like: errorscenario NAME max=N {", line_no
            )
        scenario = ErrorScenario(name=match.group(1), max_simultaneous=int(match.group(2)))
        index += 1
        while index < len(self.lines):
            inner_no = index + 1
            line = self._clean(index)
            if line == "}":
                self.annotations.add_error_scenario(scenario)
                return index + 1
            if not line:
                index += 1
                continue
            tokens = line.split()
            if tokens[0].lower() != "handler" or len(tokens) < 2:
                raise ParseError(
                    "error scenario blocks only contain 'handler function.label' lines",
                    inner_no,
                )
            function, location = _parse_location(tokens[1], inner_no)
            scenario.add_handler(function, location, " ".join(tokens[2:]))
            index += 1
        raise ParseError(f"error scenario {scenario.name!r} is not closed", line_no)


def parse_annotations(text: str) -> AnnotationSet:
    """Parse the textual annotation format into an :class:`AnnotationSet`."""
    return _Parser(text).parse()
