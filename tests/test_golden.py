"""Golden schema-1 envelopes: one committed file per serialised kind.

``tests/golden/<Kind>.json`` holds ``json.dumps(to_json(obj), indent=1)`` of
one seeded synthetic object per kind (the report builders of
``test_api.py``, the wire messages of ``test_server.py``, and an
``AnalysisResult`` with a mode-unaware and a named mode).  The files pin the
wire format: every kind must still encode to the committed bytes and load
back equal.  A new kind needs a sample in :func:`golden_objects`.  Write the
files with ``PYTHONPATH=src python tests/test_golden.py``: for a new kind, or
for an intentional schema change.

The same envelopes drive two properties of the loader, over every field of
every kind: a value of the wrong type is a ``SchemaError``, and a missing
field is one too unless the kind declares the field optional.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import typing
from typing import Optional

import pytest

from repro.api import AnalysisResult, SchemaError, from_json, serialize, to_json
from repro.guidelines.checker import GuidelineReport

import test_server  # a module import: pytest must not re-collect its classes
from test_api import make_finding, make_wcet_report

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden_objects():
    """``{kind: object}`` for every serialised kind, built from fixed seeds."""
    report = make_wcet_report(random.Random(3))
    function = report.functions[report.entry]
    findings = [make_finding(random.Random(seed)) for seed in range(3)]
    guidelines = GuidelineReport(
        findings=findings, rules_checked=["13.4", "16.2", "20.4"]
    )
    rng = random.Random(11)
    objects = {
        "WCETReport": report,
        "FunctionReport": function,
        "BlockTimeBounds": next(iter(function.block_times.values())),
        "LoopReport": next(
            loop for seed in range(20)
            for loop in make_wcet_report(random.Random(seed)).loop_reports()
        ),
        "PhaseTiming": report.phases[0],
        "ChallengeReport": report.challenges,
        "Finding": findings[0],
        "GuidelineReport": guidelines,
        "AnalysisResult": AnalysisResult(
            label="golden",
            entry="main",
            processor="leon2-like",
            reports={None: make_wcet_report(rng), "ground": make_wcet_report(rng)},
            guidelines=guidelines,
            cache_stats={"tier1_hits": 4, "tier1_misses": 2},
            seconds=0.125,
        ),
    }
    # The wire messages: the last (most fully populated) sample of each kind.
    for message in test_server.TestWireRoundTrips.MESSAGES:
        objects[type(message).__name__] = message
    return objects


def golden_text(obj) -> str:
    return json.dumps(to_json(obj), indent=1) + "\n"


OBJECTS = golden_objects()


def test_every_kind_has_a_golden_file():
    assert sorted(OBJECTS) == sorted(serialize._KINDS)
    assert sorted(f[:-5] for f in os.listdir(GOLDEN_DIR)) == sorted(OBJECTS)


@pytest.mark.parametrize("kind", sorted(OBJECTS))
def test_envelope_matches_golden_file(kind):
    with open(os.path.join(GOLDEN_DIR, f"{kind}.json"), encoding="utf-8") as handle:
        text = handle.read()
    obj = OBJECTS[kind]
    assert golden_text(obj) == text
    assert from_json(json.loads(text)) == obj


def _golden_payload(kind):
    with open(os.path.join(GOLDEN_DIR, f"{kind}.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("kind", sorted(OBJECTS))
def test_every_field_is_type_checked(kind):
    """No field of any kind accepts a value of the wrong JSON type: an
    object holding a list fits no field, and ``true`` fits only a bool."""
    cls = type(OBJECTS[kind])
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        junk = [{"junk": [1]}]
        if hints[field.name] not in (bool, Optional[bool]):
            junk.append(True)
        for value in junk:
            data = _golden_payload(kind)
            data[field.name] = value
            with pytest.raises(SchemaError):
                from_json(data)


@pytest.mark.parametrize("kind", sorted(OBJECTS))
def test_only_declared_fields_are_optional(kind):
    """A missing field is an error unless the kind declares it optional;
    then the field takes its default."""
    obj = OBJECTS[kind]
    optional = serialize.optional_fields(type(obj))
    for field in dataclasses.fields(obj):
        data = _golden_payload(kind)
        del data[field.name]
        if field.name in optional:
            default = dataclasses.replace(obj, **{field.name: _default(field)})
            assert from_json(data) == default
        else:
            with pytest.raises(SchemaError, match="missing field"):
                from_json(data)


def _default(field):
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for kind, obj in sorted(OBJECTS.items()):
        path = os.path.join(GOLDEN_DIR, f"{kind}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(golden_text(obj))
        print(f"wrote tests/golden/{kind}.json")
