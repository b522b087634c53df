"""Versioned, stable JSON schema for every report type.

Analysis results must cross process and machine boundaries (CLI ``--json``
output, batch pools shipping reports between workers, archived CI artifacts),
so every report type serialises to plain JSON and back **exactly**: for any
report ``r``, ``from_json(json.loads(json.dumps(to_json(r)))) == r`` holds
field for field — intervals, per-block times, challenge messages, call-context
strings, phase timings (floats survive the JSON text round-trip bit for bit
in Python).

Schema shape
------------
Every serialised object carries two envelope fields::

    {"schema": 1, "kind": "WCETReport", ...payload...}

``schema`` is the version of this module's format, bumped only on an
incompatible layout change (a new *optional* field is not a bump; renaming,
retyping or removing one is).  Loaders reject unknown versions and unknown
kinds with :class:`SchemaError` instead of guessing.  Nested objects carry
their own envelope so any subtree can be stored and reloaded on its own.

Each kind is a dataclass handed to :func:`register`.  Its payload is its
fields in declaration order, and its dumper and loader are generated from the
type hints on first use (docs/api.md lists the supported types).  Every loaded
field is type-checked: a wrong type, a malformed value or a missing field
(unless the kind declares it optional) raises :class:`SchemaError`.  The codec
lives here rather than in methods so the report dataclasses stay plain data;
the classes expose thin ``to_json``/``from_json`` conveniences that delegate
to this module.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import operator
import types
import typing
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Type

from repro.errors import ReproError
from repro.guidelines.checker import GuidelineReport
from repro.guidelines.finding import Finding
from repro.hardware.pipeline import BlockTimeBounds
from repro.wcet.report import (
    ChallengeReport,
    FunctionReport,
    LoopReport,
    PhaseTiming,
    WCETReport,
)

#: Version of the serialisation format (see the module docstring for policy).
SCHEMA_VERSION = 1


class SchemaError(ReproError):
    """Unknown schema version or kind, or a malformed payload."""


def _check_envelope(data: Any, kind: Optional[str] = None) -> str:
    if not isinstance(data, dict):
        raise SchemaError(f"expected a JSON object, got {type(data).__name__}")
    version = data.get("schema")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema version {version!r} (this build reads "
            f"version {SCHEMA_VERSION}); re-serialise with a matching build"
        )
    found = data.get("kind")
    if not isinstance(found, str):
        raise SchemaError("serialised object has no 'kind' field")
    if kind is not None and found != kind:
        raise SchemaError(f"expected a serialised {kind}, found {found!r}")
    return found


# --------------------------------------------------------------------------- #
# Registered kinds
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class _Kind:
    cls: Type
    optional: frozenset
    #: Dict fields sent as a list of ``{key_name: key, value_name: value}``
    #: entries (for keys JSON objects cannot hold, like ``None``).
    entries: Dict[str, Tuple[str, str]]
    #: Keys a loaded payload may carry; ``None`` ignores unknown keys.
    known: Optional[frozenset]
    dump: Optional[Callable[[Any], Dict[str, Any]]] = None
    load: Optional[Callable[[Dict[str, Any]], Any]] = None


_KINDS: Dict[str, _Kind] = {}
_BY_CLASS: Dict[Type, _Kind] = {}


def register(
    cls: Type,
    optional: Iterable[str] = (),
    *,
    entries: Optional[Dict[str, Tuple[str, str]]] = None,
    reject_unknown: bool = False,
    retired: Iterable[str] = (),
) -> None:
    """Make the dataclass ``cls`` a schema-1 kind named ``cls.__name__``.

    ``optional`` names the fields a loaded payload may omit (they take their
    dataclass default); every other field is required.  ``entries`` maps a
    dict field to the ``(key_name, value_name)`` of the entry list it is sent
    as.  ``reject_unknown`` makes an unknown key a :class:`SchemaError`,
    except the keys of ``retired`` fields, which are dropped.  Registering
    the same kind name for a different class raises :class:`SchemaError`.
    """
    kind = cls.__name__
    existing = _KINDS.get(kind)
    if existing is not None and existing.cls is not cls:
        raise SchemaError(f"serialised kind {kind!r} is already registered")
    names = {f.name for f in dataclasses.fields(cls)}
    optional, entries = frozenset(optional), dict(entries or {})
    unknown = (optional | set(entries)) - names
    if unknown:
        raise SchemaError(f"{kind} has no field {', '.join(sorted(unknown))}")
    known = None
    if reject_unknown:
        known = frozenset(names | set(retired) | {"schema", "kind"})
    _KINDS[kind] = _BY_CLASS[cls] = _Kind(cls, optional, entries, known)


def optional_fields(cls: Type) -> frozenset:
    """The fields of a registered kind a loaded payload may omit."""
    return _BY_CLASS[cls].optional


# --------------------------------------------------------------------------- #
# The generated dumpers and loaders
# --------------------------------------------------------------------------- #
_MISSING = object()

_PRIMITIVE_CHECKS = {
    int: "{0}.__class__ is int",
    float: "{0}.__class__ is float or {0}.__class__ is int",
    str: "{0}.__class__ is str",
    bool: "{0}.__class__ is bool",
}


def _bad(kind: str, name: str, value: Any, expected: str):
    raise SchemaError(
        f"serialised {kind} is malformed: {name} must be {expected}, "
        f"got {type(value).__name__}"
    )


def _type_name(tp: Any) -> str:
    return tp.__name__ if isinstance(tp, type) else repr(tp).replace("typing.", "")


class _Codegen:
    """Builds the source of one kind's ``dump(o)`` and ``load(d)``."""

    def __init__(self, kind: str):
        self.kind = kind
        self.namespace: Dict[str, Any] = {
            "_check_envelope": _check_envelope,
            "_bad": _bad,
            "_MISSING": _MISSING,
            "SchemaError": SchemaError,
        }

    def name(self, value: Any = _MISSING) -> str:
        """A fresh identifier: a comprehension variable, or a name for
        ``value`` in the generated functions' namespace."""
        name = f"_n{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def codec(
        self, tp: Any, dx: str, lx: str, field: str, entries: Tuple[str, ...] = ()
    ) -> Tuple[str, str]:
        """Expressions dumping the value ``dx`` and loading (type-checked)
        the JSON value ``lx``, both of type ``tp``; ``entries`` sends a dict
        as a list of ``{entries[0]: key, entries[1]: value}`` objects."""
        inner, nullable = tp, False
        if typing.get_origin(tp) in (typing.Union, types.UnionType):
            # Optional[T] is the only union with a JSON form.
            (inner,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
            nullable = True
        origin, args = typing.get_origin(inner), typing.get_args(inner)
        expected = _type_name(tp)
        if entries:
            expected = f"a list of {entries[0]}/{entries[1]} entries"
        bad = f"_bad({self.kind!r}, {field!r}, {lx}, {expected!r})"
        check = _PRIMITIVE_CHECKS.get(inner)
        if check is not None:
            check = check.format(lx)
            if nullable:
                check = f"{lx} is None or {check}"
            return dx, f"({lx} if {check} else {bad})"
        if origin is list:
            v = self.name()
            dump, load = self.codec(args[0], v, v, field)
            dump = f"list({dx})" if dump == v else f"[{dump} for {v} in {dx}]"
            load = f"([{load} for {v} in {lx}] if {lx}.__class__ is list else {bad})"
        elif origin is dict:
            k, v = self.name(), self.name()
            if args[0] is int:
                key_dump, key_load = f"str({k})", f"int({k})"
            else:
                key_dump, key_load = self.codec(args[0], k, k, field)
            dump, load = self.codec(args[1], v, v, field)
            pairs, wire = f"{lx}.items()", "dict"
            if entries:
                dump = f"{{{entries[0]!r}: {key_dump}, {entries[1]!r}: {dump}}}"
                dump = f"[{dump} for {k}, {v} in {dx}.items()]"
                pairs = f"map({self.name(operator.itemgetter(*entries))}, {lx})"
                wire = "list"
            elif (key_dump, dump) == (k, v):
                dump = f"dict({dx})"
            else:
                dump = f"{{{key_dump}: {dump} for {k}, {v} in {dx}.items()}}"
            load = (
                f"({{{key_load}: {load} for {k}, {v} in {pairs}}} "
                f"if {lx}.__class__ is {wire} else {bad})"
            )
        elif isinstance(inner, type) and issubclass(inner, enum.Enum):
            dump, load = f"{dx}.value", f"{self.name(inner)}({lx})"
        elif inner in _BY_CLASS:
            nested = _BY_CLASS[inner]
            if nested.load is None:
                _build(nested)
            dump = f"{self.name(nested.dump)}({dx})"
            load = f"{self.name(nested.load)}({lx})"
        else:
            raise SchemaError(f"{self.kind}: no JSON form for {_type_name(tp)}")
        if nullable:
            dump = f"(None if {dx} is None else {dump})"
            load = f"(None if {lx} is None else {load})"
        return dump, load


def _build(kind: _Kind) -> _Kind:
    """Generate, compile and attach ``kind``'s dump and load functions."""
    name = kind.cls.__name__
    gen = _Codegen(name)
    hints = typing.get_type_hints(kind.cls)
    items, required, lookups, arguments = [], [], [], []
    for index, f in enumerate(dataclasses.fields(kind.cls)):
        lx = f"_a{index}"
        dump, load = gen.codec(
            hints[f.name], f"o.{f.name}", lx, f.name, kind.entries.get(f.name, ())
        )
        items.append(f"{f.name!r}: {dump}")
        if f.name in kind.optional:
            lookups.append(f"    {lx} = d.get({f.name!r}, _MISSING)")
            if f.default_factory is not dataclasses.MISSING:
                default = f"{gen.name(f.default_factory)}()"
            else:
                default = gen.name(f.default)
            load = f"({default} if {lx} is _MISSING else {load})"
        else:
            required.append(f"        {lx} = d[{f.name!r}]")
        arguments.append(f"        {load},")
    lines = [
        "def dump(o):",
        f"    return {{'schema': {SCHEMA_VERSION}, 'kind': {name!r}, "
        f"{', '.join(items)}}}",
        "def load(d):",
        f"    if d.__class__ is not dict or d.get('schema') != {SCHEMA_VERSION} "
        f"or d.get('kind') != {name!r}:",
        f"        _check_envelope(d, {name!r})",
    ]
    if kind.known is not None:
        lines += [
            f"    for key in d.keys() - {gen.name(kind.known)}:",
            f"        raise SchemaError(f'serialised {name} is malformed: "
            "unknown field {key!r}')",
        ]
    if required:
        lines += ["    try:", *required, "    except KeyError as exc:"]
        lines.append(
            f"        raise SchemaError(f'serialised {name} is missing field "
            "{exc}') from None"
        )
    lines += [*lookups, f"    return {gen.name(kind.cls)}(", *arguments, "    )"]
    exec(compile("\n".join(lines), f"<schema codec {name}>", "exec"), gen.namespace)
    kind.dump, kind.load = gen.namespace["dump"], gen.namespace["load"]
    return kind


# --------------------------------------------------------------------------- #
# Encoded bytes
# --------------------------------------------------------------------------- #
def encode(obj: Any) -> bytes:
    """``obj``'s wire form: ``json.dumps(to_json(obj))``, ASCII bytes."""
    return json.dumps(to_json(obj)).encode()


# --------------------------------------------------------------------------- #
# Public dispatchers
# --------------------------------------------------------------------------- #
def _lookup(table: Dict[Any, _Kind], key: Any) -> Optional[_Kind]:
    kind = table.get(key)
    if kind is None:
        # Kinds registered by other packages (the server wire messages) are
        # only present once their module is imported; give them one chance.
        import repro.server.wire  # noqa: F401

        kind = table.get(key)
    return kind


def to_json(obj: Any) -> Dict[str, Any]:
    """Serialise any supported report object to a JSON-compatible dict."""
    kind = _lookup(_BY_CLASS, type(obj))
    if kind is None:
        raise SchemaError(f"no JSON schema for objects of type {type(obj).__name__}")
    return (kind.dump or _build(kind).dump)(obj)


def from_json(data: Dict[str, Any], expected: Optional[Type] = None) -> Any:
    """Reconstruct a report object from its :func:`to_json` form.

    ``expected`` (a class) additionally asserts the deserialised kind.
    Raises :class:`SchemaError` on version/kind mismatches.
    """
    name = _check_envelope(data, expected.__name__ if expected is not None else None)
    kind = _lookup(_KINDS, name)
    if kind is None:
        raise SchemaError(f"unknown serialised kind {name!r}")
    load = kind.load or _build(kind).load
    try:
        return load(data)
    except SchemaError:
        raise
    except KeyError as exc:
        raise SchemaError(f"serialised {name} is missing field {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        # A value the type checks let through but the constructor refuses
        # (an unknown enum value, a block whose BCET exceeds its WCET, ...)
        # is a schema problem too: the HTTP front end turns SchemaError into
        # 400, anything else into 500.
        raise SchemaError(f"serialised {name} is malformed: {exc}") from None


for _cls in (
    BlockTimeBounds,
    LoopReport,
    ChallengeReport,
    FunctionReport,
    WCETReport,
    Finding,
    GuidelineReport,
):
    register(_cls)
# Counter-less payloads (older peers) lack the field.
register(PhaseTiming, optional=("iterations",))
del _cls
