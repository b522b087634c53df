"""The :class:`Project` — one analysable unit of source + configuration.

A project bundles everything the analysis pipeline consumes:

* **sources** — mini-C text, textual assembly, or an already-built
  :class:`~repro.ir.program.Program` (exactly one of the three);
* **annotations** — an :class:`~repro.annotations.registry.AnnotationSet`, or
  the textual annotation format of :mod:`repro.annotations.parser`;
* **processor** — a :class:`~repro.hardware.processor.ProcessorConfig`, a
  factory, or one of the named models (``simple``, ``leon2``, ``mpc5554``,
  ``hcs12x``);
* **cache configuration** — where (if anywhere) the persistent
  function-summary store lives, resolved through a single documented
  precedence order (see :func:`resolve_summary_store`).

Compilation is lazy and memoised: :meth:`Project.build` compiles the sources
to a :class:`~repro.ir.program.Program` once, :meth:`Project.compilation_unit`
parses the mini-C AST once (for the guideline checker).  Every front end —
the ``python -m repro`` CLI, :meth:`~repro.api.service.AnalysisService.analyze_many`
and its pool workers, the differential oracle, perfbench — goes through a
project instead of re-implementing source loading and cache wiring.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Union

from repro.annotations.parser import parse_annotations
from repro.annotations.registry import AnnotationSet
from repro.cache import SummaryStore
from repro.errors import ReproError
from repro.hardware.processor import (
    ProcessorConfig,
    hcs12x_like,
    leon2_like,
    mpc5554_like,
    simple_scalar,
)
from repro.ir.asmparser import parse_assembly
from repro.ir.program import Program
from repro.minic import ast
from repro.minic.codegen import CodeGenerator
from repro.minic.cparser import parse_source
from repro.minic.typecheck import check_types


class ProjectError(ReproError):
    """Invalid project definition (conflicting sources, unknown names, ...)."""


#: The named processor timing models every CLI accepts.
PROCESSORS: Dict[str, Callable[[], ProcessorConfig]] = {
    "simple": simple_scalar,
    "leon2": leon2_like,
    "mpc5554": mpc5554_like,
    "hcs12x": hcs12x_like,
}

#: Environment variable naming the default persistent summary-store directory.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"


def resolve_processor(
    processor: Union[None, str, ProcessorConfig, Callable[[], ProcessorConfig]],
) -> ProcessorConfig:
    """Accept a config instance, a factory, a model name, or ``None``."""
    if processor is None:
        return simple_scalar()
    if isinstance(processor, ProcessorConfig):
        return processor
    if callable(processor):
        return processor()
    try:
        return PROCESSORS[processor]()
    except KeyError:
        raise ProjectError(
            f"unknown processor {processor!r}; available: "
            f"{', '.join(sorted(PROCESSORS))}"
        ) from None


def resolve_summary_store(
    cache: Union[None, str, SummaryStore] = "auto",
) -> Optional[SummaryStore]:
    """Resolve the persistent function-summary store, one precedence order.

    This is the *single* place cache wiring is decided (every entry point
    used to thread its own ``cache_dir``).  Precedence, highest first:

    1. an explicit :class:`~repro.cache.SummaryStore` instance — used as-is;
    2. an explicit directory path — a store is opened there;
    3. ``"off"`` or ``None`` — caching disabled, full stop (the differential
       oracle uses this: its contract is that ``REPRO_CACHE_DIR`` never
       leaks in);
    4. ``"auto"`` (the default): the ``REPRO_CACHE_DIR`` environment
       variable, if set and non-empty, otherwise no store (tier-1 in-process
       caching still applies).
    """
    if cache is None or cache == "off":
        return None
    if isinstance(cache, SummaryStore):
        return cache
    if cache != "auto":
        return SummaryStore(str(cache))
    env_dir = os.environ.get(CACHE_ENV_VAR, "")
    return SummaryStore(env_dir) if env_dir else None


class Project:
    """One program (plus annotations, processor, cache config) to analyse."""

    def __init__(
        self,
        *,
        program: Optional[Program] = None,
        source: Optional[str] = None,
        assembly: Optional[str] = None,
        entry: Optional[str] = None,
        annotations: Union[None, str, AnnotationSet] = None,
        processor: Union[None, str, ProcessorConfig, Callable[[], ProcessorConfig]] = None,
        cache: Union[None, str, SummaryStore] = "auto",
        name: str = "",
    ):
        supplied = [s for s in (program, source, assembly) if s is not None]
        if len(supplied) != 1:
            raise ProjectError(
                "a Project needs exactly one of program=, source= or assembly="
            )
        self.name = name
        self.entry = entry
        self.source = source
        self.assembly = assembly
        self.processor = resolve_processor(processor)
        self.cache = cache
        if annotations is None:
            self.annotations = AnnotationSet()
        elif isinstance(annotations, AnnotationSet):
            self.annotations = annotations
        else:
            self.annotations = parse_annotations(annotations)
        self._program: Optional[Program] = program
        self._unit: Optional[ast.CompilationUnit] = None
        self._store_resolved = False
        self._store: Optional[SummaryStore] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_source(cls, source: str, **kwargs) -> "Project":
        """Project over mini-C source text."""
        return cls(source=source, **kwargs)

    @classmethod
    def from_assembly(cls, assembly: str, **kwargs) -> "Project":
        """Project over the textual assembly format."""
        return cls(assembly=assembly, **kwargs)

    @classmethod
    def from_program(cls, program: Program, **kwargs) -> "Project":
        """Project over an already-built IR program."""
        return cls(program=program, **kwargs)

    @classmethod
    def from_workload(cls, workload_name: str, **kwargs) -> "Project":
        """Project over a named workload from :mod:`repro.workloads.catalog`.

        Accepts both spellings (``flight-control`` and ``flight_control``);
        the workload's own annotations and entry point are used unless
        overridden by ``kwargs``.
        """
        from repro.workloads import get_workload

        workload = get_workload(workload_name.replace("_", "-"))
        kwargs.setdefault("annotations", workload.annotation_set())
        kwargs.setdefault("entry", workload.entry)
        kwargs.setdefault("name", workload.name)
        return cls(program=workload.program(), **kwargs)

    @classmethod
    def from_file(
        cls,
        path: str,
        annotations_path: Optional[str] = None,
        **kwargs,
    ) -> "Project":
        """Project over a source file: ``.c`` is mini-C, ``.s``/``.asm`` is
        assembly.  ``annotations_path`` names a textual annotation file."""
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if annotations_path is not None:
            with open(annotations_path, "r", encoding="utf-8") as handle:
                kwargs.setdefault("annotations", handle.read())
        kwargs.setdefault("name", os.path.basename(path))
        if path.endswith((".s", ".asm")):
            return cls(assembly=text, **kwargs)
        return cls(source=text, **kwargs)

    # ------------------------------------------------------------------ #
    # Lazy build products
    # ------------------------------------------------------------------ #
    def build(self) -> Program:
        """Compile/parse the sources to the IR program (memoised)."""
        if self._program is None:
            if self.source is not None:
                # compilation_unit() already type-checked the AST; generate
                # code directly rather than re-checking via compile_unit.
                self._program = CodeGenerator(
                    self.compilation_unit(), entry=self.entry or "main"
                ).generate()
            else:
                self._program = parse_assembly(
                    self.assembly, entry=self.entry or "main"
                )
        return self._program

    def compilation_unit(self) -> ast.CompilationUnit:
        """The type-checked mini-C AST (guideline checking needs it)."""
        if self.source is None:
            raise ProjectError(
                "this project has no mini-C source (guideline checking and "
                "AST-level passes need one)"
            )
        if self._unit is None:
            unit = parse_source(self.source)
            check_types(unit)
            self._unit = unit
        return self._unit

    def summary_store(self) -> Optional[SummaryStore]:
        """The resolved persistent summary store (memoised; may be ``None``)."""
        if not self._store_resolved:
            self._store = resolve_summary_store(self.cache)
            self._store_resolved = True
        return self._store

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "program" if self.source is None and self.assembly is None else (
            "source" if self.source is not None else "assembly"
        )
        return (
            f"Project(name={self.name!r}, kind={kind}, "
            f"processor={self.processor.name!r}, entry={self.entry!r})"
        )
