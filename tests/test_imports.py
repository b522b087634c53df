"""Every name a module under ``src/repro`` imports is read in that module.

An unused import is dead weight a reader must rule out, and it can hide a
dependency that no longer exists.  The scan is ``ast`` only.  It counts a
name as read when it appears as a name anywhere in the module, inside a
string annotation, or in the module's ``__all__``.  ``__init__.py`` files
are skipped: their imports are the package's re-exports.  An import kept
for its side effect says so with ``# noqa: F401`` on its line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _annotation_names(node: ast.AST) -> Set[str]:
    """Names in an annotation, including those inside string annotations."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _read_names(tree: ast.Module) -> Set[str]:
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            }
    return read


def _imported_names(tree: ast.Module, lines: List[str]) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(
            "noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
        ):
            continue
        for alias in node.names:
            yield node.lineno, alias.asname or alias.name.split(".")[0]


def unused_imports(path: Path) -> List[str]:
    """``"line: name"`` for each imported name the module never reads."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    read = _read_names(tree)
    return [
        f"{line}: {name}"
        for line, name in _imported_names(tree, source.splitlines())
        if name not in read
    ]


def test_no_module_imports_a_name_it_never_reads():
    modules = [
        path for path in sorted(SOURCE.rglob("*.py")) if path.name != "__init__.py"
    ]
    assert len(modules) > 50, f"no package to scan at {SOURCE}"
    found = {
        str(path.relative_to(SOURCE.parent)): unused
        for path in modules
        for unused in [unused_imports(path)]
        if unused
    }
    assert not found, found


def test_the_scan_finds_what_it_should(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "from typing import Dict, List, Optional\n"
        "from collections import OrderedDict as Ordered\n"
        "from dataclasses import field\n"
        "__all__ = ['field']\n"
        "def f(x: 'Optional[int]') -> Dict[str, int]:\n"
        "    table: 'Ordered[str, int]' = {}\n"
        "    return table\n"
    )
    assert unused_imports(module) == ["2: os", "4: List"]
