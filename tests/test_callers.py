"""Every library definition has a caller outside the tests.

Each module of ``src/ottomon/`` is parsed with ``ast``; its top-level
functions and classes and the public methods of its classes must each be
referenced, as a name, an attribute or an import alias, somewhere in
``src/ottomon/``, ``demos/`` or ``perfbench/``.  ``__init__.py`` is left out
on both sides: an export is not a caller.  Matching is by name only, so a
shared name can hide a dead definition, but a referenced definition is never
flagged.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ottomon"
CALLER_DIRS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")


def _modules(directory: Path) -> list[Path]:
    return sorted(p for p in directory.rglob("*.py") if p.name != "__init__.py")


def _definitions(path: Path) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each definition the test requires a caller for."""
    module = path.stem
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        found.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (f"{module}.{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            )
    return found


def _references(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_library_definition_has_a_caller() -> None:
    referenced = set()
    for directory in CALLER_DIRS:
        for path in _modules(directory):
            referenced |= _references(path)
    definitions = [d for path in _modules(PACKAGE) for d in _definitions(path)]
    assert len(definitions) > 100  # the scan found the library
    uncalled = sorted(qualified for qualified, name in definitions if name not in referenced)
    assert not uncalled, f"defined under src/ottomon/ but never referenced: {uncalled}"
