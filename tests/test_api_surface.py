"""The package exports only what it runs.

Every name in a module's ``__all__`` must be used somewhere in ``src/cqedlat``
apart from its own definition, the ``__all__`` list and the re-exports of
``cqedlat/__init__``: imported by another module, or read by other code of its
own module.  A name that only tests call belongs in ``tests/oracles.py`` or
nowhere.  No module imports a ``_``-prefixed name of another: what one module
needs from another is part of that module's interface.  The scan reads the
sources with ``ast`` and imports nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cqedlat"

# names exported although no package module uses them, each with its reason
ALLOWED = {
    ("lattice", "sector_ground_energy"):
        "traced by perfbench/run.py, which the benchmark runs; goes with the benchmark change",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _binds(node: ast.stmt, name: str) -> bool:
    """Whether the top-level statement ``node`` defines ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Name) and t.id == name for t in targets)
    if isinstance(node, ast.ImportFrom):
        return any((a.asname or a.name) == name for a in node.names)
    return False


def _used_in_own_module(tree: ast.Module, name: str) -> bool:
    for stmt in tree.body:
        if _binds(stmt, name):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
                return True
    return False


def _imported_elsewhere(modules: dict[str, ast.Module], owner: str, name: str) -> bool:
    for stem, tree in modules.items():
        if stem == owner:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module in (owner, f"cqedlat.{owner}")
                    and any(a.name == name for a in node.names)):
                return True
            if (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.value, ast.Name) and node.value.id == owner):
                return True
    return False


def unused_exports() -> list[tuple[str, str]]:
    modules = _modules()
    return [(stem, name) for stem, tree in modules.items() for name in _exports(tree)
            if not (_used_in_own_module(tree, name) or _imported_elsewhere(modules, stem, name))]


def private_imports() -> list[str]:
    """``module: owner.name`` for every ``_``-prefixed, non-dunder name that a
    package module imports from another package module."""
    found = []
    for stem, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or "cqedlat" in (node.module or "")):
                found += [f"{stem}: {node.module}.{a.name}" for a in node.names
                          if a.name.startswith("_") and not a.name.endswith("__")]
    return found


def test_no_module_imports_a_private_name_of_another():
    assert private_imports() == []


def test_every_exported_name_is_used_by_the_package():
    unused = [f"{stem}.{name}" for stem, name in unused_exports() if (stem, name) not in ALLOWED]
    assert unused == []


def test_every_allowlisted_name_is_still_exported_and_unused():
    assert set(ALLOWED) <= set(unused_exports())


def test_the_scan_sees_every_module():
    modules = _modules()
    assert {"cli", "circuits", "hilbert", "jc", "lattice", "lindblad", "meanfield",
            "resonator"} <= set(modules)
    assert all(_exports(tree) for tree in modules.values())
