"""Every top-level import of the library and of the tests is read: a name
bound by an import at module level must be loaded somewhere in that
module, or listed in its ``__all__``.  ``__future__`` imports bind
nothing and are skipped."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "tropface").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    bound = {}  # name -> line of the import that binds it
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, sys as system\n"
                     "from json import dumps, loads\n"
                     "__all__ = ['loads']\n"
                     "print(system.argv)\n")
    assert _unused_imports(tree) == [(2, "os"), (3, "dumps")]
