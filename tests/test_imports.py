"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(
    p
    for p in (Path(__file__).resolve().parent.parent / "src" / "horonet").glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in used and name != "annotations"
    )


def test_checker_flags_unused_names():
    source = "from __future__ import annotations\nimport os, math\nimport a.b as c\nmath.pi\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
