"""Package modules carry no dead names: every import, parameter and
definition is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (ROOT / "src" / "horonet").glob("*.py") if p.name != "__init__.py"
)
# every file whose code may use a package definition
USERS = sorted(
    p
    for d in ("src/horonet", "tests", "bench")
    for p in (ROOT / d).glob("*.py")
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


def unread_parameters(source: str):
    """(line, function, parameter) for each parameter its body never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            (node.lineno, node.name, a.arg)
            for a in params
            if a.arg not in read and a.arg not in ("self", "cls")
        ]
    return sorted(found)


def referenced_names(source: str):
    """Names a module uses: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def unreferenced_definitions(source: str, used: set):
    """(line, name) of each function, method or class whose name is not used.

    Dunder methods are exempt: the interpreter calls them.
    """
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    )


def test_checker_flags_unused_names():
    source = "from __future__ import annotations\nimport os, math\nimport a.b as c\nmath.pi\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]


def test_checker_flags_unread_parameters():
    source = (
        "def f(a, b, *args, c=1, **kw):\n"
        "    b = 2\n"
        "    return b + c\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        def inner():\n"
        "            return x\n"
        "        return inner\n"
    )
    assert unread_parameters(source) == [
        (1, "f", "a"),
        (1, "f", "args"),
        (1, "f", "kw"),
    ]


def test_checker_flags_unreferenced_definitions():
    source = (
        "class K:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        pass\n"
        "    def dead(self):\n"
        "        pass\n"
        "def helper():\n"
        "    pass\n"
        "def orphan():\n"
        "    pass\n"
    )
    used = referenced_names(source) | referenced_names("from m import K, helper\n")
    assert unreferenced_definitions(source, used) == [(6, "dead"), (10, "orphan")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_no_unreferenced_definitions():
    used = set().union(*(referenced_names(p.read_text()) for p in USERS))
    dead = {
        path.name: unreferenced_definitions(path.read_text(), used)
        for path in MODULES
    }
    assert {name: found for name, found in dead.items() if found} == {}
