"""Package modules carry no dead names: every import, parameter,
definition, constant and instance attribute is used, and every default is
overridden somewhere.  Imports sit at module level only, every error
class is raised somewhere under its own exit code, importing the package
loads no scipy module, and numpy functions that round unlike libm and
CPython appear only where listed."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import horonet
from horonet import errors
from horonet.cmc1 import HorosphericalNet
from horonet.osculating import MoebiusFrame
from horonet.pattern import CirclePattern
from scalar_reference import scalar_names_in_package

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


def function_local_imports(source: str):
    """(line, function) of each import inside a function body, innermost."""
    found = {}
    for node in ast.walk(ast.parse(source)):  # breadth-first: outer first
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for n in ast.walk(node):
                if isinstance(n, (ast.Import, ast.ImportFrom)):
                    found[n.lineno] = node.name
    return sorted(found.items())


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
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def unreferenced_constants(source: str, used: set):
    """(line, name) of each module-level UPPER_CASE constant not in ``used``."""
    found = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        found += [
            (node.lineno, t.id)
            for t in targets
            if isinstance(t, ast.Name) and t.id.isupper() and t.id not in used
        ]
    return sorted(found)


def read_attributes(source: str):
    """Attribute names a module reads, directly or by a constant name given
    to ``getattr``/``hasattr``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            names.add(node.args[1].value)
    return names


def unread_attributes(source: str, read: set):
    """(line, name) of each ``self.name`` assignment whose name is not read."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr not in read
    )


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def call_bindings(source: str):
    """Callee name -> list of (positional count, keyword names, starred).

    ``partial(f, ...)`` counts as a call of ``f``; a call with ``*args`` or
    ``**kw`` is marked starred, binding every parameter.
    """
    calls = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in args) or any(
            k.arg is None for k in node.keywords
        )
        calls.setdefault(name, []).append(
            (len(args), {k.arg for k in node.keywords}, starred)
        )
    return calls


def unbound_defaults(source: str, calls: dict):
    """(line, function, parameter) for each defaulted parameter no call binds.

    Methods skip ``self``/``cls`` when counting positional arguments, and
    ``__init__`` is called by its class name.
    """
    tree = ast.parse(source)
    owner = {
        id(item): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        offset = 1 if id(node) in owner and not static else 0
        name = owner.get(id(node)) if node.name == "__init__" else node.name
        positional = args.posonlyargs + args.args
        defaulted = [
            (a.arg, index - offset)
            for index, a in enumerate(positional)
            if index >= len(positional) - len(args.defaults)
        ] + [
            (a.arg, None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ]
        for param, index in defaulted:
            if not any(
                starred or param in keywords or (index is not None and n > index)
                for n, keywords, starred in calls.get(name, ())
            ):
                found.append((node.lineno, node.name, param))
    return sorted(found)


# numpy functions whose rounding differs from the libm function CPython
# calls (or, for np.hypot, from math.hypot); each use is listed with the
# module and the function or class around it
UNLIKE_LIBM = {"hypot", "arctan2", "angle", "arccos", "tan"}
UNLIKE_LIBM_ALLOWED = {
    ("moebius.py", "cabs", "hypot"),  # libm hypot, as abs(complex) is
    ("moebius.py", "csqrt", "hypot"),  # as cmath.sqrt forms it
    ("moebius.py", "mobius_rows", "arctan2"),  # sign choice, away from +-pi/2
    ("pattern.py", "CrossRatioSystem", "angle"),  # within an ulp of cmath.phase
    ("convergence.py", "_angle_defects", "arccos"),  # inside the Newton solve
    ("convergence.py", "_angle_defects", "tan"),
}


def unlike_libm_calls(source: str):
    """(line, enclosing function and class names, name) of each ``np.<name>``
    or ``numpy.<name>`` with a name in ``UNLIKE_LIBM``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr in UNLIKE_LIBM
        ):
            found.append((node.lineno, scope, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_checker_flags_unused_names():
    source = "from __future__ import annotations\nimport os, math\nimport a.b as c\nmath.pi\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]


def test_checker_flags_function_local_imports():
    source = (
        "import os\n"
        "def f():\n"
        "    import math\n"
        "    def inner():\n"
        "        from os import path\n"
        "    return math\n"
        "class K:\n"
        "    from sys import argv\n"
        "    async def m(self):\n"
        "        import json\n"
    )
    assert function_local_imports(source) == [(3, "f"), (5, "inner"), (10, "m")]


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


def test_checker_flags_unreferenced_constants():
    source = (
        "TOL_A = 1\n"
        "TOL_B: float = 2\n"
        "TOL_C = TOL_A\n"
        "lower = 3\n"
        "def f():\n"
        "    TOL_D = 4\n"
        "    return TOL_D\n"
    )
    used = referenced_names(source) | referenced_names("import m\nm.TOL_C\n")
    assert unreferenced_constants(source, used) == [(2, "TOL_B")]


def test_checker_flags_unread_attributes():
    source = (
        "class K:\n"
        "    def __init__(self, name):\n"
        "        self.a = self.b = 0\n"
        "        self.c, self.d = 1, 2\n"
        "        self.e: int = 3\n"
        "        self.f = self.g = 4\n"
        "        self.h = getattr(self, name)\n"
        "    def m(self, other):\n"
        "        return self.a + getattr(other, 'c') + hasattr(other, 'e')\n"
    )
    read = read_attributes(source) | read_attributes("k.f\n")
    assert unread_attributes(source, read) == [
        (3, "b"),
        (4, "d"),
        (6, "g"),
        (7, "h"),
    ]


def test_checker_flags_unbound_defaults():
    source = (
        "from functools import partial\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0):\n"
        "        pass\n"
        "    def m(self, p=0, q=0):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(u=0, v=0):\n"
        "        pass\n"
        "def g(w=0):\n"
        "    pass\n"
        "def h(r=0, o=0):\n"
        "    pass\n"
        "f(0, 1, e=5)\n"
        "K(1).m(2)\n"
        "K.s(3)\n"
        "partial(g, 1)\n"
        "h(*[])\n"
        "h(**{})\n"
    )
    assert unbound_defaults(source, call_bindings(source)) == [
        (2, "f", "c"),
        (2, "f", "d"),
        (5, "__init__", "y"),
        (7, "m", "q"),
        (10, "s", "v"),
    ]


def test_checker_flags_unlike_libm_calls():
    source = (
        "import numpy as np\n"
        "def f(x):\n"
        "    def g():\n"
        "        return np.tan(x) + np.sin(x)\n"
        "    return np.hypot(x, x)\n"
        "class K:\n"
        "    y = numpy.angle(1j)\n"
        "z = np.arctan2(1, 2)\n"
    )
    assert unlike_libm_calls(source) == [
        (4, ("f", "g"), "tan"),
        (5, ("f",), "hypot"),
        (7, ("K",), "angle"),
        (8, (), "arctan2"),
    ]


def test_unlike_libm_calls_only_where_listed():
    unlisted = [
        (path.name, line, name)
        for path in MODULES
        for line, scope, name in unlike_libm_calls(path.read_text())
        if not any((path.name, s, name) in UNLIKE_LIBM_ALLOWED for s in scope)
    ]
    assert unlisted == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert function_local_imports(path.read_text()) == []


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


def test_no_unreferenced_constants():
    used = set().union(*(referenced_names(p.read_text()) for p in USERS))
    dead = {
        path.name: unreferenced_constants(path.read_text(), used)
        for path in MODULES
    }
    assert {name: found for name, found in dead.items() if found} == {}


def test_no_unbound_defaults():
    calls = {}
    for path in USERS:
        for name, bindings in call_bindings(path.read_text()).items():
            calls.setdefault(name, []).extend(bindings)
    unbound = {
        path.name: unbound_defaults(path.read_text(), calls) for path in MODULES
    }
    assert {name: found for name, found in unbound.items() if found} == {}


def test_no_unread_attributes():
    read = set().union(*(read_attributes(p.read_text()) for p in USERS))
    unread = {
        path.name: unread_attributes(path.read_text(), read) for path in MODULES
    }
    assert {name: found for name, found in unread.items() if found} == {}


def test_error_classes_raised_with_distinct_exit_codes():
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.HoronetError)
        and c is not errors.HoronetError
    ]
    codes = [c.exit_code for c in classes]
    assert len(set(codes)) == len(codes)
    source = "\n".join(p.read_text() for p in MODULES)
    unraised = [
        c.__name__ for c in classes
        if not re.search(rf"raise {c.__name__}\b", source)
    ]
    assert unraised == []


def test_package_holds_none_of_the_removed_names():
    """The scalar objects live in the tests' reference only: no module holds
    them, a one-row wrapper or an error class nothing raises, and no
    container has a view that builds them."""
    assert scalar_names_in_package() == []
    gone = ("transition", "smooth_osculating", "BoundaryEdge", "NonpositiveRadius")
    modules = [horonet] + [importlib.import_module(f"horonet.{p.stem}") for p in MODULES]
    assert [(m.__name__, n) for m in modules for n in gone if hasattr(m, n)] == []
    views = [(CirclePattern, "z"), (CirclePattern, "moebius_image"), (MoebiusFrame, "maps"),
             (HorosphericalNet, "horospheres"), (HorosphericalNet, "gauss")]
    assert [(c.__name__, n) for c, n in views if hasattr(c, n)] == []


def test_package_import_loads_no_scipy():
    # scipy stays inside horonet.convergence: scipy.sparse.csgraph alone
    # adds about 0.12 s to the package's import time
    probe = "import sys, horonet; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "[]"
