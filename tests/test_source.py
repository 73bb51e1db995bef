"""Checks on the source text of the package itself."""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "entctl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no other node names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "annotations" and isinstance(node, ast.ImportFrom):
                    continue  # from __future__ import annotations
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import os.path\nfrom math import gcd, lcm as l\nimport json\nx = l(2, json.loads('3'))\n"
    assert unused_imports(source) == ["gcd (line 2)", "os (line 1)"]


def unused_locals(source: str) -> list[str]:
    """The names a function stores that neither it nor a function nested in
    it loads; names starting with an underscore are exempt."""
    found = set()
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested = {
            id(node)
            for inner in ast.walk(fn)
            if inner is not fn and isinstance(inner, scopes)
            for node in ast.walk(inner)
        }
        names = [node for node in ast.walk(fn) if isinstance(node, ast.Name)]
        loaded = {node.id for node in names if not isinstance(node.ctx, ast.Store)}
        loaded.update(
            name
            for node in ast.walk(fn)
            if isinstance(node, (ast.Global, ast.Nonlocal))
            for name in node.names
        )
        found.update(
            (fn.name, node.id, node.lineno)
            for node in names
            if isinstance(node.ctx, ast.Store)
            and id(node) not in nested
            and not node.id.startswith("_")
            and node.id not in loaded
        )
    return [f"{fn}: {name} (line {line})" for fn, name, line in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


def test_unused_local_is_found():
    source = (
        "def f(a):\n"
        "    x = 1\n"
        "    y, _z = a\n"
        "    for i, b in enumerate(a):\n"
        "        x = b\n"
        "    def g():\n"
        "        w = [0 for c in a]\n"
        "        return y\n"
        "    return g\n"
    )
    assert unused_locals(source) == [
        "f: i (line 4)", "f: x (line 2)", "f: x (line 5)", "g: c (line 7)", "g: w (line 7)",
    ]


ROOT = SRC.parent.parent
READERS = sorted(
    p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
)


def names_used(source: str) -> set[str]:
    """The names a module reads: bare names, attributes and imported names."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add((node.asname or node.name).split(".")[-1])
    return used


def unused_definitions(source: str, used: set[str]) -> list[str]:
    """The functions, methods and classes of ``source``, dunders aside,
    whose names are not in ``used``."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]


def test_no_unused_definitions():
    used = set().union(*(names_used(p.read_text()) for p in READERS))
    unused = {p.name: unused_definitions(p.read_text(), used) for p in MODULES}
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_definition_is_found():
    source = (
        "class A:\n"
        "    def __eq__(self, other):\n"
        "        return helper(other)\n"
        "    def lonely(self):\n"
        "        pass\n"
        "def helper(x):\n"
        "    return x.attr()\n"
        "def attr():\n"
        "    pass\n"
        "def dead():\n"
        "    pass\n"
    )
    used = names_used(source) | names_used("from m import A\n")
    assert unused_definitions(source, used) == ["dead (line 10)", "lonely (line 4)"]


def unresolved_names(text: str) -> list[str]:
    """The backticked code names of ``text`` that name nothing in entctl: a
    dotted name ``module.name[.attr]`` (or ``entctl.module``), or a name
    such as ``Band`` or ``TailCylinder``, looked up in every module."""
    modules = {p.stem: importlib.import_module(f"entctl.{p.stem}") for p in MODULES}
    spans = set(re.findall(r"`([^`\n]+)`", text))
    dotted = {t for t in spans if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", t)}
    camel = {t for t in spans if re.fullmatch(r"[A-Z][a-z]\w*", t)}

    def resolves(name):
        head, *attrs = name.removeprefix("entctl.").split(".")
        if head in modules:
            return _has_path(modules[head], attrs)
        return any(_has_path(vars(m)[head], attrs) for m in modules.values() if head in vars(m))

    return sorted(t for t in dotted | camel if not resolves(t))


def _has_path(obj, attrs) -> bool:
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_names_resolve():
    assert unresolved_names((ROOT / "README.md").read_text()) == []


def test_unresolved_readme_name_is_found():
    text = "`ShiftEndo`, `Band.band_columns`, `finabel.Band.band_map`, `entctl.ends`, `Z/2`, `C_n`"
    assert unresolved_names(text) == ["Band.band_columns", "ShiftEndo"]


def test_congruence_kernel_takes_image_width_second():
    """``perfbench/tracer.py`` buckets ``congruence_kernel`` calls by
    ``args[1] + len(args[0])``: the image width stays the second positional
    parameter, and every call in the package passes the first two
    positionally."""
    from entctl.lattice import congruence_kernel

    params = list(inspect.signature(congruence_kernel).parameters.values())[:2]
    assert [p.name for p in params] == ["map_rows", "image_width"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    calls = [
        node
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "congruence_kernel"
    ]
    assert len(calls) >= 5
    assert all(
        len(call.args) >= 2 and not any(isinstance(a, ast.Starred) for a in call.args[:2])
        for call in calls
    )
